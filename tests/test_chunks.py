"""The chunked window sweeps: one chunk per CPU of the affinity mask, the
later ones in forked children, merged into the report a single sweep makes.

Each test sets the mask through ``os.sched_getaffinity``: ``{0}`` runs the
sweep in-process, ``{0, 1, 2}`` in three chunks, two of them forked.  The
plants put their defects at the far corner of the window, so their first
failures fall in the last chunk, and chunk 0, which runs in this process,
checks clean.
"""

import os
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import pytest

import gtmod
from gtmod import core, tallies, verify
from gtmod.n3 import LOEWY_LAYERS
from gtmod.verify import Config, run_suite

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TOP_PIECE = max(LOEWY_LAYERS, key=LOEWY_LAYERS.get)

CASES = [("commutators", "singular_n3", 1), ("commutators", "generic_n3", 1),
         ("formulas", "singular_n3", 1), ("formulas", "generic_n3", 1),
         ("n3", "all_equal_n3", 3)]


def _cfg(name, window):
    return Config.from_file(FIXTURES / f"{name}.json").with_overrides(window=window)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _corner(z, window) -> bool:
    """z_11 and every top-row entry at the window bound: the last slab of the
    ``sweep`` order and the last shift of the ``window_shifts`` order, and
    closed under the swap tau of a row-2 frame."""
    return z.rows[0][0] == window and all(v == window for v in z.rows[-1])


def _plant(monkeypatch, suite, window, effect):
    """At the corner shifts: ``effect`` "wrong" negates every permutation-form
    term (``n3``: classifies the shift into the top layer); "raises" raises
    an evaluation error there (ZeroDivisionError; ``n3``: ValueError)."""
    if suite == "n3":
        real = verify.classify_shift

        def planted(z):
            if _corner(z, window):
                if effect == "raises":
                    raise ValueError("planted")
                return TOP_PIECE
            return real(z)

        monkeypatch.setattr(verify, "classify_shift", planted)
        return
    real_terms = core.TableauModule.perm_terms

    def planted_terms(self, l, m, z):
        terms = real_terms(self, l, m, z)
        if not _corner(z, window):
            return terms
        if effect == "raises":
            raise ZeroDivisionError("planted")
        return tuple((-e, dz) for e, dz in terms)

    monkeypatch.setattr(core.TableauModule, "perm_terms", planted_terms)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _report(suite, cfg) -> dict:
    out = run_suite(suite, cfg).to_dict()
    del out["elapsed_ms"]
    return out


@pytest.mark.parametrize("effect", ["wrong", "raises"])
@pytest.mark.parametrize("suite, name, window", CASES)
def test_chunked_report_is_the_sequential_one(monkeypatch, suite, name, window, effect):
    """Three chunks give the report of one, failures, exemplars, per-kind
    counts and an error that ends the sweep in the last chunk included; the
    defects show only in the forked chunks, and a forked chunk that raised
    runs again in this process."""
    _plant(monkeypatch, suite, window, effect)
    cfg = _cfg(name, window)
    _cpus(monkeypatch, 1)
    sequential = _report(suite, cfg)
    assert sequential["failed"] > 0
    if effect == "raises" and suite != "commutators":  # a bracket error fails one bracket
        assert sequential["exemplars"][-1]["check"] == "evaluation"

    in_process = []
    run_chunk = tallies._run_chunk

    def recording(work, chunk):  # in this process: chunk 0, and a chunk that raised
        in_process.append(run_chunk(work, chunk))
        return in_process[-1]

    monkeypatch.setattr(tallies, "_run_chunk", recording)
    _cpus(monkeypatch, 3)
    assert _report(suite, cfg) == sequential
    (part, exc), *rerun = in_process
    assert part.checked > 0 and part.failed == 0 and exc is None
    if effect == "raises" and suite != "commutators":  # the last chunk, run again
        [(part, exc)] = rerun
        assert part.checked > 0 and exc is not None
    else:
        assert rerun == []
    _assert_no_child_left()


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_every_child_is_reaped_when_chunk_0_raises(monkeypatch, error):
    """An error in chunk 0 ends the suite as it would unchunked (a program
    error propagates, an evaluation error is one failed check), and the
    children have been read and reaped by then."""
    real = verify.classify_shift

    def planted(z):
        if z.rows[0][0] == -3:
            raise error("planted")
        return real(z)

    monkeypatch.setattr(verify, "classify_shift", planted)
    _cpus(monkeypatch, 3)
    cfg = _cfg("all_equal_n3", 3)
    if error is KeyError:
        with pytest.raises(KeyError, match="planted"):
            run_suite("n3", cfg)
    else:
        report = run_suite("n3", cfg)
        assert report.checked == 1 and report.exemplars[0]["check"] == "evaluation"
    _assert_no_child_left()


def test_a_chunk_worker_that_dies_is_an_error(monkeypatch):
    """A child that exits without sending its tally fails the suite with
    ChildProcessError rather than dropping that chunk's checks."""
    real = verify.classify_shift

    def planted(z):
        if _corner(z, 3):
            os._exit(3)
        return real(z)

    monkeypatch.setattr(verify, "classify_shift", planted)
    _cpus(monkeypatch, 3)
    with pytest.raises(ChildProcessError):
        run_suite("n3", _cfg("all_equal_n3", 3))
    _assert_no_child_left()


def _plant_raise_at_corner(monkeypatch, error):
    real = verify.classify_shift

    def planted(z):
        if _corner(z, 3):
            raise error("planted")
        return real(z)

    monkeypatch.setattr(verify, "classify_shift", planted)


def test_a_chunk_error_is_raised_from_its_rerun(monkeypatch):
    """A program error in a forked chunk is raised as itself by the calling
    process, which runs that chunk again: its traceback passes through the
    planted frame."""
    _plant_raise_at_corner(monkeypatch, KeyError)
    _cpus(monkeypatch, 3)
    with pytest.raises(KeyError, match="planted") as caught:
        run_suite("n3", _cfg("all_equal_n3", 3))
    frames = traceback.extract_tb(caught.value.__traceback__)
    assert any(frame.name == "planted" for frame in frames)
    _assert_no_child_left()


def test_a_chunk_error_of_a_local_class_is_raised_as_itself(monkeypatch):
    """An error of a class pickle could not load (here a local class),
    raised in the last chunk, is raised as that class, not as a
    RuntimeError."""
    class Unsendable(Exception):
        pass

    _plant_raise_at_corner(monkeypatch, Unsendable)
    _cpus(monkeypatch, 3)
    with pytest.raises(Unsendable, match="planted"):
        run_suite("n3", _cfg("all_equal_n3", 3))
    _assert_no_child_left()


def test_an_exemplar_marshal_cannot_send_gives_the_sequential_report(monkeypatch):
    """A failure whose exemplar holds something that is not plain data (a
    Fraction) gives the report of an unchunked run: its chunk runs again
    in this process."""
    _plant(monkeypatch, "n3", 3, "wrong")
    real = verify.Tally.check

    def check(self, ok, kind, detail):
        return real(self, ok, kind, lambda: {**detail(), "value": Fraction(1, 2)})

    monkeypatch.setattr(verify.Tally, "check", check)
    cfg = _cfg("all_equal_n3", 3)
    _cpus(monkeypatch, 1)
    sequential = _report("n3", cfg)
    assert sequential["failed"] > 0
    _cpus(monkeypatch, 3)
    assert _report("n3", cfg) == sequential
    _assert_no_child_left()


def test_one_chunk_per_item_at_most_and_no_pickle_without_an_error():
    """A one-symbol window runs in-process whatever the CPU count; a chunked
    run loads no pickle, whether its chunks end cleanly or a later one
    raises."""
    src = str(Path(gtmod.__file__).resolve().parent.parent)
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "fork = os.fork\n"
            "os.fork = None\n"
            "from gtmod.verify import Config, run_suite\n"
            f"cfg = Config.from_file({str(FIXTURES / 'singular_n4.json')!r})\n"
            "assert run_suite('commutators', cfg.with_overrides(window=0)).ok\n"
            "os.fork = fork\n"
            f"n3 = Config.from_file({str(FIXTURES / 'all_equal_n3.json')!r})\n"
            "assert run_suite('n3', n3).ok\n"
            "assert 'pickle' not in sys.modules\n"
            "from gtmod import verify\n"
            "classify = verify.classify_shift\n"
            "def planted(z):  # at the corner of the window: the last chunk\n"
            "    if z.rows[0][0] == n3.window and all(v == n3.window for v in z.rows[-1]):\n"
            "        raise ValueError('planted')\n"
            "    return classify(z)\n"
            "verify.classify_shift = planted\n"
            "report = run_suite('n3', n3)\n"
            "assert report.exemplars[-1]['check'] == 'evaluation', report.exemplars\n"
            "assert 'pickle' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
