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
    defects show only in the forked chunks."""
    _plant(monkeypatch, suite, window, effect)
    cfg = _cfg(name, window)
    _cpus(monkeypatch, 1)
    sequential = _report(suite, cfg)
    assert sequential["failed"] > 0
    if effect == "raises" and suite != "commutators":  # a bracket error fails one bracket
        assert sequential["exemplars"][-1]["check"] == "evaluation"

    first_chunks = []
    run_chunk = tallies._run_chunk

    def recording(work, chunk):  # in this process: chunk 0 only
        first_chunks.append(run_chunk(work, chunk))
        return first_chunks[-1]

    monkeypatch.setattr(tallies, "_run_chunk", recording)
    _cpus(monkeypatch, 3)
    assert _report(suite, cfg) == sequential
    [(part, exc)] = first_chunks
    assert part.checked > 0 and part.failed == 0 and exc is None
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


def test_a_child_error_carries_the_child_traceback(monkeypatch):
    """A program error in a forked chunk is re-raised as itself, its cause
    the traceback the child saw, down to the planted frame."""
    _plant_raise_at_corner(monkeypatch, KeyError)
    _cpus(monkeypatch, 3)
    with pytest.raises(KeyError, match="planted") as caught:
        run_suite("n3", _cfg("all_equal_n3", 3))
    cause = caught.value.__cause__
    assert isinstance(cause, tallies._ChunkTraceback)
    assert "in planted" in str(cause) and "KeyError: 'planted'" in str(cause)
    _assert_no_child_left()


def test_a_child_error_pickle_cannot_send_is_a_runtime_error(monkeypatch):
    """An error of a class pickle cannot load (here a local class) becomes
    a RuntimeError naming it, with the child's traceback, not a bare exit
    status."""
    class Unsendable(Exception):
        pass

    _plant_raise_at_corner(monkeypatch, Unsendable)
    _cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="cannot be sent back by pickle: Unsendable"
                       ) as caught:
        run_suite("n3", _cfg("all_equal_n3", 3))
    assert "in planted" in str(caught.value.__cause__)
    _assert_no_child_left()


def test_an_exemplar_marshal_cannot_send_is_a_runtime_error(monkeypatch):
    """A failure whose exemplar holds something that is not plain data (a
    Fraction) fails a chunked run loudly, naming the marshal error."""
    _plant(monkeypatch, "n3", 3, "wrong")
    real = verify.Tally.check

    def check(self, ok, kind, detail):
        return real(self, ok, kind, lambda: {**detail(), "value": Fraction(1, 2)})

    monkeypatch.setattr(verify.Tally, "check", check)
    _cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="result cannot be sent back") as caught:
        run_suite("n3", _cfg("all_equal_n3", 3))
    assert "unmarshallable object" in str(caught.value.__cause__)
    _assert_no_child_left()


def test_one_chunk_per_item_at_most_and_no_pickle_without_an_error():
    """A one-symbol window runs in-process whatever the CPU count; a chunked
    run whose chunks end without an error sends no pickle, so neither
    process loads it."""
    src = str(Path(gtmod.__file__).resolve().parent.parent)
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "fork = os.fork\n"
            "os.fork = None\n"
            "from gtmod.verify import Config, run_suite\n"
            f"cfg = Config.from_file({str(FIXTURES / 'singular_n4.json')!r})\n"
            "assert run_suite('commutators', cfg.with_overrides(window=0)).ok\n"
            "os.fork = fork\n"
            "assert run_suite('n3', Config.from_file("
            f"{str(FIXTURES / 'all_equal_n3.json')!r})).ok\n"
            "assert 'pickle' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(
                              filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert proc.returncode == 0, proc.stderr
