"""Verification harness: suites, reports, determinism, export, CLI."""

import hashlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import gtmod
import gtmod.coeffs as coeffs
from gtmod import core, finite, fixtures, generic, n3, ratfun, singular, verify
from gtmod.cli import main as cli_main
from gtmod.lincomb import LinComb
from gtmod.tableaux import SingularFrame, Tableau
from gtmod.verify import Config, Tally, build_action_matrix, export_action, run_suite

from conftest import sweep_finite_dim

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _cfg(name, **overrides):
    cfg = Config.from_file(FIXTURES / name)
    return cfg.with_overrides(**overrides) if overrides else cfg


def _failing_kinds(by_kind: dict) -> set:
    """The check kinds of a report's or a tally's ``by_kind`` that failed."""
    return {kind for kind, counts in by_kind.items() if counts["failed"]}


def test_fixture_files_are_the_reference_frames():
    """Each sample config loads to the frame, or the generic base, that
    gtmod.fixtures builds."""
    frames = {"generic_n3": None, "singular_n3": fixtures.frame_n3(),
              "all_equal_n3": fixtures.frame_all_equal(), "singular_n4": fixtures.frame_n4(),
              "singular_n4_row3": fixtures.frame_n4_row3()}
    assert sorted(path.stem for path in FIXTURES.glob("*.json")) == sorted(frames)
    for name, frame in frames.items():
        cfg = _cfg(f"{name}.json")
        assert cfg.frame == frame
        assert cfg.base == (fixtures.generic_base_n3() if frame is None else frame.vbar)


def test_commutators_pass_generic_and_singular():
    for name in ("generic_n3.json", "singular_n3.json"):
        report = run_suite("commutators", _cfg(name, window=1))
        assert report.ok
        assert report.checked == 27 * 36
        assert report.exemplars == []


def test_gamma_suite_passes_both_singular_frames():
    for name in ("singular_n3.json", "all_equal_n3.json"):
        report = run_suite("gamma", _cfg(name, window=2))
        assert report.ok


def test_gamma_suite_passes_generic():
    report = run_suite("gamma", _cfg("generic_n3.json", window=1))
    assert report.ok


def test_n3_suite_passes():
    report = run_suite("n3", _cfg("all_equal_n3.json", window=3))
    assert report.ok


@pytest.mark.parametrize("name, counts", [
    ("generic_n3", {"commutators": 972, "gamma": 147, "formulas": 891}),
    ("singular_n3", {"commutators": 972, "gamma": 307, "formulas": 2574}),
    ("all_equal_n3", {"commutators": 972, "gamma": 267, "n3": 346}),
    ("singular_n4", {"commutators": 120, "gamma": 245}),
    ("singular_n4_row3", {"commutators": 120, "gamma": 245}),
])
def test_report_counts_are_pinned(name, counts):
    """Every configured suite at the fixture seed, window 1 on n = 3 (3 for
    the ten-piece suite, the least that checks L7 growth) and 0 on n = 4: all checks pass, and
    their number does not move."""
    cfg = _cfg(f"{name}.json")
    cfg = cfg.with_overrides(window=1 if cfg.n == 3 else 0)
    checked = {}
    for suite in cfg.suites:
        report = run_suite(suite, cfg.with_overrides(window=3) if suite == "n3" else cfg)
        assert report.failed == 0 and report.exemplars == []
        checked[suite] = report.checked
    assert checked == counts


# The first 12 hex digits of the sha256 of
# json.dumps(build_action_matrix(cfg, kind, ab), sort_keys=True), one per
# operator of _pinned_operators in its order.
ACTION_DIGESTS = {
    ("generic_n3", 1): """
        c3ebe1c5ec72 da92939c457f ed969a08376f 85da0a7e0dee 6d3e975359d9
        4ed65d32681d 83b9f91440a0 3ee3943ad2f4 52acc8413fa4 7eee73e43fd4
        0414f5634b36
    """,
    ("singular_n3", 1): """
        89ac86ffb52e d4de86543ba9 e6793a908cd8 5f9eb6cd1a20 31d005cd6d23
        9366bd0c3264 44029b810b03 9dc9d3913d91 d8ab77e59130 57f334adf86b
        00e2384de7f7
    """,
    ("all_equal_n3", 1): """
        c8fd34e2a401 55d62400df84 b1184ac191d6 ad59968a0b77 5d6438f8c685
        b65b0d3cfb0f fc22202b7137 7671a2fefa55 3de4edfae229 be9d2fd5b144
        00b426bc9b33
    """,
    ("singular_n4", 0): """
        b5a805674dbc e8a661388ff5 c60c77ae8043 156b8aeee2b3 ff5c96ca50e3
        8a580739325f ec6662c4790a 37fcc0a6adb0 2ff92b7269c3 7576515632fd
        6f0a648ca916 e8596a6b6ecb 51c889207982 2c3e9e3e1e38 aa45b91a2d13
        3fdc7acdc3bc 3f15b4b241c0 3eba8d115526
    """,
    ("singular_n4_row3", 0): """
        a6e9d277a193 11817adc999f ee267313d54f 3a94f6938510 51a14cbfa084
        1c724262a409 f93454d09658 1035a153ed81 5a5498cdcd79 18022f04fa77
        d90332c9b707 9c180fc016aa 4cb9eb8f8aad 74ab6be2359d 1746753a4932
        2419d470e0f1 302364ed6a5d 4664ed831a96
    """,
}


def _pinned_operators(n):
    """Every generator E(a, b), then the central words c(2, 2) and c(3, 3)."""
    return ([("E", (a, b)) for a in range(1, n + 1) for b in range(1, n + 1)]
            + [("c", (2, 2)), ("c", (3, 3))])


@pytest.mark.parametrize("name, window", list(ACTION_DIGESTS))
def test_action_matrices_are_pinned(name, window):
    """Each pinned operator's window matrix keeps its digest: a changed
    coefficient, target symbol or basis order fails here, where every check
    count may still hold."""
    cfg = _cfg(f"{name}.json", window=window)
    ops = _pinned_operators(cfg.n)
    want = ACTION_DIGESTS[name, window].split()
    assert len(want) == len(ops)
    got = {f"{kind}{ab}": hashlib.sha256(json.dumps(
        build_action_matrix(cfg, kind, ab), sort_keys=True).encode()).hexdigest()[:12]
        for kind, ab in ops}
    assert got == dict(zip(got, want))


def test_formulas_runs_parity_plain_on_the_row3_frame():
    """On a row-2 frame every sigma is special, so only a row-3 pair leaves
    Phi_lm elements for the untwisted parity check."""
    report = run_suite("formulas", _cfg("singular_n4_row3.json", window=0))
    assert report.ok and report.checked == 304
    assert report.by_kind["parity-plain"] == {"checked": 20, "failed": 0}


def test_n3_suite_rejects_wrong_frame():
    with pytest.raises(ValueError):
        run_suite("n3", _cfg("singular_n3.json"))
    with pytest.raises(ValueError):
        run_suite("n3", _cfg("generic_n3.json"))


def test_report_schema_and_determinism(tmp_path):
    cfg = _cfg("singular_n3.json", window=1)
    r1 = run_suite("gamma", cfg)
    r2 = run_suite("gamma", cfg)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert set(d1) == {"suite", "frame", "window", "checked", "passed",
                       "failed", "by_kind", "exemplars", "seed", "elapsed_ms"}
    assert sum(counts["checked"] for counts in d1["by_kind"].values()) == d1["checked"]
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # a different seed still passes but may sample different inputs
    r3 = run_suite("gamma", cfg.with_overrides(seed=7))
    assert r3.ok and r3.seed == 7


def test_corrupted_coefficient_is_caught(monkeypatch):
    original = coeffs.coeff_e

    def corrupted(r, s, w):
        value = original(r, s, w)
        if s == r + 1:  # flip the sign of every adjacent raising coefficient
            return -value
        return value

    monkeypatch.setattr(coeffs, "coeff_e", corrupted)
    report = run_suite("commutators", _cfg("singular_n3.json", window=1))
    assert not report.ok
    assert report.failed > 0
    assert report.exemplars, "failures must carry exemplars"
    assert "input" in report.exemplars[0]


def test_dropped_prefactor_fails_the_evaluation_crosscheck(monkeypatch):
    monkeypatch.setattr(singular, "XY_SLOPE", 1)  # (x - y) taken as t, not 2t
    report = run_suite("formulas", _cfg("singular_n3.json", window=1))
    assert not report.ok
    assert report.failed == 162
    assert {ex["check"] for ex in report.exemplars} == {"regular-action-ev-crosscheck"}
    assert all(ex["lhs"] != ex["rhs"] for ex in report.exemplars)  # both sides named


def test_planted_valuation_off_by_one_is_caught(monkeypatch):
    original = coeffs.coeff_e

    def planted(r, s, w):  # a pure-t denominator factor left out of v
        jet = original(r, s, w)
        return jet._replace(v=jet.v + 1) if jet.v < 0 else jet

    monkeypatch.setattr(coeffs, "coeff_e", planted)
    cfg = _cfg("singular_n3.json", window=1)
    formulas = run_suite("formulas", cfg)
    assert formulas.failed > 0
    assert {ex["check"] for ex in formulas.exemplars} == {"jet-vs-ratfun"}
    commutators = run_suite("commutators", cfg)
    assert commutators.failed > 0
    assert {ex["check"] for ex in commutators.exemplars} == {"bracket"}


def _plant_unscaled_diagonal_constant(monkeypatch):
    real = coeffs._factors

    def planted(r, s, rows, one=1):  # the constant r - 1 not times the scale
        num, den = real(r, s, rows, one)
        if r == s:
            [(b, c)] = num
            num = [(b - (r - 1) * (one - 1), c)]
        return num, den

    monkeypatch.setattr(coeffs, "_factors", planted)


def _plant_swap_one_short(monkeypatch):
    real = coeffs._swap_first
    # entry 1 of the row lands at position a - 1 instead of a
    monkeypatch.setattr(coeffs, "_swap_first",
                        lambda row, a: real(row, a - 1) if a > 2 else row)


def _shift_without_scale(family):
    def plant(monkeypatch):
        real = core.TableauModule.tableau_at

        def planted(self, z):  # B + z instead of B + L*z
            return real(SimpleNamespace(base=self.base._replace(scale=1)), z)._replace(
                scale=self.base.scale)

        monkeypatch.setattr(family, "tableau_at", planted)
    return plant


_plant_shift_without_scale = _shift_without_scale(singular.SingularModule)


def _plant_numerators_not_rescaled(monkeypatch):
    real = LinComb.from_ratios

    def planted(triples):  # every numerator read as if over the common denominator
        triples = list(triples)
        den = math.lcm(*[d for _, _, d in triples])
        return real((key, num, den) for key, num, _ in triples)

    monkeypatch.setattr(LinComb, "from_ratios", staticmethod(planted))


def _plant_d_ev_swapped(monkeypatch):
    real = coeffs.Jet.d_ev_ratios
    monkeypatch.setattr(coeffs.Jet, "d_ev_ratios",
                        lambda self, order=0: real(self, order)[::-1])


def _plant_move_on_wrong_row(monkeypatch):
    # each target's first move lands one shift row up, where there is one
    real = coeffs.perm_moves

    def planted(l, m, n):
        out = []
        for moves in real(l, m, n):
            if moves and moves[0][0] + 1 < n - 1:
                (r, s, v), *rest = moves
                moves = ((r + 1, s, v), *rest)
            out.append(moves)
        return tuple(out)

    monkeypatch.setattr(coeffs, "perm_moves", planted)


def _plant_gamma_d_negated(monkeypatch):
    real = coeffs.gamma

    def planted(r, s, w):
        d, ev = real(r, s, w)
        return -d, ev

    monkeypatch.setattr(coeffs, "gamma", planted)


def _plant_der_sign_dropped(monkeypatch):
    real = singular.canonicalize

    def planted(kind, z, frame):  # Der(z) = +Der(tau(z)) instead of -Der(tau(z))
        sign, sym = real(kind, z, frame)
        return (abs(sign) if kind == singular.DER else sign), sym

    monkeypatch.setattr(singular, "canonicalize", planted)


def _plant_classical_index_off_by_one(monkeypatch):
    # classical_action recompiled with one range bound short, so e_{k,k+1}
    # loses its last factor (w_ki - w_{k+1,k+1})
    source = textwrap.dedent(inspect.getsource(coeffs.classical_action))
    assert source.count("range(1, k + 2)") == 1
    scope = {}
    exec(compile(source.replace("range(1, k + 2)", "range(1, k + 1)"), "<planted>", "exec"),
         vars(coeffs), scope)
    monkeypatch.setattr(coeffs, "classical_action", scope["classical_action"])


def _loewy_layers_swapped(first, second):
    def plant(monkeypatch):
        layers = n3.LOEWY_LAYERS
        for piece, layer in ((first, layers[second]), (second, layers[first])):
            monkeypatch.setitem(layers, piece, layer)
    return plant


def _plant_tau_fixed_never(monkeypatch):
    # every shift taken as tau-unfixed, so the pole of a coefficient at a
    # tau-fixed shift is met where none is expected
    monkeypatch.setattr(SingularFrame, "is_tau_fixed", lambda self, z: False)


def _plant_tau_wrong_positions(monkeypatch):
    # tau exchanges positions 1 and j of row k, which is right only when i = 1
    real = SingularFrame.tau
    monkeypatch.setattr(SingularFrame, "tau", lambda self, z: real(
        SimpleNamespace(k=self.k, i=1, j=self.j), z))


def _plant_structure_constant_dropped(monkeypatch):
    # bracket_defect recompiled without its delta_da word, and rebound on
    # every module family
    source = textwrap.dedent(inspect.getsource(core.TableauModule.bracket_defect))
    word = "    if d == a:\n        words.append((1, ((c, b),)))\n"
    assert source.count(word) == 1
    scope = {}
    exec(compile(source.replace(word, ""), "<planted>", "exec"), vars(core), scope)
    for family in (singular.SingularModule, generic.GenericModule, finite.FiniteModule):
        monkeypatch.setattr(family, "bracket_defect", scope["bracket_defect"])


def _plant_memo_key_drops_a_row(monkeypatch):
    # the term memo keyed without the lowest shift row that e_lm reads, so
    # shifts that differ only there share one entry
    real = coeffs.rows_read
    monkeypatch.setattr(coeffs, "rows_read", lambda l, m: real(l, m)[1:])


def _plant_pure_t_factor_keeps_v(monkeypatch):
    # coeff_e's fold recompiled so that a pure-t factor c*t folds as the
    # constant c, leaving the order of vanishing v where it was
    source = textwrap.dedent(inspect.getsource(coeffs._fold))
    step = "v, f0, f1 = v + 1, f1, 0"
    assert source.count(step) == 1
    scope = {}
    exec(compile(source.replace(step, "f0, f1 = f1, 0"), "<planted>", "exec"),
         vars(coeffs), scope)
    monkeypatch.setattr(coeffs, "_fold", scope["_fold"])


def _plant_gcd_skipped(monkeypatch):
    # every RatFun kept uncancelled, so a removable pole at t = 0 stays a pole
    monkeypatch.setattr(ratfun, "poly_gcd", lambda a, b: ratfun.ONE)


JORDAN_EIGEN = {"composition-jordan", "jordan-square-zero", "regular-eigenvector"}
SINGULAR_N3 = ("singular_n3.json", 1)
GENERIC_N3 = ("generic_n3.json", 1)


@pytest.mark.parametrize("plant, config, kinds", [
    (_plant_unscaled_diagonal_constant, SINGULAR_N3, {
        "formulas": {"classical-vs-permutation", "jet-vs-ratfun"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    (_plant_swap_one_short, SINGULAR_N3, {
        "formulas": {"classical-vs-permutation", "perm-action-vs-phi-set",
                     "regular-action-tau-even", "derivative-action-tau-odd"},
        "commutators": {"bracket"}, "gamma": {"composition-jordan"}}),
    (_plant_shift_without_scale, SINGULAR_N3, {
        "formulas": {"perm-action-vs-phi-set"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN | {"jordan-offdiagonal-model"}}),
    # the formulas oracles read the config's base, not the module's tableau_at
    (_shift_without_scale(generic.GenericModule), GENERIC_N3, {
        "formulas": {"perm-action-vs-phi-set"}, "commutators": {"bracket"},
        "gamma": {"composition-eigenvalue"}}),
    # formulas checks coefficients, not how LinComb sums them; the moved
    # finite-dimensional sweep catches this one too
    (_plant_numerators_not_rescaled, SINGULAR_N3, {
        "formulas": set(), "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    (_plant_d_ev_swapped, SINGULAR_N3, {
        "formulas": {"jet-vs-ratfun", "regular-action-tau-even", "derivative-action-tau-odd",
                     "regular-action-ev-crosscheck"},
        "commutators": {"bracket"},
        "gamma": JORDAN_EIGEN | {"connectivity", "witness-derivative-closed-form",
                                 "witness-step3"}}),
    (_plant_move_on_wrong_row, SINGULAR_N3, {
        "formulas": {"regular-action-tau-even", "derivative-action-tau-odd",
                     "regular-action-ev-crosscheck"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    (_plant_gamma_d_negated, SINGULAR_N3, {
        "formulas": set(), "commutators": set(),
        "gamma": {"composition-jordan", "jordan-offdiagonal-model"}}),
    (_plant_der_sign_dropped, SINGULAR_N3, {
        "formulas": {"derivative-action-tau-odd"},
        "commutators": {"bracket"}, "gamma": {"composition-jordan"}}),
    (_plant_classical_index_off_by_one, SINGULAR_N3, {
        "formulas": {"classical-vs-permutation"}, "commutators": set(), "gamma": set()}),
    (_loewy_layers_swapped("L7", "L5'"), ("all_equal_n3.json", 4), {"n3": {"loewy-monotone"}}),
    # a coverage gap: the swap turns no generator step in the window into a climb
    (_loewy_layers_swapped("L3", "L7"), ("all_equal_n3.json", 4), {"n3": set()}),
    # canonicalize's Der(z) -> -Der(tau(z)) meets a tau-fixed shift, which
    # fails the bracket that raises it
    (_plant_tau_wrong_positions, ("singular_n4_row3.json", 0), {
        "formulas": set(), "commutators": {"bracket"},
        "gamma": {"jordan-offdiagonal-nonzero", "jordan-square-zero", "regular-eigenvector"}}),
    (_plant_structure_constant_dropped, SINGULAR_N3, {
        "formulas": set(), "commutators": {"bracket"}, "gamma": set()}),
    # formulas and gamma end on the pole they meet, each as one failed check
    (_plant_tau_fixed_never, SINGULAR_N3, {
        "formulas": {"evaluation"}, "commutators": set(),
        "gamma": {"evaluation", "jordan-offdiagonal-nonzero", "tau-unfixed-multiplicity-two"}}),
    # formulas ends on the pole a wrong memo hit puts at a tau-unfixed shift
    (_plant_memo_key_drops_a_row, SINGULAR_N3, {
        "formulas": {"perm-action-vs-phi-set", "evaluation"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    # coeff_ratfun multiplies out the factor lists of the unscaled rows and
    # shares no fold with coeff_e, so jet-vs-ratfun sees a fold defect
    (_plant_pure_t_factor_keeps_v, SINGULAR_N3, {
        "formulas": {"jet-vs-ratfun"}, "commutators": {"bracket"},
        "gamma": {"composition-jordan", "witness-step2"}}),
    # only the formulas oracle builds a RatFun; it ends on the first
    # removable pole at t = 0 left uncancelled, as one failed check
    (_plant_gcd_skipped, SINGULAR_N3, {
        "formulas": {"evaluation"}, "commutators": set(), "gamma": set()}),
], ids=["diagonal-constant-unscaled", "swap-one-short", "shift-without-scale",
        "shift-without-scale-generic", "numerators-not-rescaled", "d-ev-swapped",
        "move-on-wrong-row", "gamma-d-negated", "der-sign-dropped",
        "classical-index-off-by-one", "loewy-layers-swapped", "loewy-l3-l7-swapped",
        "tau-wrong-positions", "structure-constant-dropped", "tau-fixed-never",
        "memo-key-drops-a-row", "pure-t-factor-keeps-v", "ratfun-gcd-skipped"])
def test_planted_kernel_defect_is_caught(monkeypatch, plant, config, kinds):
    """A planted defect fails exactly the recorded check kinds of each suite
    on the given fixture and window (a suite with none recorded passes)."""
    plant(monkeypatch)
    name, window = config
    cfg = _cfg(name, window=window)
    seen = {}
    for suite in kinds:
        report = run_suite(suite, cfg)
        failing = _failing_kinds(report.by_kind)
        assert (report.failed > 0) == bool(failing)
        # an error that ends a suite always shows among its exemplars
        assert ("evaluation" in failing) == any(
            ex["check"] == "evaluation" for ex in report.exemplars)
        seen[suite] = set(failing)
    assert seen == kinds


def test_exemplars_are_the_first_failing_brackets(monkeypatch):
    """Each exemplar is built while the sweep is at its input: under a
    planted defect, the five exemplars are the first five failing brackets
    in sweep order, recomputed here under the same plant."""
    _plant_unscaled_diagonal_constant(monkeypatch)
    cfg = _cfg("singular_n3.json", window=1)
    report = run_suite("commutators", cfg)
    assert report.failed == 81
    mod = verify.module_for(cfg)
    gens = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    first = []
    for sym in mod.sweep(verify.window_symbols(cfg)):
        for g1, g2 in itertools.combinations(gens, 2):
            defect = mod.bracket_defect(g1, g2, sym)
            if not defect.is_zero and len(first) < 5:
                first.append({"check": "bracket", "input": f"[E{g1}, E{g2}] on {sym!r}",
                              "defect": str(defect)})
    assert report.exemplars == first
    assert len({ex["input"].partition(" on ")[2] for ex in first}) > 1


def test_exemplars_name_distinct_inputs(monkeypatch):
    """Five failures at five different coefficients give five exemplars
    naming five different inputs, not the last input five times."""
    _plant_shift_without_scale(monkeypatch)
    report = run_suite("formulas", _cfg("singular_n3.json", window=1))
    inputs = [ex["input"] for ex in report.exemplars]
    assert {ex["check"] for ex in report.exemplars} == {"perm-action-vs-phi-set"}
    assert len(set(inputs)) == len(inputs) == 5


def test_export_diagonal_generator_is_diagonal():
    cfg = _cfg("generic_n3.json", window=1)
    matrix = build_action_matrix(cfg, "E", (1, 1))
    assert matrix["operator"] == "E(1,1)"
    for col, rows in matrix["entries"].items():
        assert list(rows) == [col]


def test_export_c22_block_structure_singular():
    cfg = _cfg("singular_n3.json", window=1)
    matrix = build_action_matrix(cfg, "c", (2, 2))
    for col, rows in matrix["entries"].items():
        if col.startswith("Reg"):
            assert list(rows) == [col]  # eigenvector: 1x1 block
        else:
            partners = set(rows)
            assert col in partners and len(partners) <= 2
            for other in partners - {col}:
                assert other.startswith("Reg")


def test_export_roundtrip(tmp_path):
    cfg = _cfg("singular_n3.json", window=1)
    paths = export_action(cfg, [("E", (2, 1)), ("E", (1, 2)), ("c", (2, 2))], tmp_path)
    assert sorted(p.name for p in paths) == ["E_1_2.json", "E_2_1.json", "c_2_2.json"]
    for path in paths:
        reloaded = json.loads(path.read_text(encoding="utf-8"))
        kind, a, b = reloaded["operator"][0], *map(int, (reloaded["operator"][2], reloaded["operator"][4]))
        rebuilt = build_action_matrix(cfg, kind, (a, b))
        assert reloaded == rebuilt
        # entries parse back to exact rationals
        for rows in reloaded["entries"].values():
            for value in rows.values():
                Fraction(value)


def test_cli_pass_and_fail_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = cli_main(["commutators", "--config", str(FIXTURES / "singular_n3.json"),
                     "--window", "1", "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["failed"] == 0
    assert data["suite"] == "commutators"

    original = coeffs.coeff_e

    def corrupted(r, s, w):
        value = original(r, s, w)
        return -value if s == r + 1 else value

    monkeypatch.setattr(coeffs, "coeff_e", corrupted)
    code = cli_main(["commutators", "--config", str(FIXTURES / "singular_n3.json"),
                     "--window", "1"])
    assert code == 1


def test_cli_empty_window_is_not_a_pass(capsys, monkeypatch):
    monkeypatch.setattr(verify, "window_symbols", lambda cfg: [])
    code = cli_main(["commutators", "--config", str(FIXTURES / "singular_n3.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "checked=0" in out and out.rstrip().endswith("FAIL")


def test_cli_subprocess_smoke():
    # the child imports the same gtmod as this process, installed or not
    src = str(Path(gtmod.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gtmod.cli", "gamma",
         "--config", str(FIXTURES / "singular_n3.json"), "--window", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "[gamma]" in proc.stdout and "PASS" in proc.stdout


def test_config_validation():
    with pytest.raises(ValueError):
        Config.from_dict({"n": 4, "base": "(0,0,0|0,0|0)"})
    with pytest.raises(ValueError):
        run_suite("nonsense", _cfg("generic_n3.json"))


@pytest.mark.parametrize("n, base, frame, match", [
    (3, lambda: fixtures.frame_all_equal().vbar, fixtures.frame_n3, "is not the config's base"),
    (4, lambda: fixtures.frame_n3().vbar, fixtures.frame_n3, "base tableau has 3 rows"),
    (3, fixtures.generic_base_n3, fixtures.frame_n3, "is not the config's base"),
], ids=["other-base-point", "rank-mismatch", "generic-base-with-frame"])
def test_config_parts_must_agree(n, base, frame, match):
    """A Config built in Python, as the benchmark builds its n = 4 sweep,
    has a base of n rows and a frame over that base."""
    with pytest.raises(ValueError, match=match):
        Config(n=n, base=base(), frame=frame(), window=0)


def test_planted_gamma_defect_is_caught(monkeypatch):
    original = coeffs.gamma

    def planted(r, s, w):
        d, ev = original(r, s, w)
        return (d, ev + 1) if (r, s) == (2, 2) else (d, ev)

    monkeypatch.setattr(coeffs, "gamma", planted)
    for name, kind in (("singular_n3.json", "composition-jordan"),
                       ("generic_n3.json", "composition-eigenvalue")):
        report = run_suite("gamma", _cfg(name, window=1))
        assert not report.ok
        assert report.exemplars[0]["check"] == kind
        assert report.exemplars[0]["input"].startswith("c(2,2) on ")


def _cli_error(capsys, path, *extra, suite="gamma"):
    code = cli_main([suite, "--config", str(path), *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_cli_missing_config_exits_2(tmp_path, capsys):
    line = _cli_error(capsys, tmp_path / "absent.json")
    assert "No such file" in line


def test_cli_bad_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"n\": 3,", encoding="utf-8")
    _cli_error(capsys, path)


def test_unknown_suite_in_config_is_rejected(tmp_path, capsys):
    data = json.loads((FIXTURES / "generic_n3.json").read_text(encoding="utf-8"))
    data["suites"] = ["gamma", "bogus"]
    with pytest.raises(ValueError, match="bogus"):
        Config.from_dict(data)
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "bogus" in _cli_error(capsys, path)


def test_ragged_base_tableau_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="row 3 has 2 entries"):
        Tableau.from_text("(0,1|2,3|4)")
    data = json.loads((FIXTURES / "generic_n3.json").read_text(encoding="utf-8"))
    data["base"] = "(0,1|2,3|4)"
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "row 3 has 2 entries" in _cli_error(capsys, path)


def test_cli_unwritable_json_fails_before_the_suite(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    line = _cli_error(capsys, FIXTURES / "generic_n3.json",
                      "--window", "0", "--json", str(out))
    assert line.startswith(f"error: {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("key, value", [
    ("window", -1),
], ids=["negative-window"])
def test_config_range_is_checked(tmp_path, capsys, key, value):
    data = json.loads((FIXTURES / "generic_n3.json").read_text(encoding="utf-8"))
    data[key] = value
    with pytest.raises(ValueError, match="out of range"):
        Config.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "out of range" in _cli_error(capsys, path)


@pytest.mark.parametrize("patch, match", [
    (lambda data: {**data, "n": None}, "n must be an integer"),
    (lambda data: {**data, "base": 5}, "base must be a tableau string"),
    (lambda data: [data["n"], data["base"]], "JSON object"),
    (lambda data: {**data, "seed": None}, "seed must be an integer"),
    (lambda data: {**data, "window": 2.7}, "window must be an integer, got 2.7"),
    (lambda data: {**data, "seed": 1.5}, "seed must be an integer, got 1.5"),
    (lambda data: {**data, "window": True}, "window must be an integer, got True"),
    (lambda data: {**data, "n": 3.0}, "n must be an integer, got 3.0"),
    (lambda data: {**data, "suites": "gamma"}, "suites must be a list of suite names"),
    (lambda data: {**data, "frame": [2, 1]}, "frame must be a list of 3 integers"),
    (lambda data: {**data, "frame": [2, 1, 2.0]}, "frame must be a list of 3 integers"),
    (lambda data: {**data, "base": "(0,0,0|0,0|0)"}, "is not generic, and no frame is given"),
    (lambda data: {**data, "base": "(2,1/0,-5/3|1/4,7/10|1/7)"},
     "entry '1/0' has a zero denominator"),
    (lambda data: {**data, "windw": 1, "out_dir": "reports"},
     "unknown key(s) ['windw', 'out_dir']"),
], ids=["null-n", "numeric-base", "top-level-list", "null-seed", "float-window", "float-seed",
        "boolean-window", "float-n", "suites-string", "short-frame", "float-frame",
        "frameless-singular-base", "zero-denominator", "unknown-key"])
def test_config_types_are_checked(tmp_path, capsys, patch, match):
    data = patch(json.loads((FIXTURES / "generic_n3.json").read_text(encoding="utf-8")))
    with pytest.raises(ValueError, match=re.escape(match)):
        Config.from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert match in _cli_error(capsys, path)


def test_planted_sign_flip_fails_the_finite_dim_sweep(monkeypatch):
    original = coeffs.coeff_e

    def corrupted(r, s, w):
        value = original(r, s, w)
        return -value if s == r + 1 else value

    monkeypatch.setattr(coeffs, "coeff_e", corrupted)
    tally = Tally()
    sweep_finite_dim(tally)
    assert tally.failed > 0
    assert {ex["check"] for ex in tally.exemplars} == {"finite-dim-bracket", "finite-dim-gamma"}


def test_finite_action_keeping_non_standard_targets_fails_the_span_check(monkeypatch):
    def keep_every_target(self, l, m, z):
        return LinComb.sum_terms((z + dz, fn.const_value())
                                 for fn, dz in self.perm_terms(l, m, z))

    monkeypatch.setattr(finite.FiniteModule, "_act_uncached", keep_every_target)
    tally = Tally()
    # the span check fails first; a later bracket then meets a vanishing
    # denominator on a non-standard tableau and ends the sweep
    with pytest.raises(ZeroDivisionError):
        sweep_finite_dim(tally)
    assert tally.failed > 0
    assert {ex["check"] for ex in tally.exemplars} == {"finite-dim-span"}


@pytest.mark.parametrize("plant, kinds", [
    (_plant_swap_one_short, {"finite-dim-bracket", "finite-dim-gamma"}),
    (_plant_numerators_not_rescaled, {"finite-dim-bracket", "finite-dim-gamma"}),
    (_plant_structure_constant_dropped, {"finite-dim-bracket"}),
    (_plant_memo_key_drops_a_row, {"finite-dim-bracket", "finite-dim-gamma"}),
], ids=["swap-one-short", "numerators-not-rescaled", "structure-constant-dropped",
        "memo-key-drops-a-row"])
def test_planted_defect_fails_the_finite_dim_sweep(monkeypatch, plant, kinds):
    """The planted defects that the formulas suite caught only through the
    gl(3) regression, before it moved here, fail exactly these kinds of it."""
    plant(monkeypatch)
    tally = Tally()
    sweep_finite_dim(tally)
    assert _failing_kinds(tally.by_kind) == kinds


def test_formulas_on_a_rank_one_base_checks_e11():
    """n = 1 has one basis tableau, whatever the window, and one generator:
    E_11's coefficient against its whole function, the memo and the
    classical formula."""
    report = run_suite("formulas", Config.from_dict({"n": 1, "base": "(0)", "window": 0}))
    assert report.ok and report.checked == 3
    once = {"checked": 1, "failed": 0}
    assert report.by_kind == {"jet-vs-ratfun": once, "perm-action-vs-phi-set": once,
                              "classical-vs-permutation": once}


def test_overrides_are_checked_like_config_values(capsys):
    cfg = _cfg("generic_n3.json")
    for window, seed, match in ((2.5, None, "window must be an integer"),
                                (None, True, "seed must be an integer"),
                                (-1, None, "out of range")):
        with pytest.raises(ValueError, match=match):
            cfg.with_overrides(window=window, seed=seed)
    ok = cfg.with_overrides(window=0, seed=7)
    assert (ok.window, ok.seed) == (0, 7)
    line = _cli_error(capsys, FIXTURES / "generic_n3.json", "--window", "-1")
    assert line.endswith("out of range for n=3: window=-1")


@pytest.mark.parametrize("name, match", [
    ("singular_n3.json", "needs the all-equal base point"),
    ("generic_n3.json", "needs a singular n=3 config"),
])
def test_cli_n3_precondition_exits_2(tmp_path, capsys, name, match):
    out = tmp_path / "r.json"
    line = _cli_error(capsys, FIXTURES / name, "--json", str(out), suite="n3")
    assert line == f"error: {FIXTURES / name}: the ten-piece suite {match}"
    assert not out.exists()


@pytest.mark.parametrize("window, growth", [(0, 0), (2, 0), (3, 3)])
def test_n3_growth_reads_the_configured_window(window, growth):
    """``l7-weight-growth`` compares the windows W - 2, W - 1 and W: below
    W = 3 no L7 weight shows growth, and the suite rests on the layer order
    alone."""
    report = run_suite("n3", _cfg("all_equal_n3.json", window=window))
    assert report.ok
    assert report.by_kind.get("l7-weight-growth", {"checked": 0, "failed": 0}) == {
        "checked": growth, "failed": 0}


def test_cli_error_inside_a_sweep_is_not_a_config_error(monkeypatch, capsys):
    def broken(z):
        raise ValueError("planted")

    monkeypatch.setattr(verify, "classify_shift", broken)
    code = cli_main(["n3", "--config", str(FIXTURES / "all_equal_n3.json"), "--window", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed=1" in out and out.count("exemplar") == 1
    assert "'check': 'evaluation', 'detail': 'raised ValueError: planted'" in out
