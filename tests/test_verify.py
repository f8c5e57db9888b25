"""Verification harness: suites, reports, determinism, export, CLI."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import gtmod
import gtmod.coeffs as coeffs
from gtmod import core, singular, verify
from gtmod.cli import main as cli_main
from gtmod.lincomb import LinComb
from gtmod.tableaux import Tableau
from gtmod.verify import (
    Config, Tally, build_action_matrix, check_commutators, check_formulas, check_gamma,
    check_n3, export_action, load_action_matrix, run_suite, sweep_finite_dim,
)

FIXTURES = "fixtures"


def _cfg(name, **overrides):
    cfg = Config.from_file(f"{FIXTURES}/{name}")
    return cfg.with_overrides(**overrides) if overrides else cfg


def test_commutators_pass_generic_and_singular():
    for name in ("generic_n3.json", "singular_n3.json"):
        report = check_commutators(_cfg(name, window=1))
        assert report.ok
        assert report.checked == 27 * 36
        assert report.exemplars == []


def test_gamma_suite_passes_both_singular_frames():
    for name in ("singular_n3.json", "all_equal_n3.json"):
        report = check_gamma(_cfg(name, window=2))
        assert report.ok


def test_gamma_suite_passes_generic():
    report = check_gamma(_cfg("generic_n3.json", window=1))
    assert report.ok


def test_n3_suite_passes():
    report = check_n3(_cfg("all_equal_n3.json", window=2))
    assert report.ok


@pytest.mark.parametrize("name, counts", [
    ("generic_n3", {"commutators": 972, "gamma": 147, "formulas": 1017}),
    ("singular_n3", {"commutators": 972, "gamma": 307, "formulas": 3465}),
    ("all_equal_n3", {"commutators": 972, "gamma": 267, "n3": 39}),
    ("singular_n4", {"commutators": 120, "gamma": 245}),
    ("singular_n4_row3", {"commutators": 120, "gamma": 245}),
])
def test_report_counts_are_pinned(name, counts):
    """Every configured suite at the fixture seed, window 1 on n = 3 and 0
    on n = 4: all checks pass, and their number does not move."""
    cfg = _cfg(f"{name}.json")
    cfg = cfg.with_overrides(window=1 if cfg.n == 3 else 0)
    checked = {}
    for suite in cfg.suites:
        report = run_suite(suite, cfg)
        assert report.failed == 0 and report.exemplars == []
        checked[suite] = report.checked
    assert checked == counts


def test_n3_suite_rejects_wrong_frame():
    with pytest.raises(ValueError):
        check_n3(_cfg("singular_n3.json"))
    with pytest.raises(ValueError):
        check_n3(_cfg("generic_n3.json"))


def test_report_schema_and_determinism(tmp_path):
    cfg = _cfg("singular_n3.json", window=1)
    r1 = check_gamma(cfg)
    r2 = check_gamma(cfg)
    d1, d2 = r1.to_dict(), r2.to_dict()
    assert set(d1) == {"suite", "frame", "window", "checked", "passed",
                       "failed", "exemplars", "seed", "elapsed_ms"}
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # a different seed still passes but may sample different inputs
    r3 = check_gamma(cfg.with_overrides(seed=7))
    assert r3.ok and r3.seed == 7


def test_corrupted_coefficient_is_caught(monkeypatch):
    original = coeffs.coeff_e

    def corrupted(r, s, w):
        value = original(r, s, w)
        if s == r + 1:  # flip the sign of every adjacent raising coefficient
            return -value
        return value

    monkeypatch.setattr(coeffs, "coeff_e", corrupted)
    report = check_commutators(_cfg("singular_n3.json", window=1))
    assert not report.ok
    assert report.failed > 0
    assert report.exemplars, "failures must carry exemplars"
    assert "input" in report.exemplars[0]


def test_dropped_prefactor_fails_the_evaluation_crosscheck(monkeypatch):
    monkeypatch.setattr(singular, "XY_SLOPE", 1)  # (x - y) taken as t, not 2t
    report = check_formulas(_cfg("singular_n3.json", window=1))
    assert not report.ok
    assert report.failed == 162
    assert {ex["check"] for ex in report.exemplars} == {"regular-action-ev-crosscheck"}


def test_planted_valuation_off_by_one_is_caught(monkeypatch):
    original = coeffs.coeff_e

    def planted(r, s, w):  # a pure-t denominator factor left out of v
        jet = original(r, s, w)
        return jet._replace(v=jet.v + 1) if jet.v < 0 else jet

    monkeypatch.setattr(coeffs, "coeff_e", planted)
    cfg = _cfg("singular_n3.json", window=1)
    formulas = check_formulas(cfg)
    assert formulas.failed > 0
    assert {ex["check"] for ex in formulas.exemplars} == {"jet-vs-ratfun"}
    commutators = check_commutators(cfg)
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


def _plant_shift_without_scale(monkeypatch):
    real = core.tableau_at

    def planted(self, z):  # B + z instead of B + L*z
        return real(SimpleNamespace(base=self.base._replace(scale=1)), z)._replace(
            scale=self.base.scale)

    monkeypatch.setattr(singular.SingularModule, "tableau_at", planted)


def _plant_numerators_not_rescaled(monkeypatch):
    real = LinComb.from_ratios

    def planted(triples):  # every numerator read as if over the common denominator
        triples = list(triples)
        den = math.lcm(*[d for _, _, d in triples])
        return real((key, num, den) for key, num, _ in triples)

    monkeypatch.setattr(LinComb, "from_ratios", staticmethod(planted))


def _plant_d_ev_swapped(monkeypatch):
    real = coeffs.Jet.d_ev_ratios
    monkeypatch.setattr(coeffs.Jet, "d_ev_ratios", lambda self: real(self)[::-1])


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


JORDAN_EIGEN = {"composition-jordan", "jordan-square-zero", "regular-eigenvector"}


@pytest.mark.parametrize("plant, kinds", [
    (_plant_unscaled_diagonal_constant, {
        "formulas": {"classical-vs-permutation", "jet-vs-ratfun"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    (_plant_swap_one_short, {
        "formulas": {"classical-vs-permutation", "finite-dim-bracket", "finite-dim-gamma",
                     "perm-action-vs-phi-set", "regular-action-tau-even",
                     "derivative-action-tau-odd"},
        "commutators": {"bracket"}, "gamma": {"composition-jordan"}}),
    (_plant_shift_without_scale, {
        "formulas": {"perm-action-vs-phi-set"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN | {"jordan-offdiagonal-model"}}),
    (_plant_numerators_not_rescaled, {
        "formulas": {"finite-dim-bracket", "finite-dim-gamma"},
        "commutators": {"bracket"}, "gamma": JORDAN_EIGEN}),
    (_plant_d_ev_swapped, {
        "formulas": {"jet-vs-ratfun", "regular-action-tau-even", "derivative-action-tau-odd",
                     "regular-action-ev-crosscheck"},
        "commutators": {"bracket"},
        "gamma": JORDAN_EIGEN | {"connectivity", "witness-derivative-closed-form",
                                 "witness-step3"}}),
    (_plant_gamma_d_negated, {
        "formulas": set(), "commutators": set(),
        "gamma": {"composition-jordan", "jordan-offdiagonal-model"}}),
    (_plant_der_sign_dropped, {
        "formulas": {"derivative-action-tau-odd"},
        "commutators": {"bracket"}, "gamma": {"composition-jordan"}}),
], ids=["diagonal-constant-unscaled", "swap-one-short", "shift-without-scale",
        "numerators-not-rescaled", "d-ev-swapped", "gamma-d-negated", "der-sign-dropped"])
def test_planted_kernel_defect_is_caught(monkeypatch, plant, kinds):
    """A planted defect fails exactly the recorded check kinds of each suite
    on singular_n3 at window 1 (a suite with none recorded passes)."""
    failing: set[str] = set()
    check = Tally.check

    def recording(self, ok, kind, detail):
        if not ok:
            failing.add(kind)
        return check(self, ok, kind, detail)

    monkeypatch.setattr(Tally, "check", recording)
    plant(monkeypatch)
    cfg = _cfg("singular_n3.json", window=1)
    seen = {}
    for suite in kinds:
        failing.clear()
        report = run_suite(suite, cfg)
        assert (report.failed > 0) == bool(failing)
        seen[suite] = set(failing)
    assert seen == kinds


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
    from dataclasses import replace
    cfg = replace(_cfg("singular_n3.json", window=1),
                  out_dir=str(tmp_path),
                  export_generators=((2, 1), (1, 2)),
                  export_crs=((2, 2),))
    paths = export_action(cfg)
    assert sorted(p.name for p in paths) == ["E_1_2.json", "E_2_1.json", "c_2_2.json"]
    for path in paths:
        reloaded = load_action_matrix(path)
        kind, a, b = reloaded["operator"][0], *map(int, (reloaded["operator"][2], reloaded["operator"][4]))
        rebuilt = build_action_matrix(cfg, kind, (a, b))
        assert reloaded == rebuilt
        # entries parse back to exact rationals
        for rows in reloaded["entries"].values():
            for value in rows.values():
                Fraction(value)


def test_cli_pass_and_fail_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    code = cli_main(["commutators", "--config", f"{FIXTURES}/singular_n3.json",
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
    code = cli_main(["commutators", "--config", f"{FIXTURES}/singular_n3.json",
                     "--window", "1"])
    assert code == 1


def test_cli_empty_window_is_not_a_pass(capsys, monkeypatch):
    monkeypatch.setattr(verify, "window_symbols", lambda cfg: [])
    code = cli_main(["commutators", "--config", f"{FIXTURES}/singular_n3.json"])
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
         "--config", f"{FIXTURES}/singular_n3.json", "--window", "1"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "[gamma]" in proc.stdout and "PASS" in proc.stdout


def test_config_validation():
    with pytest.raises(ValueError):
        Config.from_dict({"n": 4, "base": "(0,0,0|0,0|0)"})
    with pytest.raises(ValueError):
        run_suite("nonsense", _cfg("generic_n3.json"))


def test_planted_gamma_defect_is_caught(monkeypatch):
    original = coeffs.gamma_at_point

    def planted(r, s, entries):
        value = original(r, s, entries)
        return value + 1 if (r, s) == (2, 2) else value

    monkeypatch.setattr(coeffs, "gamma_at_point", planted)
    for name, kind in (("singular_n3.json", "composition-jordan"),
                       ("generic_n3.json", "composition-eigenvalue")):
        report = check_gamma(_cfg(name, window=1))
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
    data = json.loads(open(f"{FIXTURES}/generic_n3.json", encoding="utf-8").read())
    data["suites"] = ["gamma", "bogus"]
    with pytest.raises(ValueError, match="bogus"):
        Config.from_dict(data)
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "bogus" in _cli_error(capsys, path)


def test_ragged_base_tableau_is_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="row 3 has 2 entries"):
        Tableau.from_text("(0,1|2,3|4)")
    data = json.loads(open(f"{FIXTURES}/generic_n3.json", encoding="utf-8").read())
    data["base"] = "(0,1|2,3|4)"
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert "row 3 has 2 entries" in _cli_error(capsys, path)


def test_cli_unwritable_json_fails_before_the_suite(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    line = _cli_error(capsys, f"{FIXTURES}/generic_n3.json",
                             "--window", "0", "--json", str(out))
    assert line.startswith(f"error: {out}: ")
    assert not out.parent.exists()


@pytest.mark.parametrize("key, value", [
    ("window", -1),
    ("export_generators", [[1, 2], [0, 1]]),
    ("export_generators", [[1, 4]]),
    ("export_crs", [[4, 2]]),
    ("export_crs", [[2, 0]]),
], ids=["negative-window", "generator-index", "generator-index-high", "crs-r", "crs-s"])
def test_config_range_is_checked(tmp_path, capsys, key, value):
    data = json.loads(open(f"{FIXTURES}/generic_n3.json", encoding="utf-8").read())
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
    (lambda data: {**data, "export_crs": [[2, "2"]]}, "export_crs must be a list of 2 integers"),
    (lambda data: {**data, "export_generators": "12"}, "export_generators must be a list of"),
    (lambda data: {**data, "out_dir": 5}, "out_dir must be a path string"),
], ids=["null-n", "numeric-base", "top-level-list", "null-seed", "float-window", "float-seed",
        "boolean-window", "float-n", "suites-string", "short-frame", "float-frame",
        "string-crs-index", "string-generators", "numeric-out-dir"])
def test_config_types_are_checked(tmp_path, capsys, patch, match):
    data = patch(json.loads(open(f"{FIXTURES}/generic_n3.json", encoding="utf-8").read()))
    with pytest.raises(ValueError, match=match):
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


def test_overrides_are_checked_like_config_values(capsys):
    cfg = _cfg("generic_n3.json")
    for window, seed, match in ((2.5, None, "window must be an integer"),
                                (None, True, "seed must be an integer"),
                                (-1, None, "out of range")):
        with pytest.raises(ValueError, match=match):
            cfg.with_overrides(window=window, seed=seed)
    ok = cfg.with_overrides(window=0, seed=7)
    assert (ok.window, ok.seed) == (0, 7)
    line = _cli_error(capsys, f"{FIXTURES}/generic_n3.json", "--window", "-1")
    assert line.endswith("out of range for n=3: window=-1")


@pytest.mark.parametrize("name, match", [
    ("singular_n3.json", "needs the all-equal base point"),
    ("generic_n3.json", "needs a singular n=3 config"),
])
def test_cli_n3_precondition_exits_2(tmp_path, capsys, name, match):
    out = tmp_path / "r.json"
    line = _cli_error(capsys, f"{FIXTURES}/{name}", "--json", str(out), suite="n3")
    assert line == f"error: {FIXTURES}/{name}: the ten-piece suite {match}"
    assert not out.exists()


def test_cli_error_inside_a_sweep_is_not_a_config_error(monkeypatch):
    def broken(z):
        raise ValueError("planted")

    monkeypatch.setattr(verify, "classify_shift", broken)
    with pytest.raises(ValueError, match="planted"):
        cli_main(["n3", "--config", f"{FIXTURES}/all_equal_n3.json", "--window", "0"])
