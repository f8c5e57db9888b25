"""Acceptance criteria, one test per criterion, all exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its timing.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from gtmod import fixtures
from gtmod.finite import FiniteModule, standard_tableaux, weyl_dimension
from gtmod.generic import GenericModule
from gtmod.lincomb import LinComb
from gtmod.n3 import classify_shift, weight_key
from gtmod.singular import (
    REG, SingularModule, canonical_window, generation_witnesses,
    irreducibility_hypothesis,
)
from gtmod.tableaux import ShiftVector, window_shifts
from gtmod.verify import (
    Config, Tally, check_commutators, check_n3, sweep_classical_vs_perm,
    sweep_coefficient_identities, sweep_finite_dim,
)

SEED = 20240601


def _announce(num, description, started, ok):
    verdict = "PASS" if ok else "FAIL"
    ms = int((time.perf_counter() - started) * 1000)
    print(f"ACCEPTANCE {num}: {verdict} ({ms} ms) - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def singular_mod():
    return SingularModule(fixtures.frame_n3())


@pytest.fixture(scope="module")
def all_equal_mod():
    return SingularModule(fixtures.frame_all_equal(0))


def test_criterion_1_bracket_suite_generic():
    started = time.perf_counter()
    cfg = Config(n=3, base=fixtures.generic_base_n3(), frame=None, window=2, seed=SEED)
    report = check_commutators(cfg)
    ok = report.ok and report.checked == 125 * 36
    _announce(1, "generic bracket relations, n=3, window 2, all 36 pairs",
              started, ok)


def test_criterion_2_bracket_suite_singular():
    started = time.perf_counter()
    ok = True
    for frame in (fixtures.frame_all_equal(0), fixtures.frame_n3()):
        cfg = Config(n=3, base=frame.vbar, frame=frame, window=2, seed=SEED)
        report = check_commutators(cfg)
        ok = ok and report.ok and report.checked == 125 * 36
    _announce(2, "singular bracket relations on both reference frames, window 2",
              started, ok)


def test_criterion_3_classical_vs_permutation():
    started = time.perf_counter()
    tally = Tally()
    sweep_classical_vs_perm(tally, random.Random(SEED), samples=100)
    _announce(3, "classical vs permutation presentation on 100 random generic "
              "tableaux (n <= 4)", started, tally.failed == 0 and tally.checked >= 300)


def test_criterion_4_central_family(singular_mod):
    started = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    gen = GenericModule(fixtures.generic_base_n3())
    for (r, s) in [(r, s) for r in range(1, 4) for s in range(1, r + 1)]:
        for _ in range(20):
            z = fixtures.random_shift(rng, 3, bound=2)
            got = gen.crs_via_composition(r, s, LinComb.single(z))
            ok = ok and got == LinComb.single(z, gen.gamma_eigenvalue(r, s, z))
    window = canonical_window(singular_mod.frame, 2)
    for (r, s) in [(r, s) for r in range(1, 4) for s in range(1, r + 1)]:
        for _ in range(20):
            sym = rng.choice(window)
            x = LinComb.single(sym)
            ok = ok and (singular_mod.crs_via_composition(r, s, x)
                         == singular_mod.gamma_action(r, s, x))
    _announce(4, "composed central words equal closed-form eigenvalues (generic) "
              "and the triangular action (singular), s <= r <= 3", started, ok)


def test_criterion_5_jordan_cell(singular_mod):
    started = time.perf_counter()
    frame = singular_mod.frame
    rng = random.Random(SEED)
    k = frame.k
    ok = True
    seen = 0
    while seen < 20:
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame.is_tau_fixed(z):
            continue
        seen += 1
        gam = singular_mod.gamma_value(k, 2, z)
        der = singular_mod.der(z)
        once = singular_mod.crs_via_composition(k, 2, der) - gam * der
        twice = singular_mod.crs_via_composition(k, 2, once) - gam * once
        ok = ok and (not once.is_zero) and twice.is_zero
    _announce(5, "(c - gamma) nonzero and (c - gamma)^2 zero on 20 random "
              "derivative symbols", started, ok)


def test_criterion_6_multiplicity_bound(singular_mod):
    started = time.perf_counter()
    frame = singular_mod.frame
    ok = True
    count = 0
    for char, syms in singular_mod.character_classes(3).items():
        count += len(syms)
        fixed = any(s.kind == REG and frame.is_tau_fixed(s.shift) for s in syms)
        ok = ok and len(syms) <= 2 and (len(syms) == 1) == fixed
    ok = ok and count == 7 ** 3
    _announce(6, "eigenvalue classes have size <= 2, size 1 exactly on "
              "swap-fixed shifts, exhaustive window 3", started, ok)


def test_criterion_7_ten_piece_decomposition():
    started = time.perf_counter()
    frame = fixtures.frame_all_equal(0)
    cfg = Config(n=3, base=frame.vbar, frame=frame, window=4, seed=SEED)
    report = check_n3(cfg)
    ok = report.ok
    # spot-check the published classifications
    ok = ok and classify_shift(ShiftVector(3, ((0, 0), (0,)))) == "L1"
    ok = ok and classify_shift(ShiftVector(3, ((1, 0), (0,)))) == "L5'"
    ok = ok and classify_shift(ShiftVector(3, ((-1, 2), (1,)))) == "L7"
    _announce(7, "ten-piece classification total on window 4, action respects "
              "the layer order, infinite-multiplicity pieces grow", started, ok)


def test_criterion_8_finite_dimensional_regression():
    started = time.perf_counter()
    tally = Tally()
    sweep_finite_dim(tally)
    lam = (2, 1, 0)
    ok = (tally.failed == 0
          and len(standard_tableaux(lam)) == 8
          and weyl_dimension(lam) == 8
          and FiniteModule(lam).dimension == 8)
    _announce(8, "gl(3), weight (2,1,0): 8 standard tableaux, span preserved, "
              "brackets and central eigenvalues exact", started, ok)


def test_criterion_9_coefficient_identities():
    started = time.perf_counter()
    frame = fixtures.frame_n3()
    cfg = Config(n=3, base=frame.vbar, frame=frame, window=2, seed=SEED)
    tally = Tally()
    sweep_coefficient_identities(cfg, tally)
    _announce(9, "pole bound, parity, point-operator exchange rules and swap "
              "compatibility, exhaustive n=3 window 2", started,
              tally.failed == 0 and tally.checked > 5000)


def test_criterion_10_generation_witnesses():
    started = time.perf_counter()
    frame = fixtures.frame_n3()
    ok = irreducibility_hypothesis(frame)
    rng = random.Random(SEED)
    seen = 0
    while seen < 20:
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame.is_tau_fixed(z):
            continue
        seen += 1
        rep = generation_witnesses(frame, z)
        ok = (ok and rep["derivative_coefficient"] != 0
              and rep["derivative_coefficient"]
              == rep["derivative_coefficient_closed_form"]
              and rep["step2_ev_coefficient"] != 0
              and all(v != 0 for v in rep["step3_values"].values()))
    _announce(10, "generation-witness coefficients all nonzero under the "
              "irreducibility hypothesis", started, ok)
