"""Singular module: canonical basis, derivative action, Jordan structure."""

import itertools
import random
from fractions import Fraction

import pytest

from gtmod import coeffs, fixtures
from gtmod.lincomb import LinComb
from gtmod.singular import (
    DER, REG, BasisSymbol, InvariantViolation, SingularModule, canonical_window,
    canonicalize, connecting_shift, generation_witnesses, irreducibility_hypothesis,
)
from gtmod.tableaux import ShiftVector, window_shifts

F = Fraction


def sv3(m, n, k):
    return ShiftVector(3, ((m, n), (k,)))


def test_canonicalize_relations(frame_n3):
    sign, sym = canonicalize(REG, sv3(1, 0, 0), frame_n3)
    assert (sign, sym) == (1, BasisSymbol(REG, sv3(0, 1, 0)))
    sign, sym = canonicalize(DER, sv3(0, 1, 0), frame_n3)
    assert (sign, sym) == (-1, BasisSymbol(DER, sv3(1, 0, 0)))
    sign, sym = canonicalize(DER, sv3(0, 0, 5), frame_n3)
    assert sign == 0 and sym is None
    sign, sym = canonicalize(REG, sv3(-1, 2, 0), frame_n3)
    assert (sign, sym) == (1, BasisSymbol(REG, sv3(-1, 2, 0)))


def test_act_on_regular_lowering_examples():
    mod = SingularModule(fixtures.frame_all_equal(0))
    z0 = sv3(0, 0, 0)
    out = mod.act(2, 1, LinComb.single(BasisSymbol(REG, z0)))
    assert out == LinComb.single(BasisSymbol(REG, sv3(0, 0, -1)))
    out32 = mod.act(3, 2, LinComb.single(BasisSymbol(REG, z0)))
    assert out32 == LinComb.single(BasisSymbol(REG, sv3(-1, 0, 0)))


def test_act_on_derivative_example(frame_n3):
    mod = SingularModule(frame_n3)
    w = sv3(1, 0, 0)
    out = mod.act(2, 1, LinComb.single(BasisSymbol(DER, w)))
    assert out == LinComb.single(BasisSymbol(DER, sv3(1, 0, -1)))


def test_diagonal_action_is_triangular(frame_n3):
    mod = SingularModule(frame_n3)
    z = sv3(0, 0, 2)  # tau-fixed: pure eigenvector
    out = mod.act(2, 2, LinComb.single(BasisSymbol(REG, z)))
    row1 = frame_n3.vbar.base(1, 1) + 2
    assert out == LinComb.single(BasisSymbol(REG, z), mod.gamma_value(2, 1, z) - row1)
    # E_11 on a derivative symbol: constant coefficient, no Reg leak
    w = sv3(2, -1, 0)
    out2 = mod.act(1, 1, LinComb.single(BasisSymbol(DER, w)))
    assert out2 == LinComb.single(BasisSymbol(DER, w), mod.gamma_value(1, 1, w))


def test_act_on_derivative_requires_tau_unfixed(frame_n3):
    mod = SingularModule(frame_n3)
    with pytest.raises(ValueError):
        mod.act_on_derivative(1, 2, sv3(0, 0, 1))


def _divide_coefficients_by_t(monkeypatch, order: int):
    """Divide every coefficient e_lm by t**order: lower its jet's valuation."""
    real = coeffs.coeff_e

    def divided(l, m, w):
        jet = real(l, m, w)
        return jet._replace(v=jet.v - order)

    monkeypatch.setattr(coeffs, "coeff_e", divided)


def test_double_pole_on_regular_line_is_an_invariant_violation(frame_n3, monkeypatch):
    mod = SingularModule(frame_n3)
    _divide_coefficients_by_t(monkeypatch, 2)
    with pytest.raises(InvariantViolation):
        mod.act_on_regular(2, 1, sv3(1, 0, 0))


def test_pole_on_derivative_line_is_an_invariant_violation(frame_n3, monkeypatch):
    mod = SingularModule(frame_n3)
    _divide_coefficients_by_t(monkeypatch, 1)
    mod.act_on_regular(2, 1, sv3(1, 0, 0))  # 2t absorbs a simple pole
    with pytest.raises(InvariantViolation):
        mod.act_on_derivative(2, 1, sv3(1, 0, 0))


def test_evaluation_form_cross_check():
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        mod = SingularModule(frame)
        rng = random.Random(83)
        count = 0
        while count < 60:
            z = fixtures.random_shift(rng, 3, bound=2)
            if frame.is_tau_fixed(z):
                continue
            l, m = rng.randint(1, 3), rng.randint(1, 3)
            assert mod.act_on_regular(l, m, z) == mod.act_on_regular_by_evaluation(l, m, z)
            count += 1


def test_compatibility_across_the_swap():
    """The regular action is tau-even, the derivative action tau-odd."""
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        mod = SingularModule(frame)
        rng = random.Random(89)
        for _ in range(80):
            z = fixtures.random_shift(rng, 3, bound=2)
            l, m = rng.randint(1, 3), rng.randint(1, 3)
            tz = frame.tau(z)
            assert mod.act_on_regular(l, m, z) == mod.act_on_regular(l, m, tz)
            if not frame.is_tau_fixed(z):
                assert mod.act_on_derivative(l, m, z) == -mod.act_on_derivative(l, m, tz)


def test_linearity_of_singular_action(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(97)
    window = canonical_window(frame_n3, 2)
    for _ in range(50):
        a, b = rng.sample(window, 2)
        x = LinComb.single(a, F(rng.randint(-4, 4), rng.randint(1, 3)))
        y = LinComb.single(b, F(rng.randint(-4, 4), rng.randint(1, 3)))
        l, m = rng.randint(1, 3), rng.randint(1, 3)
        assert mod.act(l, m, x + y) == mod.act(l, m, x) + mod.act(l, m, y)


def test_bracket_relations_window1_both_frames():
    gens = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        mod = SingularModule(frame)
        for sym in canonical_window(frame, 1):
            for g1, g2 in itertools.combinations(gens, 2):
                assert mod.bracket_defect(g1, g2, sym).is_zero


def test_bracket_relations_sampled_n4():
    mod = SingularModule(fixtures.frame_n4())
    rng = random.Random(101)
    gens = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for _ in range(20):
        z = fixtures.random_shift(rng, 4, bound=1)
        kind = REG if z.get(2, 1) <= z.get(2, 2) else DER
        sym = BasisSymbol(kind, z)
        g1, g2 = rng.sample(gens, 2)
        assert mod.bracket_defect(g1, g2, sym).is_zero


def test_bracket_relations_sampled_n4_row3_pair():
    """Frame whose singular pair avoids position 1: the twisted-permutation
    branch of the coefficients is on the critical path here."""
    frame = fixtures.frame_n4_row3()
    mod = SingularModule(frame)
    rng = random.Random(211)
    gens = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for _ in range(20):
        z = fixtures.random_shift(rng, 4, bound=1)
        kind = REG if z.get(frame.k, frame.i) <= z.get(frame.k, frame.j) else DER
        sym = BasisSymbol(kind, z)
        g1, g2 = rng.sample(gens, 2)
        assert mod.bracket_defect(g1, g2, sym).is_zero


def test_bracket_relations_sampled_n5():
    from gtmod.tableaux import SingularFrame, Tableau
    frame = SingularFrame(2, 1, 2, Tableau.from_text(
        "(0,1,2,3,4|1/5,2/7,3/11,4/13|1/2,2/3,3/5|1/3,1/3|1/11)"))
    mod = SingularModule(frame)
    rng = random.Random(307)
    gens = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    for _ in range(10):
        z = fixtures.random_shift(rng, 5, bound=1)
        kind = REG if z.get(2, 1) <= z.get(2, 2) else DER
        sym = BasisSymbol(kind, z)
        g1, g2 = rng.sample(gens, 2)
        assert mod.bracket_defect(g1, g2, sym).is_zero


def test_jordan_and_compatibility_n4_row3_pair():
    frame = fixtures.frame_n4_row3()
    mod = SingularModule(frame)
    rng = random.Random(223)
    k = frame.k
    seen = 0
    while seen < 5:
        z = fixtures.random_shift(rng, 4, bound=1)
        if frame.is_tau_fixed(z):
            continue
        seen += 1
        gam = mod.gamma_value(k, 2, z)
        der = mod.der(z)
        once = mod.crs_via_composition(k, 2, der) - gam * der
        assert not once.is_zero
        assert (mod.crs_via_composition(k, 2, once) - gam * once).is_zero
        l, m = rng.randint(1, 4), rng.randint(1, 4)
        tz = frame.tau(z)
        assert mod.act_on_regular(l, m, z) == mod.act_on_regular(l, m, tz)
        assert mod.act_on_derivative(l, m, z) == -mod.act_on_derivative(l, m, tz)


# ---------------------------------------------------------------------------
# The commutative family on the singular module
# ---------------------------------------------------------------------------

def test_gamma_action_reg_is_eigen(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(103)
    for _ in range(20):
        z = fixtures.random_shift(rng, 3, bound=3)
        x = mod.reg(z)
        for (r, s) in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert mod.gamma_action(r, s, x) == mod.gamma_value(r, s, z) * x


def test_gamma_action_jordan_offdiagonal(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(107)
    for _ in range(20):
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame_n3.is_tau_fixed(z):
            continue
        # the off-diagonal coefficient of c_22 on Der(z) is z_21 - z_22
        d = mod.gamma_dvalue(2, 2, z)
        assert d == z.get(2, 1) - z.get(2, 2)


def test_crs_composition_matches_gamma_action(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(109)
    window = canonical_window(frame_n3, 2)
    for (r, s) in ((1, 1), (2, 1), (2, 2), (3, 1)):
        for _ in range(20):
            sym = rng.choice(window)
            x = LinComb.single(sym)
            assert mod.crs_via_composition(r, s, x) == mod.gamma_action(r, s, x)


def test_jordan_cell_nilpotency(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(113)
    k = frame_n3.k
    seen = 0
    while seen < 20:
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame_n3.is_tau_fixed(z):
            continue
        seen += 1
        gam = mod.gamma_value(k, 2, z)
        der = mod.der(z)
        once = mod.crs_via_composition(k, 2, der) - gam * der
        assert not once.is_zero
        twice = mod.crs_via_composition(k, 2, once) - gam * once
        assert twice.is_zero


def test_central_family_commutes_singular(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(127)
    for _ in range(4):
        z = fixtures.random_shift(rng, 3, bound=1)
        x = mod.der(z) if not frame_n3.is_tau_fixed(z) else mod.reg(z)
        a = mod.crs_via_composition(2, 2, mod.crs_via_composition(2, 1, x))
        b = mod.crs_via_composition(2, 1, mod.crs_via_composition(2, 2, x))
        assert a == b


def test_multiplicity_classes_window2(frame_n3):
    mod = SingularModule(frame_n3)
    for char, syms in mod.character_classes(2).items():
        assert len(syms) <= 2
        if len(syms) == 1:
            assert syms[0].kind == REG
            assert frame_n3.is_tau_fixed(syms[0].shift)
        else:
            kinds = {s.kind for s in syms}
            assert kinds == {REG, DER}
            zr = next(s.shift for s in syms if s.kind == REG)
            zd = next(s.shift for s in syms if s.kind == DER)
            assert frame_n3.tau(zr) == zd


def test_subcharacters_separate_below_singular_row():
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        mod = SingularModule(frame)
        k = frame.k
        by_low: dict = {}
        for z in window_shifts(3, 2):
            low = tuple(tuple(z.rows[idx]) for idx in range(3 - k, 2))
            sub = mod.character(z, max_row=k - 1)
            by_low.setdefault(low, set()).add(sub)
        chars = {}
        for low, subs in by_low.items():
            assert len(subs) == 1  # depends only on the low rows
            chars[low] = next(iter(subs))
        assert len(set(chars.values())) == len(chars)  # and separates them


def test_connecting_shift_produces_nonzero_coefficient():
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        mod = SingularModule(frame)
        k = frame.k
        for z in window_shifts(3, 2):
            t, zrep, zbar = connecting_shift(frame, z)
            assert frame.stratum(zbar) == frame.stratum(z) + 1
            assert 0 <= t <= k - 1
            out = mod.act_on_regular(k + 1, k - t, zbar)
            _, target = canonicalize(REG, zrep, frame)
            assert out.coeff(target) != 0


def test_connecting_shift_uses_the_chain_on_integral_frames():
    frame = fixtures.frame_all_equal(0)
    t, zrep, zbar = connecting_shift(frame, sv3(0, 0, 1))
    assert t == 1  # the row-1 entry sits exactly one above the singular pair
    assert zbar == sv3(1, 0, 2)


def test_irreducibility_hypothesis_frames():
    assert irreducibility_hypothesis(fixtures.frame_n3())
    assert not irreducibility_hypothesis(fixtures.frame_all_equal(0))
    assert irreducibility_hypothesis(fixtures.frame_n4())


def test_generation_witnesses_nonzero(frame_n3):
    rng = random.Random(131)
    seen = 0
    while seen < 10:
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame_n3.is_tau_fixed(z):
            continue
        seen += 1
        rep = generation_witnesses(frame_n3, z)
        assert rep["hypothesis"]
        assert rep["derivative_coefficient"] != 0
        assert rep["derivative_coefficient"] == rep["derivative_coefficient_closed_form"]
        assert rep["step2_ev_coefficient"] != 0
        # for a row-2 singular pair the denominator is exactly x - y, so the
        # surviving value is the bare numerator product
        assert rep["step2_ev_coefficient"] == rep["step2_numerator"]
        assert all(v != 0 for v in rep["step3_values"].values())
