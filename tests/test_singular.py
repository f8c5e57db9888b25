"""Singular module: canonical basis, derivative action, Jordan structure."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmod import coeffs, fixtures
from gtmod.lincomb import LinComb
from gtmod.singular import (
    DER, REG, BasisSymbol, InvariantViolation, SingularModule, canonical_window,
    canonicalize, connecting_shift, generation_witnesses, irreducibility_hypothesis,
)
from gtmod.tableaux import ShiftVector, SingularFrame, Tableau, tau_perm, window_shifts

F = Fraction


def sv3(m, n, k):
    return ShiftVector(((k,), (m, n)))


def test_canonicalize_relations(frame_n3):
    sign, sym = canonicalize(REG, sv3(1, 0, 0), frame_n3)
    assert (sign, sym) == (1, BasisSymbol(REG, sv3(0, 1, 0)))
    sign, sym = canonicalize(DER, sv3(0, 1, 0), frame_n3)
    assert (sign, sym) == (-1, BasisSymbol(DER, sv3(1, 0, 0)))
    sign, sym = canonicalize(DER, sv3(0, 0, 5), frame_n3)
    assert sign == 0 and sym is None
    sign, sym = canonicalize(REG, sv3(-1, 2, 0), frame_n3)
    assert (sign, sym) == (1, BasisSymbol(REG, sv3(-1, 2, 0)))


# every singular pair (n, k, i, j) with 1 <= i < j <= k <= n - 1, n = 3..5
PAIRS = [(n, k, i, j) for n in range(3, 6) for k in range(2, n)
         for j in range(2, k + 1) for i in range(1, j)]


def _frame_on(rng, n, k, i, j):
    """A random generic tableau with entry (k, j) set equal to entry (k, i):
    1-singular on exactly that pair."""
    t = fixtures.random_generic_tableau(rng, n)
    rows = [[b for b, _ in row] for row in reversed(t.fraction_rows())]  # top row first
    rows[n - k][j - 1] = rows[n - k][i - 1]
    return SingularFrame(k, i, j, Tableau.from_rows(rows))


@pytest.mark.parametrize("n, k, i, j", PAIRS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_pair_readers_match_the_two_entries_on_every_pair(n, k, i, j, seed):
    """The frame's pair readers (the gap and everything built on it, and
    tau) against an oracle that reads z_ki and z_kj itself, on random and
    tau-fixed shifts and, for n <= 4, the whole window of bound 1."""
    rng = random.Random(seed)
    frame = _frame_on(rng, n, k, i, j)
    taup = tau_perm(n, k, i, j)
    shifts = []
    for _ in range(10):
        z = fixtures.random_shift(rng, n, bound=2)
        shifts += [z, z + ShiftVector.of(n, {(k, j): z.get(k, i) - z.get(k, j)})]
    for z in shifts:
        zi, zj = z.get(k, i), z.get(k, j)
        tz = taup(z)
        assert frame.tau(z) == tz
        assert frame.gap(z) == zi - zj
        assert frame.is_tau_fixed(z) == (zi == zj)
        assert frame.stratum(z) == abs(zi - zj)
        assert canonicalize(REG, z, frame) == (1, BasisSymbol(REG, tz if zi > zj else z))
        assert canonicalize(DER, z, frame) == (
            (0, None) if zi == zj else
            (-1, BasisSymbol(DER, tz)) if zi < zj else (1, BasisSymbol(DER, z)))
    if n <= 4:  # at n = 5 the bound-1 window holds 59,049 shifts
        window = canonical_window(frame, 1)
        assert [sym.shift for sym in window] == list(window_shifts(n, 1))
        assert all(sym.kind == (REG if sym.shift.get(k, i) <= sym.shift.get(k, j) else DER)
                   for sym in window)


def _column_the_old_way(frame, kind, l, m, z):
    """E_lm on Reg(z) or Der(z) assembled term by term, independently of the
    module: ``perm_action`` on the frame's tableau at z, the target z + dz,
    ``canonicalize``, and ``Jet.d_ev_ratios`` of the jet itself on the
    derivative line or, on the regular line, of (x - y) e, the jet with its
    order raised by one and doubled."""
    terms = []
    for e, dz in coeffs.perm_action(l, m, frame.tableau_at(z)):
        slope = 2 if kind == REG else 1
        if kind == REG:
            e = coeffs.Jet(e.v + 1, e.a0, e.a1, e.q)
        for placed, (num, den) in zip((REG, DER), e.d_ev_ratios()):
            sign, sym = canonicalize(placed, z + dz, frame)
            if sign:
                terms.append((sym, F(sign * slope * num, den)))
    return LinComb.sum_terms(terms)


@pytest.mark.parametrize("n, k, i, j", PAIRS)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_miss_columns_match_the_column_assembled_the_old_way(n, k, i, j, seed):
    """Every E_lm on Reg(z), and on Der(z) where z is tau-unfixed, at a
    random and a tau-fixed shift: the module's column (targets from the
    permutation plan's move lists, (d, ev) read once per term) equals
    :func:`_column_the_old_way`."""
    rng = random.Random(seed)
    frame = _frame_on(rng, n, k, i, j)
    mod = SingularModule(frame)
    z = fixtures.random_shift(rng, n, bound=2)
    for shift in (z, z + ShiftVector.of(n, {(k, j): frame.gap(z)})):
        for l, m in itertools.product(range(1, n + 1), repeat=2):
            assert mod.act_on_regular(l, m, shift) == _column_the_old_way(frame, REG, l, m, shift)
            if not frame.is_tau_fixed(shift):
                assert (mod.act_on_derivative(l, m, shift)
                        == _column_the_old_way(frame, DER, l, m, shift))


def test_act_on_regular_lowering_examples():
    mod = SingularModule(fixtures.frame_all_equal())
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
    assert out == LinComb.single(BasisSymbol(REG, z), mod.gamma(2, 1, z)[1] - row1)
    # E_11 on a derivative symbol: constant coefficient, no Reg leak
    w = sv3(2, -1, 0)
    out2 = mod.act(1, 1, LinComb.single(BasisSymbol(DER, w)))
    assert out2 == LinComb.single(BasisSymbol(DER, w), mod.gamma(1, 1, w)[1])


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
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
        mod = SingularModule(frame)
        rng = random.Random(83)
        for _ in range(60):
            z = fixtures.random_unfixed_shift(rng, frame, bound=2)
            l, m = rng.randint(1, 3), rng.randint(1, 3)
            assert mod.act_on_regular(l, m, z) == mod.act_on_regular_by_evaluation(l, m, z)


def test_compatibility_across_the_swap():
    """The regular action is tau-even, the derivative action tau-odd."""
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
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
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
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
    for _ in range(5):
        z = fixtures.random_unfixed_shift(rng, frame, bound=1)
        _, gam = mod.gamma(k, 2, z)
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
            assert mod.gamma_action(r, s, x) == mod.gamma(r, s, z)[1] * x


def test_gamma_action_jordan_offdiagonal(frame_n3):
    mod = SingularModule(frame_n3)
    rng = random.Random(107)
    for _ in range(20):
        z = fixtures.random_shift(rng, 3, bound=3)
        if frame_n3.is_tau_fixed(z):
            continue
        # the off-diagonal coefficient of c_22 on Der(z) is z_21 - z_22
        d, _ = mod.gamma(2, 2, z)
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
    for _ in range(20):
        z = fixtures.random_unfixed_shift(rng, frame_n3, bound=3)
        _, gam = mod.gamma(k, 2, z)
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
    for syms in mod.character_classes(canonical_window(frame_n3, 2)).values():
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
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
        mod = SingularModule(frame)
        k = frame.k
        by_low: dict = {}
        for z in window_shifts(3, 2):
            low = z.rows[:k - 1]
            sub = mod.character(z, max_row=k - 1)
            by_low.setdefault(low, set()).add(sub)
        chars = {}
        for low, subs in by_low.items():
            assert len(subs) == 1  # depends only on the low rows
            chars[low] = next(iter(subs))
        assert len(set(chars.values())) == len(chars)  # and separates them


def test_connecting_shift_produces_nonzero_coefficient():
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
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
    frame = fixtures.frame_all_equal()
    t, zrep, zbar = connecting_shift(frame, sv3(0, 0, 1))
    assert t == 1  # the row-1 entry sits exactly one above the singular pair
    assert zbar == sv3(1, 0, 2)


def test_irreducibility_hypothesis_frames():
    assert irreducibility_hypothesis(fixtures.frame_n3())
    assert not irreducibility_hypothesis(fixtures.frame_all_equal())
    assert irreducibility_hypothesis(fixtures.frame_n4())


def test_generation_witnesses_nonzero(frame_n3):
    rng = random.Random(131)
    for _ in range(10):
        z = fixtures.random_unfixed_shift(rng, frame_n3, bound=3)
        rep = generation_witnesses(frame_n3, z)
        assert rep["hypothesis"]
        assert rep["derivative_coefficient"] != 0
        assert rep["derivative_coefficient"] == rep["derivative_coefficient_closed_form"]
        assert rep["step2_ev_coefficient"] != 0
        assert all(v != 0 for v in rep["step3_values"].values())


@pytest.mark.parametrize("frame", ["frame_n3", "frame_n4", "frame_n4_row3", "frame_all_equal"])
def test_step2_closed_form_matches_the_ev_coefficient(frame):
    """The step-2 witness equals its closed form at 40 tau-unfixed shifts,
    on both row-2 pairs, the row-3 pair, where the divisor
    prod_{q not in {i,j}} (w_ki - w_kq) is not empty, and the all-equal
    frame, where the irreducibility hypothesis fails."""
    frame = getattr(fixtures, frame)()
    rng = random.Random(131)
    for _ in range(40):
        z = fixtures.random_unfixed_shift(rng, frame, bound=3)
        rep = generation_witnesses(frame, z)
        assert rep["step2_ev_coefficient"] == rep["step2_closed_form"], z
