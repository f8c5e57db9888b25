"""Coefficient functions e_rs and gamma_rs, and the two action presentations."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmod import core, fixtures
from gtmod.coeffs import (
    Jet, classical_action, coeff_e, coeff_ratfun, gamma, perm_action,
)
from gtmod.ratfun import ONE, Poly, RatFun, T, TWO_T
from gtmod.tableaux import (
    PermTuple, ShiftVector, Tableau, phi_set, tau_perm, tau_star, window_shifts,
)

F = Fraction


def test_e12_n2_direct_substitution():
    w = Tableau.from_rows([[3, 0], [1]])
    assert coeff_e(1, 2, w) == Jet(0, 2, 0, 1)  # -(1-3)(1-0)


def test_e21_is_one():
    rng = random.Random(1)
    for _ in range(10):
        w = fixtures.random_generic_tableau(rng, rng.randint(2, 4))
        assert coeff_e(2, 1, w) == Jet(0, 1, 0, 1)


def test_e32_on_singular_line():
    frame = fixtures.frame_all_equal(0)
    w = frame.tableau_at(ShiftVector.zero(3))
    assert coeff_e(3, 2, w) == Jet(0, 1, 0, 2)  # t / 2t


def test_gamma_closed_forms():
    rng = random.Random(5)
    for _ in range(20):
        w = fixtures.random_generic_tableau(rng, 3)
        w11, w21, w22 = w.base(1, 1), w.base(2, 1), w.base(2, 2)
        assert gamma(1, 1, w) == (0, w11)
        assert gamma(2, 1, w) == (0, w21 + w22 + 1)
        expected = (w21 + 1) ** 2 + (w22 + 1) ** 2 - (w21 + w22 + 2)
        assert gamma(2, 2, w) == (0, expected)


def _displayed_gamma(r, s, w):
    """The displayed sum sum_i (w_ri + r - 1)^s prod_{j != i} (1 - 1/(w_ri - w_rj))
    as a rational function of t; needs pairwise distinct row-r entries."""
    entries = [Poly(w.entry(r, idx)) for idx in range(1, r + 1)]
    total = RatFun(0)
    for i, e in enumerate(entries):
        num = (e + (r - 1)) ** s
        den = Poly([1])
        for j, other in enumerate(entries):
            if j != i:
                num = num * (e - other - 1)
                den = den * (e - other)
        total = total + RatFun(num, den)
    return total


def test_gamma_pole_cancels_on_singular_line(frame_n3):
    """The displayed sum is a polynomial on the line (its poles at t = 0
    cancel), and gamma reads its half-derivative and value at t = 0."""
    cases = [(frame_n3, z, 3) for z in window_shifts(3, 2)]
    rng = random.Random(48)
    for frame in (fixtures.frame_n4(), fixtures.frame_n4_row3()):
        cases += [(frame, fixtures.random_shift(rng, 4, 2), 4) for _ in range(20)]
    for frame, z, top in cases:
        w = frame.tableau_at(z)
        for r in range(1, top + 1):
            for s in range(1, r + 1):
                displayed = _displayed_gamma(r, s, w)
                assert displayed.den == ONE  # symmetric-function cancellation
                assert (displayed.d(), displayed.ev()) == gamma(r, s, w)


def test_classical_highest_weight_n2():
    top = [1, -1]
    t0 = Tableau.from_rows([top, [0]])
    [(c, dz)] = classical_action(1, 2, t0)
    assert c == 1 and dz == ShiftVector.delta(2, 1, 1)
    t1 = Tableau.from_rows([top, [1]])
    [(c1, _)] = classical_action(1, 2, t1)
    assert c1 == 0
    # diagonal eigenvalues read off row sums
    [(e11, z0)] = classical_action(1, 1, t1)
    assert e11 == 1 and z0 == ShiftVector.zero(2)
    [(e22, _)] = classical_action(2, 2, t1)
    assert e22 == (1 + (-1 + 1)) - 1


def test_perm_matches_classical_on_random_generic():
    rng = random.Random(20240601)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        t = fixtures.random_generic_tableau(rng, n)
        for k in range(1, n):
            for (l, m) in ((k, k + 1), (k + 1, k), (k, k)):
                classical = {dz: c for c, dz in classical_action(l, m, t) if c}
                perm = {}
                for fn, dz in perm_action(l, m, t):
                    v = fn.const_value()
                    if v:
                        perm[dz] = perm.get(dz, 0) + v
                assert classical == perm
                checked += 1
    assert checked > 300


def test_perm_action_diagonal_single_term():
    rng = random.Random(2)
    t = fixtures.random_generic_tableau(rng, 3)
    pairs = perm_action(2, 2, t)
    assert len(pairs) == 1
    assert pairs[0][1] == ShiftVector.zero(3)


def test_perm_action_e32_pairs_on_singular_line():
    frame = fixtures.frame_all_equal(0)
    w = frame.tableau_at(ShiftVector.zero(3))
    pairs = perm_action(3, 2, w)
    shifts = sorted(p[1].to_text() for p in pairs)
    assert shifts == ["(-1,0|0)", "(0,-1|0)"]
    for fn, _ in pairs:
        assert fn == Jet(0, 1, 0, 2)


@st.composite
def t_tableaux(draw):
    """A tableau of size 2..5 with +t and -t on one same-row pair; half the
    entries come from a small pool, so equal entries (identically zero
    numerator and denominator factors) are common, and the pair's bases are
    often equal, as on a singular frame; the other half have denominators
    3, 5, 7 and 11, so the common denominator of a tableau varies."""
    n = draw(st.integers(2, 5))
    pool = st.one_of(
        st.sampled_from([F(0), F(1), F(-1), F(1, 2)]),
        st.builds(F, st.integers(-12, 12), st.sampled_from([3, 5, 7, 11])))
    rows = [[draw(pool) for _ in range(r)] for r in range(n, 0, -1)]
    k = draw(st.integers(2, n))
    i, j = sorted(draw(st.lists(st.integers(1, k), min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        rows[n - k][j - 1] = rows[n - k][i - 1]
    c = draw(st.sampled_from([1, -1]))
    return Tableau.from_rows(rows).with_tcoefs({(k, i): c, (k, j): -c})


@settings(max_examples=300, deadline=None)
@given(t_tableaux())
def test_jet_is_the_2_jet_of_the_whole_coefficient(w):
    """coeff_e(r, s, w) = (v, a0, a1, q) means coeff_ratfun(r, s, w) =
    t^v (a0 + a1 t + O(t^2)) / q with a0 != 0, q > 0 and gcd(a0, a1, q) = 1,
    or both are zero; a vanishing denominator raises in both."""
    for r in range(1, w.n + 1):
        for s in range(1, w.n + 1):
            try:
                e = coeff_ratfun(r, s, w)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    coeff_e(r, s, w)
                continue
            jet = coeff_e(r, s, w)
            if e.is_zero:
                assert jet == (0, 0, 0, 1)
                continue
            v, a0, a1, q = jet
            f = e * (RatFun(ONE, T ** v) if v >= 0 else RatFun(T ** -v))
            assert f.pole_order() == 0
            assert (f.ev(), f.d()) == (F(a0, q), F(a1, 2 * q)) and a0 != 0
            assert q > 0 and math.gcd(a0, a1, q) == 1


def _outcome(l, m, t):
    try:
        return perm_action(l, m, t)
    except ZeroDivisionError:
        return ZeroDivisionError


@settings(max_examples=150, deadline=None)
@given(t_tableaux(), st.data())
def test_perm_action_on_the_integer_tableau_matches_the_tableau(w, data):
    """A module's tableau at z, its base's integer cells plus L*z, equals the
    tableau rebuilt from the shifted rational entries with the t-coefficients
    restored, and gives the same jets and shifts."""
    n = w.n
    z = ShiftVector(n, tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(r))
                             for r in range(n - 1, 0, -1)))
    shifted = core.tableau_at(SimpleNamespace(base=w), z)
    cells = [(r, s) for r in range(n, 0, -1) for s in range(1, r + 1)]
    rebuilt = Tableau.from_rows(
        [[w.base(r, s) + (z.get(r, s) if r < n else 0) for s in range(1, r + 1)]
         for r in range(n, 0, -1)]).with_tcoefs({rs: w.entry(*rs)[1] for rs in cells})
    assert shifted == rebuilt
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            assert _outcome(l, m, shifted) == _outcome(l, m, rebuilt)


# ---------------------------------------------------------------------------
# Pole-order bound for coefficients over a singular frame
# ---------------------------------------------------------------------------

def _pole_bound_sweep(frame, bound):
    n = frame.n
    k = frame.k
    for z in window_shifts(n, bound):
        if not frame.is_tau_fixed(z):
            continue
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                inside = min(l, m) <= k <= max(l, m) - 1
                for sigma in phi_set(l, m, n):
                    e = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
                    order = e.pole_order()
                    assert order <= 1
                    special = sigma.row(k) in (
                        PermTuple.row_transposition(n, k, 1, frame.i).row(k),
                        PermTuple.row_transposition(n, k, 1, frame.j).row(k),
                    )
                    if not (inside and special):
                        assert order == 0


def test_pole_bound_n3_window2():
    _pole_bound_sweep(fixtures.frame_n3(), 2)


def test_pole_bound_all_equal_frame():
    _pole_bound_sweep(fixtures.frame_all_equal(0), 2)


def test_pole_bound_n4_window1():
    _pole_bound_sweep(fixtures.frame_n4(), 1)


def test_pole_bound_n4_row3_pair_window1():
    _pole_bound_sweep(fixtures.frame_n4_row3(), 1)


def test_pole_bound_n4_window2_sampled():
    frame = fixtures.frame_n4()
    n, k = 4, frame.k
    rng = random.Random(99)
    zs = []
    while len(zs) < 40:
        rows = [tuple(rng.randint(-2, 2) for _ in range(r)) for r in (3, 2, 1)]
        z = ShiftVector(4, tuple(rows))
        if frame.is_tau_fixed(z):
            zs.append(z)
    for z in zs:
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                inside = min(l, m) <= k <= max(l, m) - 1
                for sigma in phi_set(l, m, n):
                    e = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
                    assert e.pole_order() <= 1
                    if not inside:
                        assert e.pole_order() == 0


# ---------------------------------------------------------------------------
# Parity identities for the coefficients
# ---------------------------------------------------------------------------

def _sigma_is_special(sigma, frame):
    ti = PermTuple.row_transposition(sigma.n, frame.k, 1, frame.i).row(frame.k)
    tj = PermTuple.row_transposition(sigma.n, frame.k, 1, frame.j).row(frame.k)
    return sigma.row(frame.k) in (ti, tj)


def test_parity_outside_special_set():
    frame = fixtures.frame_n3()
    n = frame.n
    rng = random.Random(17)
    two_t = RatFun(TWO_T)
    for _ in range(200):
        z = ShiftVector(n, tuple(
            tuple(rng.randint(-2, 2) for _ in range(r)) for r in (2, 1)))
        tz = frame.tau(z)
        l, m = rng.choice([(a, b) for a in range(1, 4) for b in range(1, 4) if a != b])
        for sigma in phi_set(l, m, n):
            e_z = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
            e_tz = coeff_ratfun(l, m, sigma(frame.tableau_at(tz)))
            if _sigma_is_special(sigma, frame):
                continue
            assert e_tz.ev() == e_z.ev()
            assert e_tz.d() == -e_z.d()
            if frame.is_tau_fixed(z):
                assert e_z.d() == 0
            assert (two_t * e_tz).ev() == (two_t * e_z).ev() == 0
            assert (two_t * e_tz).d() == (two_t * e_z).d()


def test_parity_on_special_set():
    """On the special set the twisted permutation matches composing with the
    singular swap: e(tau*sigma (v+z)) = e(sigma tau (v+z)) as functions."""
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal(0)):
        n = frame.n
        tau = tau_perm(n, frame.k, frame.i, frame.j)
        rng = random.Random(23)
        two_t = RatFun(TWO_T)
        for _ in range(100):
            z = ShiftVector(n, tuple(
                tuple(rng.randint(-2, 2) for _ in range(r)) for r in (2, 1)))
            tz = frame.tau(z)
            l, m = rng.choice([(a, b) for a in range(1, 4) for b in range(1, 4) if a != b])
            for sigma in phi_set(l, m, n):
                if not _sigma_is_special(sigma, frame):
                    continue
                star = tau_star(sigma, frame.k, frame.i, frame.j)
                lhs = coeff_ratfun(l, m, star(frame.tableau_at(z)))
                rhs = coeff_ratfun(l, m, (sigma * tau)(frame.tableau_at(z)))
                assert lhs == rhs
                # specializations across tau(z)
                e_z = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
                e_star_tz = coeff_ratfun(l, m, star(frame.tableau_at(tz)))
                if not frame.is_tau_fixed(z):
                    assert e_star_tz.ev() == e_z.ev()
                    assert e_star_tz.d() == -e_z.d()
                assert (two_t * e_star_tz).ev() == -(two_t * e_z).ev()
                assert (two_t * e_star_tz).d() == (two_t * e_z).d()


def test_parity_twisted_conjugation_branch():
    """Same twist identity on a frame whose singular pair avoids position 1,
    so the twist is a genuine conjugation."""
    frame = fixtures.frame_n4_row3()
    n, k = 4, frame.k
    tau = tau_perm(n, k, frame.i, frame.j)
    two_t = RatFun(TWO_T)
    rng = random.Random(41)
    for _ in range(15):
        z = ShiftVector(n, tuple(
            tuple(rng.randint(-1, 1) for _ in range(r)) for r in (3, 2, 1)))
        tz = frame.tau(z)
        l, m = rng.choice([(a, b) for a in range(1, 5) for b in range(1, 5) if a != b])
        for sigma in phi_set(l, m, n):
            if not _sigma_is_special(sigma, frame):
                continue
            star = tau_star(sigma, k, frame.i, frame.j)
            lhs = coeff_ratfun(l, m, star(frame.tableau_at(z)))
            rhs = coeff_ratfun(l, m, (sigma * tau)(frame.tableau_at(z)))
            assert lhs == rhs
            e_z = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
            e_star_tz = coeff_ratfun(l, m, star(frame.tableau_at(tz)))
            if not frame.is_tau_fixed(z):
                assert e_star_tz.ev() == e_z.ev()
                assert e_star_tz.d() == -e_z.d()
            assert (two_t * e_star_tz).ev() == -(two_t * e_z).ev()
            assert (two_t * e_star_tz).d() == (two_t * e_z).d()


def test_gamma_polynomial_extension_matches_sum():
    """Dual route: the residue/remainder evaluation agrees with the displayed
    sum on distinct entries, and with its perturbation limit on repeated ones."""
    from gtmod.coeffs import gamma_at_point
    from gtmod.ratfun import RatFun as RF, Poly as P

    rng = random.Random(301)
    for _ in range(30):
        r = rng.randint(1, 4)
        s = rng.randint(1, 3)
        entries = []
        while len(set(entries)) != r:
            entries = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(r)]
        direct = RatFun(0)
        for i in range(r):
            term = RatFun((entries[i] + r - 1) ** s)
            for j in range(r):
                if j != i:
                    term = term * RatFun(1 - 1 / (entries[i] - entries[j]))
            direct = direct + term
        assert direct == RatFun(gamma_at_point(r, s, entries))

    # repeated entries: perturb by distinct multiples of a formal u and let u -> 0
    for entries, r, s in (([F(0), F(0), F(0)], 3, 2), ([F(1), F(1), F(-2)], 3, 3),
                          ([F(1, 2), F(1, 2)], 2, 2)):
        perturbed = [P([e, i + 1]) for i, e in enumerate(entries)]  # e + (i+1)u
        total = RF(0)
        for i in range(r):
            num = (perturbed[i] + (r - 1)) ** s
            den = P([1])
            for j in range(r):
                if j != i:
                    d = perturbed[i] - perturbed[j]
                    num = num * (d - 1)
                    den = den * d
            total = total + RF(num, den)
        assert total.ev() == gamma_at_point(r, s, entries)


def test_gamma_symbolic_linear():
    frame = fixtures.frame_n3()
    w = frame.tableau_at(ShiftVector.zero(3))
    # gamma_{21} on the line: (1/3 + t) + (1/3 - t) + 1 = 5/3, constant in t
    assert gamma(2, 1, w) == (0, F(5, 3))
    # gamma_{22} = (4/3 + t)^2 + (4/3 - t)^2 - 8/3 = 8/9 + 2t^2, even in t
    assert gamma(2, 2, w) == (0, F(8, 9))
    # with t on w_21 alone: (4/3 + t)^2 + 16/9 - (8/3 + t) = 8/9 + 5/3 t + t^2,
    # whose slope needs the second difference
    assert gamma(2, 2, frame.vbar.with_tcoefs({(2, 1): 1})) == (F(5, 6), F(8, 9))
