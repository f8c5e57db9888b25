"""Coefficient functions e_rs and gamma_rs, and the two action presentations."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtmod import coeffs, core, fixtures
from gtmod.coeffs import (
    Jet, classical_action, coeff_e, coeff_ratfun, gamma, perm_action, rows_read,
)
from gtmod.ratfun import ONE, PoleError, Poly, RatFun, T, TWO_T
from gtmod.tableaux import (
    ShiftVector, Tableau, phi_set, tau_perm, tau_star, window_shifts,
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
    frame = fixtures.frame_all_equal()
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
            for s in range(1, r + 2):
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
    frame = fixtures.frame_all_equal()
    w = frame.tableau_at(ShiftVector.zero(3))
    pairs = perm_action(3, 2, w)
    shifts = sorted(p[1].to_text() for p in pairs)
    assert shifts == ["(-1,0|0)", "(0,-1|0)"]
    for fn, _ in pairs:
        assert fn == Jet(0, 1, 0, 2)


@st.composite
def t_tableaux(draw, n=None):
    """A tableau of size 2..5 with +t and -t on one same-row pair; half the
    entries come from a small pool, so equal entries (identically zero
    numerator and denominator factors) are common, and the pair's bases are
    often equal, as on a singular frame; the other half have denominators
    3, 5, 7 and 11, so the common denominator of a tableau varies."""
    n = n or draw(st.integers(2, 5))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, 3), st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 9),
       st.integers(0, 2))
def test_d_ev_ratios_of_a_raised_order_read_the_raised_jet(v, a0, a1, q, order):
    """d_ev_ratios(order) is d_ev_ratios of t^order * e, built here as a
    second jet, the pole error included."""
    raised = Jet(v + order, a0, a1, q)
    try:
        expected = raised.d_ev_ratios()
    except PoleError:
        with pytest.raises(PoleError):
            Jet(v, a0, a1, q).d_ev_ratios(order)
        return
    assert Jet(v, a0, a1, q).d_ev_ratios(order) == expected


def test_const_ratio_reads_a_constant_jet_and_rejects_any_other():
    assert Jet(0, -3, 0, 4).const_ratio() == (-3, 4)
    assert Jet(0, -3, 0, 4).const_value() == F(-3, 4)
    for jet in (Jet(1, 1, 0, 1), Jet(0, 1, 1, 2), Jet(-1, 1, 0, 1)):
        for read in (jet.const_ratio, jet.const_value):
            with pytest.raises(ValueError, match="not constant"):
                read()


def _list_fold(factors):
    """The integer 2-jet (v, x0, x1) of a product of integer linear factors
    b + c*t, given as a list; None when some factor is identically zero."""
    v, x0, x1 = 0, 1, 0
    for b, c in factors:
        if not b:
            if not c:
                return None
            v, b, c = v + 1, c, 0
        x1 = x1 * b + x0 * c
        x0 *= b
    return v, x0, x1


def _coeff_e_by_factor_lists(r, s, w):
    """coeff_e as it was before its one-pass fold: the scaled factor lists
    of ``_factors``, the raising -1 among them, each folded as a list."""
    rows, scale = w
    num, den = coeffs._factors(r, s, rows, scale)
    d = _list_fold(den)
    if d is None:
        raise ZeroDivisionError("zero denominator in coefficient function")
    f = _list_fold(num)
    if f is None:
        return Jet(0, 0, 0, 1)
    (v, x0, x1), (dv, d0, d1) = f, d
    k = len(den) - len(num)
    top, bottom = (scale ** k, 1) if k >= 0 else (1, scale ** -k)
    a0, a1, q = top * x0 * d0, top * (x1 * d0 - x0 * d1), bottom * d0 * d0
    g = math.gcd(a0, a1, q)
    return Jet(v - dv, a0 // g, a1 // g, q // g)


# row 2 has equal entries (the denominators of e_23 and e_32 vanish) and so
# do w_11, w_21 and w_22 (the numerator of e_12 vanishes)
EQUAL_ENTRIES = Tableau.from_rows([[1, F(1, 3), 2], [0, 0], [0]])


def test_equal_entries_give_a_zero_denominator_and_a_zero_jet():
    with pytest.raises(ZeroDivisionError):
        coeff_e(2, 3, EQUAL_ENTRIES)
    with pytest.raises(ZeroDivisionError):
        coeff_e(3, 2, EQUAL_ENTRIES)
    assert coeff_e(1, 2, EQUAL_ENTRIES) == Jet(0, 0, 0, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t_tableaux())
@example(EQUAL_ENTRIES)
def test_one_pass_fold_matches_the_factor_list_fold(w):
    """coeff_e, which folds the cells of e_rs as it reads them and starts a
    raising coefficient at -L, equals the fold of the scaled factor lists,
    jets, zero jets and vanishing denominators alike."""
    for r in range(1, w.n + 1):
        for s in range(1, w.n + 1):
            try:
                want = _coeff_e_by_factor_lists(r, s, w)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    coeff_e(r, s, w)
                continue
            assert coeff_e(r, s, w) == want, (r, s)


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
    z = ShiftVector(tuple(tuple(data.draw(st.integers(-2, 2)) for _ in range(r))
                          for r in range(1, n)))
    shifted = core.TableauModule.tableau_at(SimpleNamespace(base=w), z)
    cells = [(r, s) for r in range(n, 0, -1) for s in range(1, r + 1)]
    rebuilt = Tableau.from_rows(
        [[w.base(r, s) + (z.get(r, s) if r < n else 0) for s in range(1, r + 1)]
         for r in range(n, 0, -1)]).with_tcoefs({rs: w.entry(*rs)[1] for rs in cells})
    assert shifted == rebuilt
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            assert _outcome(l, m, shifted) == _outcome(l, m, rebuilt)


def _rows_from(w, other, keep, plain):
    """The tableau with w's entries on the rows in ``keep`` and other's on
    the rest; with no t anywhere when ``plain``."""
    n = w.n
    src = {r: w if r in keep else other for r in range(1, n + 1)}
    cells = [(r, s) for r in range(n, 0, -1) for s in range(1, r + 1)]
    out = Tableau.from_rows([[src[r].base(r, s) for s in range(1, r + 1)]
                             for r in range(n, 0, -1)])
    return out if plain else out.with_tcoefs({(r, s): src[r].entry(r, s)[1] for r, s in cells})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t_tableaux(), st.booleans(), st.data())
def test_perm_action_reads_only_the_rows_it_names(w, plain, data):
    """perm_action(l, m, w) is unchanged, jets and shifts, when every row of
    w outside rows_read(l, m) is redrawn, on plain and t-carrying tableaux:
    the fact that the per-module term memo is keyed by."""
    n = w.n
    all_rows = set(range(1, n + 1))
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            read = set(rows_read(l, m))
            assert read <= all_rows
            other = data.draw(t_tableaux(n))
            assert (_outcome(l, m, _rows_from(w, other, read, plain))
                    == _outcome(l, m, _rows_from(w, w, all_rows, plain)))


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
                    if not (inside and frame.is_special(sigma)):
                        assert order == 0


def test_pole_bound_n3_window2():
    _pole_bound_sweep(fixtures.frame_n3(), 2)


def test_pole_bound_all_equal_frame():
    _pole_bound_sweep(fixtures.frame_all_equal(), 2)


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
        z = fixtures.random_shift(rng, 4, bound=2)
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

def test_parity_outside_special_set():
    # on a row-2 frame of n = 3 every sigma is special (k = 2 leaves row k
    # only the two transpositions), so the row-3 frame of n = 4 is used
    frame = fixtures.frame_n4_row3()
    n = frame.n
    rng = random.Random(17)
    two_t = RatFun(TWO_T)
    checked = 0
    for _ in range(200):
        z = fixtures.random_shift(rng, n, bound=2)
        tz = frame.tau(z)
        l, m = rng.choice([(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b])
        for sigma in phi_set(l, m, n):
            if frame.is_special(sigma):
                continue
            checked += 1
            e_z = coeff_ratfun(l, m, sigma(frame.tableau_at(z)))
            e_tz = coeff_ratfun(l, m, sigma(frame.tableau_at(tz)))
            assert e_tz.ev() == e_z.ev()
            assert e_tz.d() == -e_z.d()
            if frame.is_tau_fixed(z):
                assert e_z.d() == 0
            assert (two_t * e_tz).ev() == (two_t * e_z).ev() == 0
            assert (two_t * e_tz).d() == (two_t * e_z).d()
    assert checked > 0


def test_parity_on_special_set():
    """On the special set the twisted permutation matches composing with the
    singular swap: e(tau*sigma (v+z)) = e(sigma tau (v+z)) as functions."""
    for frame in (fixtures.frame_n3(), fixtures.frame_all_equal()):
        n = frame.n
        tau = tau_perm(n, frame.k, frame.i, frame.j)
        rng = random.Random(23)
        two_t = RatFun(TWO_T)
        for _ in range(100):
            z = fixtures.random_shift(rng, n, bound=2)
            tz = frame.tau(z)
            l, m = rng.choice([(a, b) for a in range(1, 4) for b in range(1, 4) if a != b])
            for sigma in phi_set(l, m, n):
                if not frame.is_special(sigma):
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
        z = fixtures.random_shift(rng, n, bound=1)
        tz = frame.tau(z)
        l, m = rng.choice([(a, b) for a in range(1, 5) for b in range(1, 5) if a != b])
        for sigma in phi_set(l, m, n):
            if not frame.is_special(sigma):
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


def _plain_row(entries):
    """A plain tableau whose top row is ``entries`` and whose lower rows are zero."""
    r = len(entries)
    return Tableau.from_rows([entries] + [[0] * q for q in range(r - 1, 0, -1)])


def test_gamma_polynomial_extension_matches_sum():
    """Dual route: the generating series agrees with the displayed sum on
    distinct entries, and with its perturbation limit on repeated ones."""
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
        assert (0, direct.ev()) == gamma(r, s, _plain_row(entries))

    # repeated entries: perturb by distinct multiples of a formal u and let u -> 0
    for entries, r, s in (([F(0), F(0), F(0)], 3, 2), ([F(1), F(1), F(-2)], 3, 3),
                          ([F(1, 2), F(1, 2)], 2, 2)):
        perturbed = [Poly([e, i + 1]) for i, e in enumerate(entries)]  # e + (i+1)u
        total = RatFun(0)
        for i in range(r):
            num = (perturbed[i] + (r - 1)) ** s
            den = Poly([1])
            for j in range(r):
                if j != i:
                    d = perturbed[i] - perturbed[j]
                    num = num * (d - 1)
                    den = den * d
            total = total + RatFun(num, den)
        assert (0, total.ev()) == gamma(r, s, _plain_row(entries))


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
