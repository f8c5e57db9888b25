"""Tableau predicates, shift lattice, permutation machinery."""

import random
from fractions import Fraction

import pytest

from gtmod.tableaux import (
    PermTuple, ShiftVector, SingularFrame, Tableau,
    closest_representative, epsilon, is_generic, is_standard, omega_plus,
    phi_set, singular_pairs, tau_perm, tau_star, window_shifts,
)

F = Fraction


def test_standard_interlacing_n2():
    top = [1, -1]
    assert is_standard(Tableau.from_rows([top, [0]]))
    assert not is_standard(Tableau.from_rows([top, [-1]]))  # t11 - t22 = 0 not > 0
    assert is_standard(Tableau.from_rows([top, [1]]))


def test_standard_requires_integrality():
    assert not is_standard(Tableau.from_rows([[1, -1], [F(1, 2)]]))


def test_generic_and_singular_pairs():
    t = Tableau.from_rows([[1, 0, -1], [F(1, 2), F(1, 3)], [0]])
    assert is_generic(t)
    assert singular_pairs(t) == []

    s = Tableau.from_rows([[1, 0, -1], [0, 0], [0]])
    assert not is_generic(s)
    assert singular_pairs(s) == [(2, 1, 2)]

    u = Tableau.from_rows([[1, 0, -1, -2], [0, 0, F(1, 2)], [0, 1], [F(1, 7)]])
    assert set(singular_pairs(u)) == {(3, 1, 2), (2, 1, 2)}


def test_omega_plus_cases():
    a = F(1, 3)
    all_equal = Tableau.from_rows([[a, a, a], [a, a], [a]])
    got = omega_plus(all_equal)
    want = {(3, s, u) for s in (1, 2, 3) for u in (1, 2)} | {(2, s, 1) for s in (1, 2)}
    assert got == frozenset(want)

    shifted = Tableau.from_rows([[a, a, a], [a - 1, a], [a]])
    got2 = omega_plus(shifted)
    assert (2, 1, 1) not in got2
    assert {(3, s, 1) for s in (1, 2, 3)} <= got2
    assert (2, 2, 1) in got2

    spread = Tableau.from_rows([[0, F(1, 3), F(5, 7)], [F(1, 2), F(2, 9)], [F(3, 11)]])
    assert omega_plus(spread) == frozenset()


def test_omega_plus_deterministic_on_rebuilt_copy():
    t = Tableau.from_rows([[2, F(1, 3), F(-5, 3)], [0, F(1, 3)], [F(1, 3)]])
    rebuilt = Tableau.from_rows([[b for b, _ in row] for row in t.fraction_rows()])
    assert omega_plus(t) == omega_plus(rebuilt)
    assert omega_plus(t) == omega_plus(t)


def test_phi_set_sizes():
    assert len(phi_set(2, 2, 4)) == 1
    assert len(phi_set(1, 3, 4)) == 2
    assert len(phi_set(1, 4, 4)) == 6
    for n in range(2, 6):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                lo, hi = min(l, m), max(l, m)
                expected = 1
                for t in range(lo, hi):
                    expected *= t
                assert len(phi_set(l, m, n)) == expected
                assert phi_set(l, m, n) == phi_set(m, l, n)


def test_epsilon_basic():
    n = 4
    assert epsilon(n, 1, 2) == ShiftVector.delta(n, 1, 1)
    assert epsilon(n, 2, 2) == ShiftVector.zero(n)
    assert epsilon(n, 3, 1) == -(ShiftVector.delta(n, 1, 1) + ShiftVector.delta(n, 2, 1))


def test_epsilon_antisymmetry_and_telescoping():
    for n in range(2, 6):
        for r in range(1, n + 1):
            for s in range(1, n + 1):
                assert epsilon(n, s, r) == -epsilon(n, r, s)
                for u in range(r, s + 1):
                    assert epsilon(n, r, s) == epsilon(n, r, u) + epsilon(n, u, s)


def test_apply_perm_examples():
    t = Tableau.from_rows([[3, 1], [5]])
    ident = PermTuple.identity(2)
    assert ident(t) == t
    swap = PermTuple.row_transposition(2, 2, 1, 2)
    assert swap(t) == Tableau.from_rows([[1, 3], [5]])


def test_apply_perm_inverse_roundtrip():
    rng = random.Random(7)
    n = 4
    for _ in range(100):
        perms = []
        for r in range(1, n + 1):
            images = list(range(1, r + 1))
            if r < n:  # the top row stays fixed under shift-lattice actions
                rng.shuffle(images)
            perms.append(tuple(images))
        sigma = PermTuple(tuple(perms))
        z = ShiftVector(n, tuple(
            tuple(rng.randint(-3, 3) for _ in range(r)) for r in range(n - 1, 0, -1)
        ))
        assert sigma.inverse()(sigma(z)) == z
        assert sigma(sigma.inverse()(z)) == z


def test_tau_star_examples():
    # conjugation case: k=3, (i,j)=(2,3), sigma[3]=(1,2) -> (1,3)
    sigma = PermTuple.row_transposition(4, 3, 1, 2)
    out = tau_star(sigma, 3, 2, 3)
    assert out.row(3) == (3, 2, 1)  # the transposition (1,3)
    # commuting case: k=2, (i,j)=(1,2), sigma[2]=(1,2) -> identity = (1,i)
    sigma2 = PermTuple.row_transposition(3, 2, 1, 2)
    out2 = tau_star(sigma2, 2, 1, 2)
    assert out2.is_identity_row(2)


def test_tau_star_group_identities():
    """On its domain the twist has two equivalent product forms: the
    conjugation tau*sigma*tau equals sigma*tau*sigma when position 1 is not
    in the swapped pair, and tau*sigma equals sigma*tau when it is."""
    for n in (3, 4):
        for k in range(2, n):
            for i in range(1, k):
                for j in range(i + 1, k + 1):
                    tau = tau_perm(n, k, i, j)
                    for a in (i, j):
                        sigma = PermTuple.row_transposition(n, k, 1, a)
                        if i == 1:
                            assert tau * sigma == sigma * tau
                            assert tau_star(sigma, k, i, j) == tau * sigma
                        else:
                            assert tau * sigma * tau == sigma * tau * sigma
                            assert tau_star(sigma, k, i, j) == tau * sigma * tau


def test_tau_star_involution_exhaustive():
    for n in (3, 4):
        for k in range(2, n):
            for i in range(1, k):
                for j in range(i + 1, k + 1):
                    for a in (i, j):
                        sigma = PermTuple.row_transposition(n, k, 1, a)
                        twice = tau_star(tau_star(sigma, k, i, j), k, i, j)
                        assert twice == sigma


def test_tau_star_rejects_other_rows():
    sigma = PermTuple.row_transposition(4, 3, 1, 3)
    with pytest.raises(ValueError):
        tau_star(sigma, 3, 1, 2)  # row-3 part is (1,3), not (1,1) or (1,2)


def test_closest_representative():
    vbar = Tableau.from_rows([[0, -1], [0]])
    w = Tableau.from_rows([[0, -1], [F(7, 3)]])
    u = closest_representative(w, vbar)
    assert u.base(1, 1) == F(-2, 3)
    w2 = Tableau.from_rows([[0, -1], [F(-1, 2)]])
    assert closest_representative(w2, vbar).base(1, 1) == F(-1, 2)
    assert closest_representative(vbar, vbar) == vbar


def test_closest_representative_floor_property():
    import math
    rng = random.Random(3)
    vbar = Tableau.from_rows([[0, F(2, 5), F(9, 7)], [F(1, 3), F(1, 3)], [F(1, 11)]])
    for _ in range(50):
        w = Tableau.from_rows([
            [0, F(2, 5), F(9, 7)],
            [F(1, 3) + rng.randint(-9, 9) + F(1, rng.randint(2, 7)),
             F(1, 3) + rng.randint(-9, 9) + F(1, rng.randint(2, 7))],
            [F(1, 11) + rng.randint(-9, 9) + F(1, rng.randint(2, 7))],
        ])
        u = closest_representative(w, vbar)
        for r in range(1, 3):
            for s in range(1, r + 1):
                assert math.floor(vbar.base(r, s) - u.base(r, s)) == 0


def test_tau_swaps_only_singular_positions():
    frame = SingularFrame(2, 1, 2, Tableau.from_rows(
        [[0, F(2, 5), F(9, 7)], [F(1, 3), F(1, 3)], [F(1, 11)]]))
    rng = random.Random(11)
    for _ in range(50):
        z = ShiftVector(3, ((rng.randint(-4, 4), rng.randint(-4, 4)), (rng.randint(-4, 4),)))
        tz = frame.tau(z)
        assert tz.get(2, 1) == z.get(2, 2)
        assert tz.get(2, 2) == z.get(2, 1)
        assert tz.get(1, 1) == z.get(1, 1)
        # matches the permutation action of the involution
        assert tau_perm(3, 2, 1, 2)(z) == tz


def test_singular_frame_validation():
    good = Tableau.from_rows([[0, F(2, 5), F(9, 7)], [F(1, 3), F(1, 3)], [F(1, 11)]])
    SingularFrame(2, 1, 2, good)
    with pytest.raises(ValueError):
        SingularFrame(2, 1, 2, Tableau.from_rows(
            [[0, 1, 2], [F(1, 3), F(4, 3)], [0]]))  # pair entries differ
    with pytest.raises(ValueError):
        SingularFrame(3, 1, 2, Tableau.from_rows(
            [[0, 1, 2, 3], [F(1, 3), F(1, 3), F(4, 3)], [0, 1], [0]]))  # extra pair (3,1,3)
    with pytest.raises(ValueError):
        SingularFrame(1, 1, 2, good)  # j > k


def test_window_shifts_count():
    assert sum(1 for _ in window_shifts(3, 1)) == 27
    assert sum(1 for _ in window_shifts(3, 2)) == 125


def test_text_roundtrip():
    t = Tableau.from_text("(2,1/3,-5/3|1/4,7/10|1/7)")
    assert t.base(2, 2) == F(7, 10)
    assert Tableau.from_text(t.to_text()) == t
    z = ShiftVector.from_text(3, "(1,-2|0)")
    assert z.get(2, 1) == 1 and z.get(2, 2) == -2 and z.get(1, 1) == 0
    assert ShiftVector.from_text(3, z.to_text()) == z
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        t = Tableau.from_rows([[F(rng.randint(-20, 20), rng.choice([1, 2, 3, 4, 6, 7]))
                                for _ in range(r)] for r in range(n, 0, -1)])
        assert Tableau.from_text(t.to_text()) == t


def test_spellings_of_one_value_give_one_tableau():
    a = Tableau.from_rows([[F(2, 4), 3, 0], [F(3, 3), F(1, 6)], [-1]])
    b = Tableau.from_rows([[F(1, 2), 3, 0], [1, F(1, 6)], [-1]])
    assert a == b and hash(a) == hash(b)
    c, d = Tableau.from_text("(2/4,3/3|0)"), Tableau.from_text("(1/2,1|0)")
    assert c == d and hash(c) == hash(d)


def test_shift_tcoefs_and_permutation_keep_the_scale():
    t = Tableau.from_text("(2,1/3,-5/3|1/4,7/10|1/7)")
    assert t.scale == 420
    z = ShiftVector.from_text(3, "(1,-2|3)")
    line = t.with_t(2, 1, 2)
    sigma = PermTuple.row_transposition(3, 2, 1, 2)
    for u in (t.with_shift(z), line, line.with_shift(z), sigma(line), sigma(t.with_shift(z))):
        assert u.scale == t.scale
    assert line.entry(2, 1) == (F(1, 4), 1) and line.entry(2, 2) == (F(7, 10), -1)
    assert line.with_shift(z).entry(2, 2) == (F(7, 10) - 2, -1)
    assert sigma(line).entry(2, 1) == (F(7, 10), -1)


@pytest.mark.parametrize("text", ["(1,2|34", "(1,2,3|4)", "(1,2|3|4)"],
                         ids=["unbalanced", "ragged", "row-count"])
def test_shift_text_shape_is_checked(text):
    with pytest.raises(ValueError):
        ShiftVector.from_text(3, text)
