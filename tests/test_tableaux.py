"""Tableau predicates, shift lattice, permutation machinery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtmod import fixtures
from gtmod.tableaux import (
    PermTuple, ShiftVector, SingularFrame, Tableau,
    epsilon, is_generic, is_standard, omega_plus,
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
    rebuilt = Tableau.from_rows([[b for b, _ in row] for row in reversed(t.fraction_rows())])
    assert omega_plus(t) == omega_plus(rebuilt)
    assert omega_plus(t) == omega_plus(t)


def _text_cell(text, n, r, s):
    """Cell s of row r of a text form ``(a,b|c)`` whose top row is row n."""
    return text[1:-1].split("|")[n - r].split(",")[s - 1]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.data())
def test_text_form_round_trips_and_lists_the_top_row_first(n, data):
    """Text enters and leaves with the top row first, and reads back to the
    same tableau and shift; base(r, s) and get(r, s) are the s-th cell of
    row r of the text."""
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    text = "(" + "|".join(",".join(str(data.draw(entry)) for _ in range(r))
                          for r in range(n, 0, -1)) + ")"
    t = Tableau.from_text(text)
    assert t.to_text() == text and Tableau.from_text(t.to_text()) == t
    assert all(t.base(r, s) == F(_text_cell(text, n, r, s))
               for r in range(1, n + 1) for s in range(1, r + 1))

    shift = st.integers(-3, 3)
    text = "(" + "|".join(",".join(str(data.draw(shift)) for _ in range(r))
                          for r in range(n - 1, 0, -1)) + ")"
    z = ShiftVector.from_text(n, text)
    assert z.to_text() == text and ShiftVector.from_text(n, z.to_text()) == z
    assert all(z.get(r, s) == int(_text_cell(text, n - 1, r, s))
               for r in range(1, n) for s in range(1, r + 1))
    assert ShiftVector(z.rows).n == len(z.rows) + 1 == n


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
    ident = PermTuple(((1,), (1, 2)))
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
        z = fixtures.random_shift(rng, n)
        assert sigma.inverse()(sigma(z)) == z
        assert sigma(sigma.inverse()(z)) == z


def _perm_tuples(n, fixed_top=False):
    """PermTuples of rank n; with ``fixed_top`` the top row is the identity."""
    return st.tuples(*(st.permutations(range(1, r + 1)).map(tuple)
                       if r < n or not fixed_top else st.just(tuple(range(1, r + 1)))
                       for r in range(1, n + 1))).map(PermTuple)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    _perm_tuples(n), _perm_tuples(n), _perm_tuples(n, fixed_top=True),
    _perm_tuples(n, fixed_top=True), st.randoms(use_true_random=False).map(
        lambda rng: (fixtures.random_generic_tableau(rng, n), fixtures.random_shift(rng, n))))))
def test_perm_action_matches_the_inverse_definition_and_composes(args):
    """sigma(w)[r, s] = w[r, sigma[r]^{-1}(s)] read through the inverse, and
    (sigma rho)(w) = sigma(rho(w)), on tableaux and on shifts."""
    sigma, rho, sigma_z, rho_z, (t, z) = args
    for p, q, w in ((sigma, rho, t), (sigma_z, rho_z, z)):
        inv = p.inverse().perms
        assert p(w) == w._replace(rows=tuple(tuple(row[x - 1] for x in images)
                                             for row, images in zip(w.rows, inv)))
        assert (p * q)(w) == p(q(w))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    *(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r), min_size=2, max_size=2)
      for r in range(1, n)))))
def test_moved_by_a_move_list_is_the_sum(rows):
    """z.moved(d.moves()) is z + d, and the move list holds d's nonzero entries."""
    z, d = (ShiftVector(tuple(tuple(pair[idx]) for pair in rows)) for idx in (0, 1))
    moves = d.moves()
    assert z.moved(moves) == z + d
    assert ShiftVector.of(d.n, {(r + 1, s + 1): v for r, s, v in moves}) == d
    assert all(v for _, _, v in moves)


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


def test_tau_swaps_only_singular_positions():
    frame = SingularFrame(2, 1, 2, Tableau.from_rows(
        [[0, F(2, 5), F(9, 7)], [F(1, 3), F(1, 3)], [F(1, 11)]]))
    rng = random.Random(11)
    for _ in range(50):
        z = fixtures.random_shift(rng, 3, bound=4)
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


def test_shift_sum_rejects_a_rank_mismatch():
    z = ShiftVector.of(4, {(3, 1): 5})
    assert (ShiftVector.zero(4) + z) == z
    with pytest.raises(ValueError):
        ShiftVector.zero(3) + z
    with pytest.raises(ValueError):
        z + ShiftVector.zero(3)


@pytest.mark.parametrize("r, s", [(0, 1), (1, 0), (-1, 1)])
def test_row_or_position_below_one_is_rejected(r, s):
    """Row 0 or position 0 would index -1 and read another cell; the
    row-only readers of a PermTuple get the index below one."""
    z = ShiftVector.of(3, {(1, 1): 1, (2, 2): 7})
    t = Tableau.from_text("(2,1/3,-5/3|1/4,7/10|1/7)")
    p = PermTuple.row_transposition(3, 2, 1, 2)
    row = min(r, s)
    for read in (lambda: z.get(r, s), lambda: ShiftVector.of(3, {(r, s): 1}),
                 lambda: t.base(r, s), lambda: t.entry(r, s),
                 lambda: t.with_tcoefs({(r, s): 1}),
                 lambda: p.row(row), lambda: p.is_identity_row(row)):
        with pytest.raises(IndexError):
            read()
    assert z.get(1, 1) == 1 and z.get(2, 2) == 7 and t.base(1, 1) == F(1, 7)
    assert p.row(2) == (2, 1) and p.is_identity_row(3) and not p.is_identity_row(2)
