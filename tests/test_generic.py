"""Generic-base module: action, brackets, central family, submodule tests."""

import itertools
import random
from fractions import Fraction

from gtmod import fixtures
from gtmod.coeffs import perm_action
from gtmod.generic import GenericModule, submodule_membership
from gtmod.lincomb import LinComb
from gtmod.tableaux import ShiftVector, Tableau, window_shifts

F = Fraction


def test_diagonal_generators_are_eigen():
    mod = GenericModule(fixtures.generic_base_n3())
    z = ShiftVector.from_text(3, "(1,-1|0)")
    x = LinComb.single(z)
    shifted = mod.base.with_shift(z)
    row_sums = [sum(shifted.base(r, s) for s in range(1, r + 1)) for r in range(0, 4)]
    for k in range(1, 4):
        out = mod.act(k, k, x)
        assert set(out.keys()) <= {z}
        assert out.coeff(z) == row_sums[k] - row_sums[k - 1] + (k - 1)
    assert mod.act(1, 1, x) == LinComb.single(z, shifted.base(1, 1))


def test_sl2_triple_relation_n2():
    base = Tableau.from_rows([[F(3, 2), F(-5, 2)], [F(1, 7)]])
    mod = GenericModule(base)
    z = ShiftVector.zero(2)
    x = LinComb.single(z)
    lhs = mod.act(1, 2, mod.act(2, 1, x)) - mod.act(2, 1, mod.act(1, 2, x))
    rhs = mod.act(1, 1, x) - mod.act(2, 2, x)
    assert lhs == rhs


def test_action_is_linear():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(31)
    for _ in range(100):
        l, m = rng.randint(1, 3), rng.randint(1, 3)
        x = LinComb.single(fixtures.random_shift(rng, 3), F(rng.randint(-5, 5), rng.randint(1, 4)))
        y = LinComb.single(fixtures.random_shift(rng, 3), F(rng.randint(-5, 5), rng.randint(1, 4)))
        assert mod.act(l, m, x + y) == mod.act(l, m, x) + mod.act(l, m, y)


def test_bracket_relations_sampled_n3():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(41)
    gens = [(a, b) for a in range(1, 4) for b in range(1, 4)]
    for _ in range(60):
        g1, g2 = rng.sample(gens, 2)
        z = fixtures.random_shift(rng, 3, bound=2)
        assert mod.bracket_defect(g1, g2, z).is_zero


def test_bracket_relations_sampled_n4():
    rng = random.Random(43)
    mod = GenericModule(fixtures.random_generic_tableau(rng, 4))
    gens = [(a, b) for a in range(1, 5) for b in range(1, 5)]
    for _ in range(25):
        g1, g2 = rng.sample(gens, 2)
        z = fixtures.random_shift(rng, 4, bound=1)
        assert mod.bracket_defect(g1, g2, z).is_zero


def test_composite_equals_nested_commutator_window_n3():
    """E_13 agrees with [E_12, E_23] as operators, exhaustively on a window."""
    mod = GenericModule(fixtures.generic_base_n3())
    for z in window_shifts(3, 1):
        x = LinComb.single(z)
        direct = mod.act(1, 3, x)
        nested = (mod.act(1, 2, mod.act(2, 3, x))
                  - mod.act(2, 3, mod.act(1, 2, x)))
        assert direct == nested
        direct_low = mod.act(3, 1, x)
        nested_low = (mod.act(3, 2, mod.act(2, 1, x))
                      - mod.act(2, 1, mod.act(3, 2, x)))
        assert direct_low == nested_low


def test_bracket_relations_sampled_n5():
    rng = random.Random(47)
    mod = GenericModule(fixtures.random_generic_tableau(rng, 5))
    gens = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    for _ in range(10):
        g1, g2 = rng.sample(gens, 2)
        z = fixtures.random_shift(rng, 5, bound=1)
        assert mod.bracket_defect(g1, g2, z).is_zero


def test_gamma_eigenvalue_closed_forms():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(53)
    for _ in range(20):
        z = fixtures.random_shift(rng, 3)
        t = mod.base.with_shift(z)
        assert mod.gamma_eigenvalue(1, 1, z) == t.base(1, 1)
        assert mod.gamma_eigenvalue(2, 1, z) == t.base(2, 1) + t.base(2, 2) + 1


def test_character_separates_shifts():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(59)
    shifts = set()
    while len(shifts) < 50:
        shifts.add(fixtures.random_shift(rng, 3, bound=4))
    chars = {mod.character(z) for z in shifts}
    assert len(chars) == 50


def test_crs_composition_small_cases():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(61)
    z = fixtures.random_shift(rng, 3)
    x = LinComb.single(z)
    # c_11 = E_11
    assert mod.crs_via_composition(1, 1, x) == mod.act(1, 1, x)
    # c_21 = E_11 + E_22 acts by gamma_21
    assert mod.crs_via_composition(2, 1, x) == LinComb.single(z, mod.gamma_eigenvalue(2, 1, z))


def test_crs_composition_matches_gamma_c22():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(67)
    for _ in range(20):
        z = fixtures.random_shift(rng, 3, bound=2)
        x = LinComb.single(z)
        got = mod.crs_via_composition(2, 2, x)
        assert got == LinComb.single(z, mod.gamma_eigenvalue(2, 2, z))


def test_crs_composition_matches_gamma_row3():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(71)
    for (r, s) in ((3, 1), (3, 2), (3, 3)):
        for _ in range(4):
            z = fixtures.random_shift(rng, 3, bound=1)
            x = LinComb.single(z)
            assert mod.crs_via_composition(r, s, x) == LinComb.single(
                z, mod.gamma_eigenvalue(r, s, z))


def test_central_family_commutes():
    mod = GenericModule(fixtures.generic_base_n3())
    rng = random.Random(73)
    for _ in range(5):
        z = fixtures.random_shift(rng, 3, bound=1)
        x = LinComb.single(z)
        a = mod.crs_via_composition(2, 2, mod.crs_via_composition(3, 1, x))
        b = mod.crs_via_composition(3, 1, mod.crs_via_composition(2, 2, x))
        assert a == b


def test_submodule_membership_basics():
    base = Tableau.from_rows([[2, F(1, 3), F(-5, 3)], [0, F(1, 3)], [F(1, 3)]])
    assert submodule_membership(base, base)
    spread = Tableau.from_rows([[0, F(1, 3), F(5, 7)], [F(1, 2), F(2, 9)], [F(3, 11)]])
    other = Tableau.from_rows([[0, F(1, 3), F(5, 7)], [F(3, 2), F(2, 9)], [F(3, 11)]])
    assert submodule_membership(spread, other)  # empty set is a subset


def test_nongeneric_base_is_rejected_or_errors():
    import pytest
    from fractions import Fraction as FF
    bad = Tableau.from_rows([[1, 0, -1], [0, 0], [FF(1, 7)]])
    with pytest.raises(ValueError):
        GenericModule(bad)
    with pytest.raises(ZeroDivisionError):
        perm_action(2, 3, bad)


def test_omega_closure_under_single_generator_steps():
    """One generator application never leaves the submodule basis."""
    base = Tableau.from_rows([[2, F(1, 3), F(-5, 3)], [0, F(1, 3)], [F(1, 3)]])
    mod = GenericModule(base)
    for z in window_shifts(3, 1):
        left = base.with_shift(z)
        x = LinComb.single(z)
        for l in range(1, 4):
            for m in range(1, 4):
                for z2, c in mod.act(l, m, x).items():
                    assert c != 0
                    assert submodule_membership(left, base.with_shift(z2))


def test_columns_match_the_column_assembled_the_old_way():
    """Every E_lm at random shifts of random generic bases, n = 2..5: the
    module's column equals the sum of the permutation form's summands on
    the tableau at z, each at z + dz."""
    rng = random.Random(113)
    for n in range(2, 6):
        for _ in range(4):
            mod = GenericModule(fixtures.random_generic_tableau(rng, n))
            z = fixtures.random_shift(rng, n)
            for l, m in itertools.product(range(1, n + 1), repeat=2):
                old = LinComb.sum_terms((z + dz, e.const_value())
                                        for e, dz in perm_action(l, m, mod.base.with_shift(z)))
                assert mod.act_symbol(l, m, z) == old, (l, m, z)
