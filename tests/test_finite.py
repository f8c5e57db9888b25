"""Finite-dimensional modules: the permutation form on standard tableaux."""

import itertools

import pytest

from gtmod.coeffs import perm_action
from gtmod.finite import FiniteModule, weyl_dimension
from gtmod.lincomb import LinComb
from gtmod.tableaux import ShiftVector

WEIGHTS = [(2, 1, 0), (3, 1, 0), (2, 2, 0), (1, 0, 0, 0), (2, 1, 0, 0), (2, 1, 0, -1)]


def test_finite_module_drops_nonstandard():
    mod = FiniteModule((1, 0))
    hw = ShiftVector.zero(2)
    assert hw in mod.basis and mod.dimension == 2
    # raising from the highest weight: the target is not standard, so zero
    assert mod.act_symbol(1, 2, hw).is_zero
    assert mod.act_symbol(2, 1, hw) == LinComb.single(-ShiftVector.delta(2, 1, 1))


@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_finite_module_weight_table(lam):
    mod = FiniteModule(lam)
    n = mod.n
    assert mod.dimension == weyl_dimension(lam)
    gens = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    pairs = [(r, s) for r in range(1, min(n, 3) + 1) for s in range(1, r + 1)]
    for z in mod.basis:
        for g1, g2 in itertools.combinations(gens, 2):
            assert mod.bracket_defect(g1, g2, z).is_zero, (g1, g2, z)
        x = LinComb.single(z)
        for r, s in pairs:
            assert mod.crs_via_composition(r, s, x) == mod.gamma_action(r, s, x), (r, s, z)


@pytest.mark.parametrize("lam", WEIGHTS, ids=str)
def test_columns_match_the_column_assembled_the_old_way(lam):
    """Every E_lm on every basis shift: the module's column equals the sum of
    the permutation form's summands on the tableau at z, each at z + dz and
    kept where z + dz is a basis shift."""
    mod = FiniteModule(lam)
    basis = set(mod.basis)
    for z in mod.basis:
        for l, m in itertools.product(range(1, mod.n + 1), repeat=2):
            old = LinComb.sum_terms((z + dz, e.const_value())
                                    for e, dz in perm_action(l, m, mod.base.with_shift(z))
                                    if z + dz in basis)
            assert mod.act_symbol(l, m, z) == old, (l, m, z)
