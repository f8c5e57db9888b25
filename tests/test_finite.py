"""Finite-dimensional modules: the permutation form on standard tableaux."""

import itertools

import pytest

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
