"""Shared fixtures: the reference frames of :mod:`gtmod.fixtures`, and the
two config-free sweeps the acceptance criteria and the planted-defect tests
both run."""

import itertools
import random

import pytest

from gtmod import coeffs, fixtures
from gtmod.finite import FiniteModule, standard_tableaux, weyl_dimension
from gtmod.lincomb import LinComb
from gtmod.tableaux import is_standard
from gtmod.verify import Tally, _check_central_word, _gamma_pairs, _generators


@pytest.fixture
def frame_n3():
    return fixtures.frame_n3()


def sweep_classical_vs_perm(tally: Tally, rng: random.Random):
    """Classical presentation == permutation presentation on 100 random
    generic tableaux of sizes 2..4, term for term."""
    for _ in range(100):
        n = rng.randint(2, 4)
        t = fixtures.random_generic_tableau(rng, n)
        for kk in range(1, n):
            for (l, m) in ((kk, kk + 1), (kk + 1, kk), (kk, kk)):
                classical = LinComb.sum_terms(
                    (dz, c) for c, dz in coeffs.classical_action(l, m, t))
                perm = LinComb.sum_terms(
                    (dz, fn.const_value()) for fn, dz in coeffs.perm_action(l, m, t))
                tally.check(classical == perm, "classical-vs-permutation",
                            lambda: {"input": f"E({l},{m}) on {t.to_text()}",
                                     "lhs": repr(classical), "rhs": repr(perm)})


def sweep_finite_dim(tally: Tally):
    """gl(3) with highest weight (2,1,0): enumerated standard basis against
    the Weyl dimension, span preservation (every target tableau
    standard), brackets, central eigenvalues."""
    lam = (2, 1, 0)
    mod = FiniteModule(lam)
    count = len(standard_tableaux(lam))
    dim = weyl_dimension(lam)
    tally.check(count == dim == 8, "finite-dim-count",
                lambda: {"input": f"lam={lam}", "lhs": str(count), "rhs": str(dim)})
    gens = _generators(3)
    for z in mod.basis:
        for l, m in gens:
            out = mod.act_symbol(l, m, z)
            for key in out.keys():
                tally.check(is_standard(mod.tableau_at(key)), "finite-dim-span",
                            lambda: {"input": repr(key)})
        for g1, g2 in itertools.combinations(gens, 2):
            tally.check(mod.bracket_defect(g1, g2, z).is_zero, "finite-dim-bracket",
                        lambda: {"input": f"[E{g1},E{g2}] on {z!r}"})
        for (r, s) in _gamma_pairs(3):
            _check_central_word(tally, "finite-dim-gamma", mod, r, s, z)
