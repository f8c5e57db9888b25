"""Finite-dimensional highest-weight modules as standard-tableau spans.

For a dominant integral weight the standard tableaux with the fixed top
row ``(lam_1, lam_2 - 1, ..., lam_n - n + 1)`` form a basis.  Every
generator E_{lm} acts by the permutation form of :mod:`gtmod.coeffs`, the
same one the generic module uses, with the convention that a summand
whose target tableau is not standard is zero.  The classical adjacent
formulas are not used here; they stay in :mod:`gtmod.coeffs` as the
oracle the ``formulas`` suite compares the permutation form against.

The dimension has an independent oracle in the Weyl product formula; the
enumeration and the formula are compared in the regression suite.
"""

from __future__ import annotations

import itertools

from . import coeffs, core
from .lincomb import LinComb
from .tableaux import ShiftVector, Tableau, is_standard

__all__ = ["FiniteModule", "standard_tableaux", "weyl_dimension", "highest_weight_tableau"]


def weyl_dimension(lam: tuple[int, ...]) -> int:
    """dim of the irreducible with highest weight lam, by the Weyl product."""
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def top_row(lam: tuple[int, ...]) -> list[int]:
    return [lam[i] - i for i in range(len(lam))]


def highest_weight_tableau(lam: tuple[int, ...]) -> Tableau:
    """The standard tableau whose every row is a prefix of the top row."""
    row = top_row(lam)
    return Tableau.from_rows([row[:r] for r in range(len(lam), 0, -1)])


def standard_tableaux(lam: tuple[int, ...]) -> list[Tableau]:
    """All standard tableaux with the fixed top row, by interlacing ranges:
    each entry below runs over the integers [left-neighbour-above + 1,
    entry-above]."""
    results: list[list[list[int]]] = []

    def extend(rows: list[list[int]]):
        above = rows[-1]
        r = len(above) - 1
        if r == 0:
            results.append(rows)
            return
        ranges = [range(above[i + 1] + 1, above[i] + 1) for i in range(r)]
        for picks in itertools.product(*ranges):
            extend(rows + [list(picks)])

    extend([top_row(lam)])
    return [Tableau.from_rows(rows) for rows in results]


class FiniteModule:
    """The standard-tableau model of one finite-dimensional irreducible."""

    def __init__(self, lam: tuple[int, ...]):
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError("highest weight must be dominant (weakly decreasing)")
        if any(not isinstance(x, int) for x in lam):
            raise ValueError("integral weights only")
        self.lam = tuple(lam)
        self.n = len(lam)
        self.base = highest_weight_tableau(self.lam)
        shifts = []
        for t in standard_tableaux(self.lam):
            shifts.append(ShiftVector.of(self.n, {
                (r, s): int(t.base(r, s) - self.base.base(r, s))
                for r in range(1, self.n)
                for s in range(1, r + 1)
            }))
        self.basis: tuple[ShiftVector, ...] = tuple(shifts)
        self._basis_set = frozenset(shifts)
        self._act_cache: dict = {}
        self._gamma_cache: dict = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    tableau_at = core.tableau_at

    def _act_uncached(self, l: int, m: int, z: ShiftVector) -> LinComb:
        """E_{lm} at shift z: the permutation form, keeping the summands
        whose target tableau is standard.  No denominator vanishes, since
        every row of a standard tableau is strictly decreasing here."""
        terms = []
        for fn, dz in coeffs.perm_action(l, m, self.tableau_at(z)):
            target = z + dz
            if is_standard(self.tableau_at(target)):
                if target not in self._basis_set:
                    raise RuntimeError("standard span was not preserved")
                terms.append((target, fn.const_value()))
        return LinComb.sum_terms(terms)

    act_symbol = core.act_symbol
    act = core.act
    bracket_defect = core.bracket_defect
    crs_via_composition = core.crs_via_composition

    gamma = core.gamma
    gamma_action = core.gamma_action
    gamma_eigenvalue = core.gamma_eigenvalue
