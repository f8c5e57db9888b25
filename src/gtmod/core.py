"""The module operations shared by every tableau module family.

A family supplies ``_act_uncached(l, m, sym)``, E_{lm} on one basis symbol
as a :class:`LinComb`, and ``base``, its base tableau (for a singular
module, the t-line).  Everything here is built on those alone and is
bound into each family's class body (``act = core.act``), so every family
keeps these names in its own namespace.  ``act_symbol`` memoizes the
generator action per module, keyed by (l, m, symbol), and ``gamma`` the
closed-form gamma_{rs} as its (half-derivative, value) pair at t = 0.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import coeffs
from .lincomb import LinComb
from .tableaux import Tableau

__all__ = ["tableau_at", "act_symbol", "act", "bracket_defect", "crs_via_composition",
           "gamma", "character", "gamma_action", "gamma_eigenvalue"]


def tableau_at(self, z) -> Tableau:
    """The basis tableau at shift z, the top row fixed."""
    return self.base.with_shift(z)


def act_symbol(self, l: int, m: int, sym) -> LinComb:
    """E_{lm} on one basis symbol; a cache miss runs the family's
    ``_act_uncached``."""
    key = (l, m, sym)
    hit = self._act_cache.get(key)
    if hit is None:
        hit = self._act_cache[key] = self._act_uncached(l, m, sym)
    return hit


def act(self, l: int, m: int, x: LinComb) -> LinComb:
    """E_{lm} on a linear combination of basis symbols."""
    return x.linear_image(functools.partial(self.act_symbol, l, m))


def bracket_defect(self, g1: tuple[int, int], g2: tuple[int, int], sym) -> LinComb:
    """[E_{g1}, E_{g2}] minus its structure-constant value on one symbol;
    zero iff the commutation relation holds there."""
    a, b = g1
    c, d = g2
    x = LinComb.single(sym)
    lhs = self.act(a, b, self.act(c, d, x)) - self.act(c, d, self.act(a, b, x))
    rhs = LinComb.zero()
    if b == c:
        rhs = rhs + self.act(a, d, x)
    if d == a:
        rhs = rhs - self.act(c, b, x)
    return lhs - rhs


def crs_via_composition(self, r: int, s: int, x: LinComb) -> LinComb:
    """The central generator c_{rs} as a sum of composed generator words
    E_{i_1 i_2} E_{i_2 i_3} ... E_{i_s i_1} over all index tuples."""

    def word(tup: tuple[int, ...]) -> LinComb:
        y = x
        for l, m in reversed(list(zip(tup, tup[1:] + tup[:1]))):
            y = self.act(l, m, y)
            if y.is_zero:
                break
        return y

    return LinComb.total(word(tup) for tup in itertools.product(range(1, r + 1), repeat=s))


def gamma(self, r: int, s: int, z) -> tuple[Fraction, Fraction]:
    """gamma_{rs} at the basis tableau of shift z, as its half-derivative
    and value at t = 0 (:func:`~gtmod.coeffs.gamma`), memoized by the row-r
    shifts (none for the fixed top row r = n)."""
    key = (r, s, z.rows[self.n - 1 - r] if r < self.n else ())
    hit = self._gamma_cache.get(key)
    if hit is None:
        hit = self._gamma_cache[key] = coeffs.gamma(r, s, self.tableau_at(z))
    return hit


def character(self, z, max_row: int | None = None) -> tuple:
    """The values gamma_{rs} at t = 0 of shift z, for 1 <= s <= r <= max_row."""
    top = max_row if max_row is not None else self.n
    return tuple(self.gamma(r, s, z)[1]
                 for r in range(1, top + 1) for s in range(1, r + 1))


def gamma_action(self, r: int, s: int, x: LinComb) -> LinComb:
    """c_{rs} in closed form, on a family where it acts by ``gamma_eigenvalue``."""
    return LinComb.sum_terms((z, c * self.gamma_eigenvalue(r, s, z)) for z, c in x.items())


def gamma_eigenvalue(self, r: int, s: int, z) -> Fraction:
    """gamma_{rs} at shift z, on a family whose tableaux carry no t."""
    return self.gamma(r, s, z)[1]
