"""The tableau module base that every module family subclasses.

:class:`TableauModule` holds a module's base tableau (for a singular
module, the t-line), its rank and its three stores, and implements every
shared operation on top of a family's ``_act_uncached(l, m, sym)``, E_{lm}
on one basis symbol as a :class:`LinComb`.  A family's class body re-binds
only the names that ``perfbench/tracer.py`` wraps per class, to these very
functions, since the tracer patches a class's own attributes.

The per-module caches, all created by ``__init__``: ``act_symbol``
memoizes the generator action, keyed by (l, m, symbol); ``perm_terms`` the
permutation-form terms a miss reads, keyed by (l, m) and the slice of
shift rows those terms read.  A miss of every family reads those terms
through ``perm_targets``, which pairs each nonzero jet with its target
z + sigma(eps_lm), built by moving z along the move list that
:func:`~gtmod.coeffs.perm_moves` plans once per (l, m, n), so only the
rows sigma(eps_lm) touches are rebuilt; the generic and finite families
sum the targets' constant values as integer ratios.  ``gamma`` memoizes
the closed-form gamma_{rs} as its
(half-derivative, value) pair at t = 0, keyed by (r, s) and the slice
holding the row-r shifts.  Shift rows are stored row 1 first, so either
slice is ``z.rows[lo - 1:hi]`` for tableau rows lo..hi; it stops short of
the fixed top row, and is empty for r = n.  A singular module also keeps a
symbol table, ``_symbols``, through which every canonical basis symbol its
action makes passes, so equal symbols across cached columns are one object.
Bracket defects and composed central words are both sums of signed
generator words, evaluated by the one ``_word_sum`` on a combination or
straight on a basis symbol, whose first step is then its cached column.

A suite that walks its window through ``sweep`` bounds the first two
caches: the sweep yields the symbols in slabs of equal z_11, the row-1
shift entry, lowest first.  A generator step moves z_11 by at most 1 and
canonicalizing never moves it, so once the sweep enters slab c no later
symbol reads a column, or the terms behind one, below c - 1; the sweep
drops those from ``_act_cache`` and ``_perm_cache`` as it goes.  The gamma
memo and the symbol table are kept whole.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import coeffs
from .lincomb import LinComb
from .tableaux import Tableau

__all__ = ["TableauModule", "sweep_order"]


def _shift(sym):
    """A basis symbol's shift: the symbol itself, or a singular symbol's
    ``shift``."""
    return getattr(sym, "shift", sym)


def _row1(sym) -> int:
    """z_11, the row-1 entry of a basis symbol's shift; 0 for n = 1, which
    has no row 1."""
    rows = _shift(sym).rows
    return rows[0][0] if rows else 0


def sweep_order(symbols) -> list:
    """The order in which :meth:`TableauModule.sweep` walks the given basis
    symbols: stably sorted by z_11."""
    return sorted(symbols, key=_row1)


class TableauModule:
    """gl(n) acting on the shifts of one base tableau, through a family's
    ``_act_uncached``; the stores are created here and nowhere else."""

    def __init__(self, base: Tableau):
        self.base = base
        self.n = base.n
        self._act_cache: dict = {}
        self._perm_cache: dict = {}
        self._gamma_cache: dict = {}

    def tableau_at(self, z) -> Tableau:
        """The basis tableau at shift z, the top row fixed."""
        return self.base.with_shift(z)

    def perm_terms(self, l: int, m: int, z) -> tuple:
        """The permutation-form terms of E_{lm} at the basis tableau of shift z
        (:func:`~gtmod.coeffs.perm_action`), memoized by the shift rows that
        they read (:func:`~gtmod.coeffs.rows_read`; the top row is fixed, and
        the base and its scale belong to the module).  A hit builds no
        tableau."""
        rows = coeffs.rows_read(l, m)
        key = (l, m, z.rows[rows.start - 1:rows.stop - 1])
        hit = self._perm_cache.get(key)
        if hit is None:
            hit = self._perm_cache[key] = tuple(coeffs.perm_action(l, m, self.tableau_at(z)))
        return hit

    def perm_targets(self, l: int, m: int, z) -> list:
        """The ``perm_terms`` of E_{lm} at shift z whose jet is nonzero, as
        (jet, z + sigma(eps_lm)) pairs: each target is z moved by the move
        list of sigma(eps_lm) (:func:`~gtmod.coeffs.perm_moves`), which
        rebuilds only the rows that sigma(eps_lm) touches.  Every family's
        cache miss reads its targets here and nowhere else."""
        moved = z.moved
        return [(e, moved(moves)) for (e, _), moves
                in zip(self.perm_terms(l, m, z), coeffs.perm_moves(l, m, self.n)) if e.a0]

    def act_symbol(self, l: int, m: int, sym) -> LinComb:
        """E_{lm} on one basis symbol; a cache miss runs the family's
        ``_act_uncached``."""
        key = (l, m, sym)
        hit = self._act_cache.get(key)
        if hit is None:
            hit = self._act_cache[key] = self._act_uncached(l, m, sym)
        return hit

    def act(self, l: int, m: int, x) -> LinComb:
        """E_{lm} on a linear combination of basis symbols, or on one basis
        symbol, where it is that symbol's ``act_symbol`` column itself."""
        if not isinstance(x, LinComb):
            return self.act_symbol(l, m, x)
        return LinComb.images([(1, x, functools.partial(self.act_symbol, l, m))])

    def sweep(self, symbols):
        """The given basis symbols, stably sorted by z_11, dropping on the way
        every cached column, and every memoized term list, that no later
        symbol can read.

        The invariant: a generator step moves z_11 by at most 1, because
        sigma(eps_lm) puts one +-1 in each row min(l, m)..max(l, m) - 1, and
        canonicalizing never moves it, because tau swaps two entries of row
        k >= 2.  So a bracket defect on a symbol with z_11 = c reads columns
        only at z_11 = c - 1, c and c + 1, and a lone ``act_symbol`` only its
        own column.  On entering slab c the sweep deletes each ``_act_cache``
        entry whose symbol has z_11 < c - 1, and each ``_perm_cache`` entry
        whose key slice holds row 1 (its first row has one entry) with a value
        below c - 1; every later symbol has z_11 >= c, so nothing deleted is
        read again.  (A dropped memo could only cost a recomputation, never a
        wrong value; a central word of length s reaches s - 1 slabs back, so it
        would recompute.)"""
        act_cache, perm_cache = self._act_cache, self._perm_cache
        for c, slab in itertools.groupby(sweep_order(symbols), key=_row1):
            for key in [key for key in act_cache if _row1(key[2]) < c - 1]:
                del act_cache[key]
            for key in [key for key in perm_cache
                        if key[2] and len(key[2][0]) == 1 and key[2][0][0] < c - 1]:
                del perm_cache[key]
            yield from slab

    def _word_sum(self, words, x) -> LinComb:
        """The sum of c * E_{g1} E_{g2} ... E_{gL} x over ``(c, (g1, ..., gL))``,
        x a combination or one basis symbol: each word's prefix
        E_{g2} ... E_{gL} x by ``act`` (on a symbol, its first step is an
        ``act_symbol`` column), stopping at zero, and then, word by word, its
        last generator E_{g1} read off the ``act_symbol`` columns, all words
        summed in integers in one pass.  Every prefix is taken before any last
        column is read, so the columns a sweep misses on are computed in the
        same order whether x is a symbol or its single-term combination."""
        parts = []
        for c, (first, *prefix) in words:
            y = x
            for l, m in reversed(prefix):
                y = self.act(l, m, y)
                if y.is_zero:
                    break
            parts.append((c, y, functools.partial(self.act_symbol, *first)))
        return LinComb.images(parts)

    def bracket_defect(self, g1: tuple[int, int], g2: tuple[int, int], sym) -> LinComb:
        """[E_{g1}, E_{g2}] minus its structure-constant value on one symbol;
        zero iff the commutation relation holds there.  With g1 = (a, b) and
        g2 = (c, d) that is E_ab E_cd - E_cd E_ab - delta_bc E_ad + delta_da E_cb."""
        a, b = g1
        c, d = g2
        words = [(1, (g1, g2)), (-1, (g2, g1))]
        if b == c:
            words.append((-1, ((a, d),)))
        if d == a:
            words.append((1, ((c, b),)))
        return self._word_sum(words, sym)

    def crs_via_composition(self, r: int, s: int, x) -> LinComb:
        """The central generator c_{rs} on a combination or one basis symbol,
        as a sum of composed generator words E_{i_1 i_2} E_{i_2 i_3} ...
        E_{i_s i_1} over all index tuples."""
        return self._word_sum(((1, tuple(zip(tup, tup[1:] + tup[:1])))
                               for tup in itertools.product(range(1, r + 1), repeat=s)), x)

    def gamma(self, r: int, s: int, z) -> tuple[Fraction, Fraction]:
        """gamma_{rs} at the basis tableau of shift z, as its half-derivative
        and value at t = 0 (:func:`~gtmod.coeffs.gamma`), memoized by the row-r
        shifts (none for the fixed top row r = n)."""
        key = (r, s, z.rows[r - 1:r])
        hit = self._gamma_cache.get(key)
        if hit is None:
            hit = self._gamma_cache[key] = coeffs.gamma(r, s, self.tableau_at(z))
        return hit

    def character(self, z, max_row: int | None = None) -> tuple:
        """The values gamma_{rs} at t = 0 of shift z, for 1 <= s <= r <= max_row."""
        top = max_row if max_row is not None else self.n
        return tuple(self.gamma(r, s, z)[1]
                     for r in range(1, top + 1) for s in range(1, r + 1))

    def character_classes(self, symbols) -> dict[tuple, list]:
        """The given basis symbols grouped by the character of their shift, the
        classes and each class's symbols in the order the symbols come."""
        groups: dict[tuple, list] = {}
        for sym in symbols:
            groups.setdefault(self.character(_shift(sym)), []).append(sym)
        return groups

    def gamma_action(self, r: int, s: int, x: LinComb) -> LinComb:
        """c_{rs} in closed form, on a family where it acts by ``gamma_eigenvalue``."""
        return LinComb.sum_terms((z, c * self.gamma_eigenvalue(r, s, z)) for z, c in x.items())

    def gamma_eigenvalue(self, r: int, s: int, z) -> Fraction:
        """gamma_{rs} at shift z, on a family whose tableaux carry no t."""
        return self.gamma(r, s, z)[1]
