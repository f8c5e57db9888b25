"""Generator coefficients for tableau formulas.

Two presentations of the gl(n) action on tableaux live here:

* ``perm_action`` -- the permutation form, valid for every E_{lm}: one
  summand per sigma in Phi_{lm}, with coefficient ``e_{lm}(sigma(w))`` as
  its 2-jet at t = 0 (:class:`Jet`) and target shift ``sigma(epsilon_{lm})``.
  It is the one action algorithm of the generic, finite-dimensional and
  singular modules.  It swaps row entries directly, with no
  :class:`~gtmod.tableaux.PermTuple`; the ``formulas`` suite checks it, on
  a module's own tableau, against the ``PermTuple`` action.

* ``coeff_ratfun`` -- the same coefficient as a whole
  :class:`~gtmod.ratfun.RatFun`, from the same factors read as lists off
  the unscaled rational entries and multiplied out, sharing no fold with
  ``coeff_e``; only the ``formulas`` oracles read it.

* ``classical_action`` -- the Gelfand-Tsetlin formulas for the adjacent
  generators E_{k,k+1}, E_{k+1,k} and the diagonal E_{kk}, with plain
  rational coefficients; no module uses it, it is the independent oracle
  the ``formulas`` suite compares ``perm_action`` against.

The closed forms, with empty products equal to 1 (every factor is linear
in t, so :func:`coeff_e` folds them into a jet with no polynomial
arithmetic -- forward-mode truncated Taylor arithmetic).  Read off a
:class:`~gtmod.tableaux.Tableau`'s integer cells, each factor is
(B + C*t)/L with integers B and C (constants such as r - 1 and -1 scaled
too); numerator and denominator fold into integer jets in one pass each,
every off-diagonal factor read off its two cells (planned once per (r, s))
as it is multiplied in, and their quotient is an integer :class:`Jet`
reduced by one gcd:

    e_t^+(w)      = prod_{j=2}^{t+1} (w_t1 - w_{t+1,j}) / prod_{j=2}^{t} (w_t1 - w_tj)
    e_{t+1}^-(w)  = prod_{j=2}^{t-1} (w_t1 - w_{t-1,j}) / prod_{j=2}^{t} (w_t1 - w_tj)
    e_{k,k+1}(w)  = - prod_{j=1}^{k+1} (w_k1 - w_{k+1,j}) / prod_{j=2}^{k} (w_k1 - w_kj)
    e_{k+1,k}(w)  = prod_{j=1}^{k-1} (w_k1 - w_{k-1,j}) / prod_{j=2}^{k} (w_k1 - w_kj)

    e_{rs}(w) = (prod_{q=r}^{s-2} e_q^+(w)) * e_{s-1,s}(w)          for r < s
    e_{rs}(w) = e_{s+1,s}(w) * (prod_{q=s+2}^{r} e_q^-(w))          for r > s
    e_{rr}(w) = sum_i (w_ri + i - 1) - sum_i (w_{r-1,i} + i - 1)

and the symmetric functions

    gamma_{rs}(w) = sum_{i=1}^r (w_ri + r - 1)^s prod_{j != i} (1 - 1/(w_ri - w_rj)),

which always simplify to polynomials in the row-r entries.  The sum is
minus the finite residues of (x + r - 1)^s prod_i (x - 1 - w_ri)/(x - w_ri),
so it is the residue at infinity: with x = 1/u,

    gamma_{rs}(w) = -[u^{s+1}] (1 + (r-1)u)^s prod_i (1 - u/(1 - w_ri u)),

the generating series of the eigenvalues of the central elements (Molev,
arXiv:math/0211289).  :func:`gamma` reads that coefficient off the series
truncated at u^{s+1}, in integer 2-jets on the tableau's cells, never from
the displayed sum; repeated entries need no special case.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .ratfun import PoleError, Poly, RatFun
from .tableaux import ShiftVector, Tableau, phi_picks

__all__ = ["Jet", "coeff_e", "coeff_ratfun", "gamma", "classical_action", "perm_action",
           "perm_moves", "rows_read"]

Factor = tuple[Fraction | int, int]  # the linear function b + c*t
Cell = tuple[int, int, int]  # the factor rows[a][0] - rows[b][j]


class Jet(NamedTuple):
    """The 2-jet t^v * (a0 + a1*t + O(t^2)) / q of a coefficient at t = 0,
    in integers with q > 0 and gcd(a0, a1, q) = 1, so equal jets are equal
    tuples.

    a0 != 0 unless the coefficient is identically zero, which is the jet
    (0, 0, 0, 1); so v is the order of vanishing (a pole when v < 0).
    """

    v: int
    a0: int
    a1: int
    q: int

    def __neg__(self) -> "Jet":
        return self._replace(a0=-self.a0, a1=-self.a1)

    def d_ev(self) -> tuple[Fraction, Fraction]:
        """The half-derivative f'(0)/2 and the value f(0); raises
        :class:`~gtmod.ratfun.PoleError` on a pole."""
        (dn, dd), (en, ed) = self.d_ev_ratios()
        return Fraction(dn, dd), Fraction(en, ed)

    def d_ev_ratios(self, order: int = 0) -> tuple[tuple[int, int], tuple[int, int]]:
        """:meth:`d_ev` of t^order times the coefficient, order >= 0, as
        integer (numerator, denominator) pairs, not reduced: the jet's order
        of vanishing is read as v + order, and no second jet is built."""
        v, a0, a1, q = self
        v += order
        if v < 0:
            raise PoleError(f"pole of order {-v} at t=0: {self!r}")
        d = a1 if v == 0 else a0 if v == 1 else 0
        return (d, 2 * q), (a0 if v == 0 else 0, q)

    def const_ratio(self) -> tuple[int, int]:
        """(a0, q), the value of a coefficient read on a plain tableau
        (v = 0, a1 = 0) as an integer ratio in lowest terms."""
        if self.v or self.a1:
            raise ValueError(f"{self!r} is not constant")
        return self.a0, self.q

    def const_value(self) -> Fraction:
        """:meth:`const_ratio` as a ``Fraction``."""
        return Fraction(*self.const_ratio())


@functools.cache
def rows_read(l: int, m: int) -> range:
    """The tableau rows that e_{lm} reads, and so every term of
    ``perm_action(l, m, .)``: l..m when l < m, m-1..l-1 when l > m, and
    l-1..l when l = m (there is no row 0).  Memoized: the term memo reads
    it on every lookup, and a ``range`` is immutable."""
    if l < m:
        return range(l, m + 1)
    if l > m:
        return range(max(m - 1, 1), l)
    return range(max(l - 1, 1), l + 1)


@functools.cache
def _factor_cells(r: int, s: int) -> tuple[tuple[Cell, ...], tuple[Cell, ...]]:
    """e_{rs}, r != s, as numerator and denominator cells (a, b, j): the
    factor w_{a1} - w_{bj} read as ``rows[a][0] - rows[b][j]`` off tableau
    rows (row q is rows[q - 1]); the raising constant -1 is not among
    them."""
    def diffs(a: int, b: int, lo: int, hi: int) -> list[Cell]:
        # w_{a1} - w_{bj} for lo <= j < hi; none when lo >= hi, where row b
        # may not exist
        return [(a - 1, b - 1, j - 1) for j in range(lo, hi)]

    num: list[Cell] = []
    den: list[Cell] = []
    if r < s:
        for q in range(r, s - 1):  # e_q^+ for q = r..s-2
            num += diffs(q, q + 1, 2, q + 2)
            den += diffs(q, q, 2, q + 1)
        num += diffs(s - 1, s, 1, s + 1)  # e_{s-1,s}
        den += diffs(s - 1, s - 1, 2, s)
    else:
        num += diffs(s, s - 1, 1, s)
        den += diffs(s, s, 2, s + 1)
        for q in range(s + 2, r + 1):  # e_q^- for q = s+2..r, acting on row q-1
            num += diffs(q - 1, q - 2, 2, q - 1)
            den += diffs(q - 1, q - 1, 2, q)
    return tuple(num), tuple(den)


def _read_cells(rows, cells) -> list[Factor]:
    """The factors at the given cells of tableau rows."""
    out = []
    for a, b, j in cells:
        (b1, c1), (b2, c2) = rows[a][0], rows[b][j]
        out.append((b1 - b2, c1 - c2))
    return out


def _check_indices(r: int, s: int, n: int) -> None:
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"coeff_e({r},{s}) out of range for n={n}")


def _factors(r: int, s: int, rows, one: int = 1) -> tuple[list[Factor], list[Factor]]:
    """e_{rs} as ``prod(num) / prod(den)`` over factors linear in t, read
    off tableau rows of ``(base, tcoef)`` cells: unscaled rationals
    (``one`` = 1) or a :class:`Tableau`'s integer cells (``one`` = its
    scale L, so every factor, constants included, comes times L); the
    diagonal e_{rr} is a single numerator factor."""
    _check_indices(r, s, len(rows))
    if r == s:
        # sum_i (w_ri + i - 1) - sum_i (w_{r-1,i} + i - 1); the index parts
        # telescope to the constant r - 1.
        row, below = rows[r - 1], rows[r - 2] if r > 1 else ()
        return [((r - 1) * one + sum(b for b, _ in row) - sum(b for b, _ in below),
                 sum(c for _, c in row) - sum(c for _, c in below))], []
    num_cells, den_cells = _factor_cells(r, s)
    num = _read_cells(rows, num_cells)
    if r < s:
        num.append((-one, 0))  # the leading minus of e_{s-1,s}
    return num, _read_cells(rows, den_cells)


def _fold(rows, cells, x0: int = 1) -> tuple[int, int, int] | None:
    """The integer 2-jet (v, x0, x1), t^v * (x0 + x1*t + O(t^2)), of the
    integer x0 times the factors at the given cells of integer tableau
    rows (:func:`_factor_cells`), each b + c*t read as it is folded; None
    when some factor is identically zero."""
    v = x1 = 0
    for a, b, j in cells:
        (b1, c1), (b2, c2) = rows[a][0], rows[b][j]
        f0, f1 = b1 - b2, c1 - c2
        if not f0:
            if not f1:
                return None
            v, f0, f1 = v + 1, f1, 0  # the factor f1*t is t times the constant f1
        x1 = x1 * f0 + x0 * f1
        x0 *= f0
    return v, x0, x1


def coeff_e(r: int, s: int, w: Tableau) -> Jet:
    """The 2-jet at t = 0 of the coefficient function e_{rs} on the tableau
    w, in integers on w's integer cells: off the diagonal, the factors at
    the cells of :func:`_factor_cells` folded in one pass, the raising
    constant -1 (times the scale L) as the fold's starting value; on it,
    the one factor of :func:`_factors`.  Raises ``ZeroDivisionError`` when
    a denominator factor vanishes identically."""
    rows, scale = w
    if r == s:
        [(f0, f1)], _ = _factors(r, s, rows, scale)  # one factor, no denominator
        f = (0, f0, f1) if f0 else (1, f1, 0) if f1 else None
        d, k = (0, 1, 0), -1
    else:
        _check_indices(r, s, len(rows))
        num, den = _factor_cells(r, s)
        d = _fold(rows, den)
        if d is None:
            raise ZeroDivisionError("zero denominator in coefficient function")
        f = _fold(rows, num, -scale if r < s else 1)
        k = len(den) - len(num) - (r < s)
    if f is None:
        return Jet(0, 0, 0, 1)
    v, x0, x1 = f
    dv, d0, d1 = d
    # Every factor carries one 1/L, so e = L^k (x0 + x1 t) / (d0 + d1 t)
    # t^(v - dv) with k = #den - #num (a raising -1 counted in #num), and
    # (x0 + x1 t) / (d0 + d1 t) = (x0 d0 + (x1 d0 - x0 d1) t) / d0^2 + O(t^2).
    top, bottom = (scale ** k, 1) if k >= 0 else (1, scale ** -k)
    a0, a1, q = top * x0 * d0, top * (x1 * d0 - x0 * d1), bottom * d0 * d0
    g = math.gcd(a0, a1, q)
    return Jet(v - dv, a0 // g, a1 // g, q // g)


def coeff_ratfun(r: int, s: int, w: Tableau) -> RatFun:
    """The coefficient function e_{rs} on the tableau w as a whole rational
    function of t: the factor lists of :func:`_factors` on the unscaled
    rational entries, multiplied out; it shares no fold with
    :func:`coeff_e`, which the ``jet-vs-ratfun`` check compares it with."""
    num, den = _factors(r, s, w.fraction_rows())
    return RatFun(math.prod(map(Poly, num), start=Poly([1])),
                  math.prod(map(Poly, den), start=Poly([1])))


def gamma(r: int, s: int, w: Tableau) -> tuple[Fraction, Fraction]:
    """(g'(0)/2, g(0)), as :meth:`Jet.d_ev`, for g = gamma_{rs} on the
    row-r entries of w, read off its generating series.

    With U = u/L (L the tableau's scale) and the row-r cells (b_i, c_i),
    w_ri u = (b_i + c_i t) U, so every U^k coefficient of
    (1 + (r-1)LU)^s prod_i (1 - LU/(1 - (b_i + c_i t)U)) is an integer
    polynomial in t, kept as its 2-jet (x0, x1); gamma_{rs} is minus the
    U^{s+1} coefficient over L^{s+1}.
    """
    rows, scale = w
    n = len(rows)
    if not (1 <= s and 1 <= r <= n):
        raise ValueError(f"gamma({r},{s}) out of range for n={n}")
    series = [(math.comb(s, k) * ((r - 1) * scale) ** k, 0) for k in range(s + 2)]
    for b, c in rows[r - 1]:
        # times 1 - LU/(1 - aU), a = b + c*t: V = series * U/(1 - aU) has
        # V_k = series_{k-1} + a*V_{k-1}, and the product is series - L*V
        v0 = v1 = 0
        out = series[:1]
        for (p0, p1), (x0, x1) in zip(series, series[1:]):
            v0, v1 = p0 + b * v0, p1 + b * v1 + c * v0
            out.append((x0 - scale * v0, x1 - scale * v1))
        series = out
    x0, x1 = series[s + 1]
    den = scale ** (s + 1)
    return Fraction(-x1, 2 * den), Fraction(-x0, den)


def classical_action(l: int, m: int, t: Tableau) -> list[tuple[Fraction, ShiftVector]]:
    """Summands of the Gelfand-Tsetlin formulas for an adjacent or diagonal
    generator on a plain tableau.

    Returns one ``(coefficient, shift)`` pair per displayed summand,
    including zero coefficients; no summand is ever discarded.
    """
    if not t.is_plain:
        raise ValueError("classical formulas act on plain tableaux")
    n = t.n
    if abs(l - m) > 1:
        raise ValueError("classical form covers E_{k,k+1}, E_{k+1,k}, E_{kk} only")
    out: list[tuple[Fraction, ShiftVector]] = []
    if l == m:
        val = Fraction(l - 1)
        for idx in range(1, l + 1):
            val += t.base(l, idx)
        for idx in range(1, l):
            val -= t.base(l - 1, idx)
        return [(val, ShiftVector.zero(n))]
    k = min(l, m)
    raising = l < m
    for i in range(1, k + 1):
        den = Fraction(1)
        for j in range(1, k + 1):
            if j != i:
                den *= t.base(k, i) - t.base(k, j)
        if den == 0:
            raise ZeroDivisionError(
                f"vanishing denominator in classical formula at row {k}, entry {i}")
        num = Fraction(1)
        if raising:
            for j in range(1, k + 2):
                num *= t.base(k, i) - t.base(k + 1, j)
            coeff = -num / den
            shift = ShiftVector.delta(n, k, i)
        else:
            for j in range(1, k):
                num *= t.base(k, i) - t.base(k - 1, j)
            coeff = num / den
            shift = -ShiftVector.delta(n, k, i)
        out.append((coeff, shift))
    return out


def _swap_first(row: tuple, a: int) -> tuple:
    """The row with its entries 1 and a exchanged, a > 1."""
    return (row[a - 1],) + row[1:a - 1] + (row[0],) + row[a:]


@functools.cache
def _perm_plan(l: int, m: int, n: int) -> tuple[tuple[tuple, ShiftVector], ...]:
    """Per pick of :func:`~gtmod.tableaux.phi_picks`, in its order: the
    swaps (row index q - 1, a) with a != 1 that sigma makes, and
    sigma(epsilon_{lm})."""
    lo, sign = min(l, m), 1 if l < m else -1
    plan = []
    for picks in phi_picks(l, m, n):
        pairs = tuple(enumerate(picks, start=lo))  # (row q, a_q)
        plan.append((tuple((q - 1, a) for q, a in pairs if a != 1),
                     ShiftVector.of(n, {(q, a): sign for q, a in pairs})))
    return tuple(plan)


@functools.cache
def perm_moves(l: int, m: int, n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The move lists of the target shifts sigma(epsilon_{lm}) of
    :func:`perm_action`, in the order of its terms: one +-1 in each row
    min(l, m)..max(l, m) - 1, so a target z + sigma(epsilon_{lm}) is
    ``z.moved(moves)``, which rebuilds only those rows."""
    return tuple(shift.moves() for _, shift in _perm_plan(l, m, n))


def perm_action(l: int, m: int, t: Tableau) -> list[tuple[Jet, ShiftVector]]:
    """Permutation form of the generator action: one
    ``(e_{lm}(sigma(w)), sigma(epsilon_{lm}))`` pair per sigma in Phi_{lm}.

    sigma is the row-q transposition (1, a_q) for each pick of
    :func:`~gtmod.tableaux.phi_picks`, so sigma(w) swaps the entries 1 and
    a_q of row q, and sigma(epsilon_{lm}) = +-sum_q delta(q, a_q) (minus
    when l > m).  The swaps run on t's integer cells; the swap positions
    and target shifts are planned once per (l, m, n).
    """
    rows, scale = t
    out = []
    for swaps, shift in _perm_plan(l, m, len(rows)):
        moved = list(rows)
        for idx, a in swaps:
            moved[idx] = _swap_first(rows[idx], a)
        out.append((coeff_e(l, m, Tableau(tuple(moved), scale)), shift))
    return out
