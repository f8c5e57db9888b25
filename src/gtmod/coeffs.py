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
  :class:`~gtmod.ratfun.RatFun`, from the same factors read off the
  unscaled rational entries; only the ``formulas`` oracles read it.

* ``classical_action`` -- the Gelfand-Tsetlin formulas for the adjacent
  generators E_{k,k+1}, E_{k+1,k} and the diagonal E_{kk}, with plain
  rational coefficients; no module uses it, it is the independent oracle
  the ``formulas`` suite compares ``perm_action`` against.

The closed forms, with empty products equal to 1 (every factor is linear
in t, so :func:`coeff_e` folds them into a jet with no polynomial
arithmetic -- forward-mode truncated Taylor arithmetic).  Read off a
:class:`~gtmod.tableaux.Tableau`'s integer cells, each factor is
(B + C*t)/L with integers B and C (constants such as r - 1 and -1 scaled
too); numerator and denominator fold into integer jets, and their quotient
is an integer :class:`Jet` reduced by one gcd:

    e_t^+(w)      = prod_{j=2}^{t+1} (w_t1 - w_{t+1,j}) / prod_{j=2}^{t} (w_t1 - w_tj)
    e_{t+1}^-(w)  = prod_{j=2}^{t-1} (w_t1 - w_{t-1,j}) / prod_{j=2}^{t} (w_t1 - w_tj)
    e_{k,k+1}(w)  = - prod_{j=1}^{k+1} (w_k1 - w_{k+1,j}) / prod_{j=2}^{k} (w_k1 - w_kj)
    e_{k+1,k}(w)  = prod_{j=1}^{k-1} (w_k1 - w_{k-1,j}) / prod_{j=2}^{k} (w_k1 - w_kj)

    e_{rs}(w) = (prod_{q=r}^{s-2} e_q^+(w)) * e_{s-1,s}(w)          for r < s
    e_{rs}(w) = e_{s+1,s}(w) * (prod_{q=s+2}^{r} e_q^-(w))          for r > s
    e_{rr}(w) = sum_i (w_ri + i - 1) - sum_i (w_{r-1,i} + i - 1)

and the symmetric functions

    gamma_{rs}(w) = sum_{i=1}^r (w_ri + r - 1)^s prod_{j != i} (1 - 1/(w_ri - w_rj)),

which always simplify to polynomials in the row-r entries; they are
computed from that polynomial (:func:`gamma_at_point`), never from the
displayed sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .ratfun import PoleError, Poly, RatFun
from .tableaux import ShiftVector, Tableau, phi_picks

__all__ = ["Jet", "coeff_e", "coeff_ratfun", "gamma", "gamma_at_point",
           "classical_action", "perm_action"]

Factor = tuple[Fraction | int, int]  # the linear function b + c*t


def _prod(factors) -> Poly:
    out = Poly([1])
    for f in factors:
        out = out * f
    return out


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

    def d_ev_ratios(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """:meth:`d_ev` as integer (numerator, denominator) pairs, not
        reduced."""
        v, a0, a1, q = self
        if v < 0:
            raise PoleError(f"pole of order {-v} at t=0: {self!r}")
        d = a1 if v == 0 else a0 if v == 1 else 0
        return (d, 2 * q), (a0 if v == 0 else 0, q)

    def const_value(self) -> Fraction:
        """a0/q, for a coefficient read on a plain tableau (v = 0, a1 = 0)."""
        if self.v or self.a1:
            raise ValueError(f"{self!r} is not constant")
        return Fraction(self.a0, self.q)


def _diffs(rows, a: int, b: int, lo: int, hi: int) -> list[Factor]:
    """The factors w_{a1} - w_{bj} for lo <= j < hi (none when lo >= hi,
    where row b may not exist); rows are top-first, so row r is rows[-r]."""
    if lo >= hi:
        return []
    b1, c1 = rows[-a][0]
    return [(b1 - b2, c1 - c2) for b2, c2 in rows[-b][lo - 1:hi - 1]]


def _factors(r: int, s: int, rows, one: int = 1) -> tuple[list[Factor], list[Factor]]:
    """e_{rs} as ``prod(num) / prod(den)`` over factors linear in t, read
    off tableau rows of ``(base, tcoef)`` cells: unscaled rationals
    (``one`` = 1) or a :class:`Tableau`'s integer cells (``one`` = its
    scale L, so every factor, constants included, comes times L); the
    diagonal e_{rr} is a single numerator factor."""
    n = len(rows)
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"coeff_e({r},{s}) out of range for n={n}")
    if r == s:
        # sum_i (w_ri + i - 1) - sum_i (w_{r-1,i} + i - 1); the index parts
        # telescope to the constant r - 1.
        row, below = rows[-r], rows[1 - r] if r > 1 else ()
        return [((r - 1) * one + sum(b for b, _ in row) - sum(b for b, _ in below),
                 sum(c for _, c in row) - sum(c for _, c in below))], []
    num: list[Factor] = []
    den: list[Factor] = []
    if r < s:
        for q in range(r, s - 1):  # e_q^+ for q = r..s-2
            num += _diffs(rows, q, q + 1, 2, q + 2)
            den += _diffs(rows, q, q, 2, q + 1)
        # e_{s-1,s}, with its leading minus as the constant factor -1
        num += [(-one, 0)] + _diffs(rows, s - 1, s, 1, s + 1)
        den += _diffs(rows, s - 1, s - 1, 2, s)
        return num, den
    num += _diffs(rows, s, s - 1, 1, s)
    den += _diffs(rows, s, s, 2, s + 1)
    for q in range(s + 2, r + 1):  # e_q^- for q = s+2..r, acting on row q-1
        num += _diffs(rows, q - 1, q - 2, 2, q - 1)
        den += _diffs(rows, q - 1, q - 1, 2, q)
    return num, den


def _fold(factors: list[Factor]) -> tuple[int, int, int] | None:
    """The integer 2-jet (v, x0, x1), t^v * (x0 + x1*t + O(t^2)), of a
    product of integer linear factors b + c*t; None when some factor is
    identically zero."""
    v, x0, x1 = 0, 1, 0
    for b, c in factors:
        if not b:
            if not c:
                return None
            v, b, c = v + 1, c, 0  # the factor c*t is t times the constant c
        x1 = x1 * b + x0 * c
        x0 *= b
    return v, x0, x1


def coeff_e(r: int, s: int, w: Tableau) -> Jet:
    """The 2-jet at t = 0 of the coefficient function e_{rs} on the tableau
    w, folded in integers from its linear factors on w's integer cells;
    raises ``ZeroDivisionError`` when a denominator factor vanishes
    identically."""
    rows, scale = w
    num, den = _factors(r, s, rows, scale)
    d = _fold(den)
    if d is None:
        raise ZeroDivisionError("zero denominator in coefficient function")
    f = _fold(num)
    if f is None:
        return Jet(0, 0, 0, 1)
    v, x0, x1 = f
    dv, d0, d1 = d
    # Every factor carries one 1/L, so e = L^(#den - #num) (x0 + x1 t) /
    # (d0 + d1 t) t^(v - dv), and (x0 + x1 t) / (d0 + d1 t) =
    # (x0 d0 + (x1 d0 - x0 d1) t) / d0^2 + O(t^2).
    k = len(den) - len(num)
    top, bottom = (scale ** k, 1) if k >= 0 else (1, scale ** -k)
    a0, a1, q = top * x0 * d0, top * (x1 * d0 - x0 * d1), bottom * d0 * d0
    g = math.gcd(a0, a1, q)
    return Jet(v - dv, a0 // g, a1 // g, q // g)


def coeff_ratfun(r: int, s: int, w: Tableau) -> RatFun:
    """The coefficient function e_{rs} on the tableau w as a whole rational
    function of t: the same factors as :func:`coeff_e`, multiplied out."""
    num, den = _factors(r, s, w.fraction_rows())
    return RatFun(_prod(map(Poly, num)), _prod(map(Poly, den)))


def gamma(r: int, s: int, w: Tableau) -> tuple[Fraction, Fraction]:
    """(g'(0)/2, g(0)), as :meth:`Jet.d_ev`, for g = gamma_{rs} on the
    row-r entries of w: g(0) = D^0 g(0) and g'(0) = sum_{q>=1} (-1)^(q+1)
    D^q g(0)/q over the forward differences of :func:`gamma_at_point` at
    t = 0..d (d = s if some row-r entry carries t, else 0); repeated
    entries need no special case.

    gamma_{rs} has total degree <= s in the entries, since reducing
    g(x) (P(x - 1) - P(x)) mod P(x) keeps weighted degree <= s + r - 1; so
    it has degree <= s in t.
    """
    n = w.n
    if not (1 <= s and 1 <= r <= n):
        raise ValueError(f"gamma({r},{s}) out of range for n={n}")
    row = w.fraction_rows()[n - r]
    ys = [gamma_at_point(r, s, [b + c * q for b, c in row])
          for q in range(s + 1 if any(c for _, c in row) else 1)]
    value, slope = ys[0], Fraction(0)
    for q in range(1, len(ys)):
        ys = [b - a for a, b in zip(ys, ys[1:])]
        slope += Fraction((-1) ** (q + 1), q) * ys[0]
    return slope / 2, value


def gamma_at_point(r: int, s: int, entries: list[Fraction]) -> Fraction:
    """Polynomial value of gamma_{rs} at given row-r entries, repeated
    entries allowed.

    With P(x) = prod_i (x - e_i) and g(x) = (x + r - 1)^s the sum equals
    - sum_i g(e_i) P(e_i - 1) / P'(e_i), a sum of residues, which is minus
    the x^{r-1} coefficient of g(x) P(x - 1) mod P(x); the remainder form
    needs no distinctness.
    """
    p = _prod(Poly([-e, 1]) for e in entries)
    shifted = _prod(Poly([-(e + 1), 1]) for e in entries)
    g = Poly([r - 1, 1]) ** s
    rem = (g * shifted) % p
    return -rem.coefficient(r - 1)


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


def perm_action(l: int, m: int, t: Tableau) -> list[tuple[Jet, ShiftVector]]:
    """Permutation form of the generator action: one
    ``(e_{lm}(sigma(w)), sigma(epsilon_{lm}))`` pair per sigma in Phi_{lm}.

    sigma is the row-q transposition (1, a_q) for each pick of
    :func:`~gtmod.tableaux.phi_picks`, so sigma(w) swaps the entries 1 and
    a_q of row q, and sigma(epsilon_{lm}) = +-sum_q delta(q, a_q) (minus
    when l > m).  The swaps run on t's integer cells.
    """
    rows, scale = t
    n = len(rows)
    lo, sign = min(l, m), 1 if l < m else -1
    zero = [(0,) * q for q in range(n - 1, 0, -1)]  # row q at index n-1-q
    out = []
    for picks in phi_picks(l, m, n):
        moved, shift = list(rows), zero.copy()
        for q, a in enumerate(picks, start=lo):
            if a != 1:
                moved[n - q] = _swap_first(rows[n - q], a)
            shift[n - 1 - q] = zero[n - 1 - q][:a - 1] + (sign,) + zero[n - 1 - q][a:]
        out.append((coeff_e(l, m, Tableau(tuple(moved), scale)),
                    ShiftVector(n, tuple(shift))))
    return out
