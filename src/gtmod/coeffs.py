"""Generator coefficients for tableau formulas.

Two presentations of the gl(n) action on tableaux live here:

* ``perm_action`` -- the permutation form, valid for every E_{lm}: one
  summand per sigma in Phi_{lm}, with coefficient ``e_{lm}(sigma(w))`` and
  target shift ``sigma(epsilon_{lm})``.  Coefficients come back as
  :class:`~gtmod.ratfun.RatFun`, so the same code path serves plain
  tableaux (constant functions) and t-carrying tableaux over a singular
  frame (genuine rational functions of t).  It is the one action
  algorithm: the generic, finite-dimensional and singular modules all
  read their generator action from it.

* ``classical_action`` -- the Gelfand-Tsetlin formulas for the adjacent
  generators E_{k,k+1}, E_{k+1,k} and the diagonal E_{kk}, with plain
  rational coefficients; no module uses it, it is the independent oracle
  the ``formulas`` suite compares ``perm_action`` against.

The closed forms, with empty products equal to 1:

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

from fractions import Fraction

from .ratfun import Poly, RatFun
from .tableaux import ShiftVector, Tableau, epsilon, phi_set

__all__ = ["coeff_e", "gamma", "gamma_at_point", "classical_action", "perm_action"]


def _prod(factors) -> Poly:
    out = Poly([1])
    for f in factors:
        out = out * f
    return out


def _diff(w: Tableau, r1: int, s1: int, r2: int, s2: int) -> Poly:
    return w.poly(r1, s1) - w.poly(r2, s2)


def coeff_e(r: int, s: int, w: Tableau) -> RatFun:
    """The coefficient function e_{rs} evaluated on the tableau w."""
    n = w.n
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"coeff_e({r},{s}) out of range for n={n}")
    if r == s:
        return _coeff_e_diagonal(r, w)

    num_factors: list[Poly] = []
    den_factors: list[Poly] = []
    sign = 1
    if r < s:
        for q in range(r, s - 1):  # e_q^+ for q = r..s-2
            num_factors += [_diff(w, q, 1, q + 1, j) for j in range(2, q + 2)]
            den_factors += [_diff(w, q, 1, q, j) for j in range(2, q + 1)]
        sign = -1  # leading minus of e_{s-1,s}
        num_factors += [_diff(w, s - 1, 1, s, j) for j in range(1, s + 1)]
        den_factors += [_diff(w, s - 1, 1, s - 1, j) for j in range(2, s)]
    else:
        num_factors += [_diff(w, s, 1, s - 1, j) for j in range(1, s)]
        den_factors += [_diff(w, s, 1, s, j) for j in range(2, s + 1)]
        for q in range(s + 2, r + 1):  # e_q^- for q = s+2..r, acting on row q-1
            num_factors += [_diff(w, q - 1, 1, q - 2, j) for j in range(2, q - 1)]
            den_factors += [_diff(w, q - 1, 1, q - 1, j) for j in range(2, q)]
    return RatFun(sign * _prod(num_factors), _prod(den_factors))


def _coeff_e_diagonal(r: int, w: Tableau) -> RatFun:
    # sum_i (w_ri + i - 1) - sum_i (w_{r-1,i} + i - 1); the index parts
    # telescope to the constant r - 1.
    acc = Poly([r - 1])
    for idx in range(1, r + 1):
        acc = acc + w.poly(r, idx)
    for idx in range(1, r):
        acc = acc - w.poly(r - 1, idx)
    return RatFun(acc)


def gamma(r: int, s: int, w: Tableau) -> RatFun:
    """The symmetric function gamma_{rs} on the row-r entries of w, as a
    polynomial in t, interpolated from :func:`gamma_at_point` at t = 0..d
    (d = s if some row-r entry carries t, else 0); repeated entries need no
    special case.

    gamma_{rs} has total degree <= s in the entries, since reducing
    g(x) (P(x - 1) - P(x)) mod P(x) keeps weighted degree <= s + r - 1; so
    it has degree <= s in t.
    """
    n = w.n
    if not (1 <= s and 1 <= r <= n):
        raise ValueError(f"gamma({r},{s}) out of range for n={n}")
    row = w.rows[n - r]
    ys = [gamma_at_point(r, s, [b + c * q for b, c in row])
          for q in range(s + 1 if any(c for _, c in row) else 1)]
    # Newton's forward-difference form on the samples t = 0, 1, ...
    total, falling = Poly(), Poly([1])
    for q in range(len(ys)):
        total = total + falling * ys[0]
        ys = [b - a for a, b in zip(ys, ys[1:])]
        falling = falling * Poly([Fraction(-q, q + 1), Fraction(1, q + 1)])
    return RatFun(total)


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


def perm_action(l: int, m: int, t: Tableau) -> list[tuple[RatFun, ShiftVector]]:
    """Permutation form of the generator action: one
    ``(e_{lm}(sigma(w)), sigma(epsilon_{lm}))`` pair per sigma in Phi_{lm}.
    """
    eps = epsilon(t.n, l, m)
    return [(coeff_e(l, m, sigma(t)), sigma(eps)) for sigma in phi_set(l, m, t.n)]
