"""Exact univariate rational-function arithmetic over Q.

Every coefficient that appears in a tableau formula, once all tableau
entries are substituted, becomes a rational function of a single formal
variable ``t`` (the direction transverse to the singular hyperplane: the
two singular entries are ``a + t`` and ``a - t``, everything else is an
exact rational constant).  The module action reads coefficients as
integer 2-jets (:class:`gtmod.coeffs.Jet`) and gamma_rs as a value and
half-derivative pair; this module holds the whole functions, which only
the ``formulas`` oracles and the tests need:

* :class:`Poly` -- dense univariate polynomials over Q, held as integer
  coefficients over one positive denominator in lowest terms, so sums and
  products run in integers and equal polynomials have equal state;
  division is integer pseudo-division, and :func:`poly_gcd` is the
  primitive Euclidean algorithm over Z (Brown, J. ACM 18, 1971),
* :class:`RatFun` -- normalized quotients of two such polynomials
  (gcd cancelled, monic denominator), so equal functions have equal
  representations,
* the four point operators the oracles compare: evaluation at
  ``t = 0``, the half-derivative ``f -> f'(0)/2``, the reflection
  ``t -> -t``, and the divided difference ``(f - f(-t)) / (2t)``.

All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Poly", "RatFun", "PoleError", "poly_gcd", "T", "TWO_T", "ONE", "ZERO"]


class PoleError(ArithmeticError):
    """Evaluation or differentiation at ``t = 0`` hit a pole there."""


class Poly:
    """Univariate polynomial in ``t`` over Q.

    The state is the integer numerators ``_num``, dense by degree with no
    trailing zeros (the zero polynomial is the empty tuple), over one
    denominator ``_den > 0`` with gcd(_den, *_num) = 1, so ``==`` compares
    plain state.  ``coeffs`` gives the coefficients as ``Fraction``s.
    Instances are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        den = math.lcm(*[c.denominator for c in cs])
        _canonical(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self._num[k], self._den) if 0 <= k < len(self._num) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        den = math.lcm(self._den, other._den)
        ma, mb = den // self._den, den // other._den
        a = [c * ma for c in self._num]
        b = [c * mb for c in other._num]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return _poly(a, den)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self._num], self._den)

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _poly([c * other.numerator for c in self._num],
                         self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out, self._den * other._den)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        # s*A = Q*B + R in integers, with self = A/da and other = B/db, so
        # self = (Q*db / (s*da)) * other + R / (s*da)
        s, q, r = _pseudo_divmod(self._num, other._num)
        den = s * self._den
        return _poly([c * other._den for c in q], den), _poly(r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- analytic helpers --------------------------------------------------

    def reflect(self) -> "Poly":
        """Substitute ``t -> -t``."""
        return _poly([-c if k % 2 else c for k, c in enumerate(self._num)], self._den)

    def monic(self) -> "Poly":
        if self.is_zero or self._num[-1] == self._den:
            return self
        return _poly(list(self._num), self._num[-1])

    def order_at_zero(self) -> int:
        """Multiplicity of ``t = 0`` as a root (0 for nonzero constant term)."""
        if self.is_zero:
            raise ValueError("order at zero of the zero polynomial")
        k = 0
        while self._num[k] == 0:
            k += 1
        return k

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return " + ".join(parts).replace("+ -", "- ")


def _canonical(p: Poly, num: list[int], den: int) -> Poly:
    """Give p the state of sum_k num[k]/den * t^k (den != 0): trailing zeros
    stripped, the gcd divided out, the denominator positive."""
    while num and not num[-1]:
        num.pop()
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    object.__setattr__(p, "_num", tuple(c // g for c in num) if g != 1 else tuple(num))
    object.__setattr__(p, "_den", den // g)
    return p


def _poly(num: list[int], den: int = 1) -> Poly:
    return _canonical(object.__new__(Poly), num, den)


def _pseudo_divmod(a, b) -> tuple[int, list[int], list[int]]:
    """(s, q, r) with s*a = q*b + r and deg r < deg b, for integer
    coefficient sequences a and b (b with a nonzero lead): each step scales
    by the least positive s that makes its quotient term an integer, so s
    is 1 whenever the lead of b divides exactly."""
    lc, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(0, len(a) - db)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        lead = r[k + db]
        if not lead:
            continue
        if lead % lc:
            m = abs(lc) // math.gcd(lead, lc)
            r = [c * m for c in r]
            q = [c * m for c in q]
            s *= m
            lead *= m
        c = lead // lc
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] -= c * y
    del r[db:]
    return s, q, r


def _primitive(num) -> list[int]:
    """The integer coefficients num, trailing zeros stripped, divided by
    their gcd."""
    num = list(num)
    while num and not num[-1]:
        num.pop()
    g = math.gcd(*num)
    return [c // g for c in num] if g > 1 else num


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the primitive Euclidean algorithm over Z: each
    pseudo-remainder is divided by its content (gcd(0, b) = monic b)."""
    a, b = _primitive(a._num), _primitive(b._num)
    while b:
        if len(b) == 1:  # a nonzero constant
            return ONE
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    return _poly(a, a[-1]) if a else ZERO


ZERO = Poly()
ONE = Poly([1])
T = Poly([0, 1])
TWO_T = Poly([0, 2])  # the substituted value of x - y


class RatFun:
    """Quotient of two :class:`Poly` in canonical form.

    Canonical means: gcd(num, den) = 1 and den is monic.  Zero is stored as
    0/1.  Because the form is unique, ``==`` compares representations and
    agrees with equality of functions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den._num[-1]
            if lead != den._den:  # divide both by lead / den._den
                num = _poly([c * den._den for c in num._num], num._den * lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    # -- field operations --------------------------------------------------

    def __add__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        return self + (-_as_ratfun(other))

    def __rsub__(self, other) -> "RatFun":
        return _as_ratfun(other) - self

    def __mul__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return _as_ratfun(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFun(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- the point operators at t = 0 ---------------------------------------

    def pole_order(self) -> int:
        """Order of the pole at ``t = 0`` (0 when smooth there)."""
        return self.den.order_at_zero()

    def ev(self) -> Fraction:
        """Exact value ``f(0)``; raises :class:`PoleError` on a pole."""
        if self.pole_order() > 0:
            raise PoleError(f"pole of order {self.pole_order()} at t=0: {self!r}")
        (n0, _), (d0, _) = _low_terms(self.num), _low_terms(self.den)
        return Fraction(n0 * self.den._den, d0 * self.num._den)

    def d(self) -> Fraction:
        """The half-derivative ``f'(0) / 2``; raises on a pole at 0.

        Under the substitution x = a + t, y = a - t this equals the mixed
        directional derivative (d/dx - d/dy)/2 evaluated on the hyperplane.
        """
        if self.pole_order() > 0:
            raise PoleError(f"pole of order {self.pole_order()} at t=0: {self!r}")
        (n0, n1), (d0, d1) = _low_terms(self.num), _low_terms(self.den)
        # with the coefficients n_k / N and d_k / D of num and den,
        # (n1 d0 - n0 d1) / (N D) over d0^2 / D^2, halved
        return Fraction((n1 * d0 - n0 * d1) * self.den._den, 2 * self.num._den * d0 * d0)

    def tau(self) -> "RatFun":
        """The reflected function ``f(-t)``, renormalized."""
        return RatFun(self.num.reflect(), self.den.reflect())

    def divided_difference(self) -> "RatFun":
        """``(f - f(-t)) / (2t)`` -- the odd part of f over ``x - y``."""
        return (self - self.tau()) / RatFun(TWO_T)

    def __repr__(self) -> str:
        if self.den == ONE:
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def _low_terms(p: Poly) -> tuple[int, int]:
    """The integer numerators of p's t^0 and t^1 coefficients."""
    return (p._num + (0, 0))[:2]


def _as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFun(x)
    raise TypeError(f"cannot interpret {x!r} as a rational function")
