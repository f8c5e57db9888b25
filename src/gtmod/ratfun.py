"""Exact univariate rational-function arithmetic over Q.

Every coefficient that appears in a tableau formula, once all tableau
entries are substituted, becomes a rational function of a single formal
variable ``t`` (the direction transverse to the singular hyperplane: the
two singular entries are ``a + t`` and ``a - t``, everything else is an
exact rational constant).  The module action reads coefficients as
integer 2-jets (:class:`gtmod.coeffs.Jet`) and gamma_rs as a value and
half-derivative pair; this module holds the whole functions, which only
the ``formulas`` oracles and the tests need (``coeffs`` also uses
:class:`Poly` for its residue form of gamma_rs in the row entries):

* :class:`Poly` -- dense univariate polynomials with ``Fraction``
  coefficients,
* :class:`RatFun` -- normalized quotients of two such polynomials
  (gcd cancelled, monic denominator), so equal functions have equal
  representations,
* the four point operators the oracles compare: evaluation at
  ``t = 0``, the half-derivative ``f -> f'(0)/2``, the reflection
  ``t -> -t``, and the divided difference ``(f - f(-t)) / (2t)``.

All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = ["Poly", "RatFun", "PoleError", "poly_gcd", "T", "TWO_T", "ONE", "ZERO"]


class PoleError(ArithmeticError):
    """Evaluation or differentiation at ``t = 0`` hit a pole there."""


class Poly:
    """Univariate polynomial in ``t`` over ``Fraction``.

    Coefficients are stored densely by degree with no trailing zeros; the
    zero polynomial is the empty tuple.  Instances are immutable and
    hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

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
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlc = other.coeffs[-1]
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            c = rem[-1] / dlc
            q[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- analytic helpers --------------------------------------------------

    def reflect(self) -> "Poly":
        """Substitute ``t -> -t``."""
        return Poly([-c if k % 2 else c for k, c in enumerate(self.coeffs)])

    def monic(self) -> "Poly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        lead = self.coeffs[-1]
        return Poly([c / lead for c in self.coeffs])

    def order_at_zero(self) -> int:
        """Multiplicity of ``t = 0`` as a root (0 for nonzero constant term)."""
        if self.is_zero:
            raise ValueError("order at zero of the zero polynomial")
        k = 0
        while self.coeffs[k] == 0:
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


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm (gcd(0, b) = monic b)."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


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
            lead = den.coeffs[-1]
            if lead != 1:
                num = num * (Fraction(1) / lead)
                den = den * (Fraction(1) / lead)
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

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.num.is_zero

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
        return self.num.coefficient(0) / self.den.coefficient(0)

    def d(self) -> Fraction:
        """The half-derivative ``f'(0) / 2``; raises on a pole at 0.

        Under the substitution x = a + t, y = a - t this equals the mixed
        directional derivative (d/dx - d/dy)/2 evaluated on the hyperplane.
        """
        if self.pole_order() > 0:
            raise PoleError(f"pole of order {self.pole_order()} at t=0: {self!r}")
        n0 = self.num.coefficient(0)
        n1 = self.num.coefficient(1)
        d0 = self.den.coefficient(0)
        d1 = self.den.coefficient(1)
        return (n1 * d0 - n0 * d1) / (d0 * d0) / 2

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


def _as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFun(x)
    raise TypeError(f"cannot interpret {x!r} as a rational function")
