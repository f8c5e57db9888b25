"""Sparse formal linear combinations over Q.

Module vectors are finite formal sums of basis symbols (any hashable keys)
with exact rational coefficients, stored as nonzero integer numerators over
one denominator D > 0 with gcd(D, numerators) = 1, so equal combinations
have equal state.  Sums and scalings run in integers, with one lcm per
operation and one gcd per result; ``items`` and ``coeff`` give ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

__all__ = ["LinComb"]


def _combine(parts) -> "LinComb":
    """The sum of p/q * x over ``(p, q, x)``: integers p, q > 0, combination x."""
    return LinComb.from_ratios((key, p * num, q * x._den) for p, q, x in parts
                               for key, num in x._terms.items())


class LinComb:
    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping | None = None):
        made = LinComb.sum_terms((key, Fraction(c)) for key, c in (terms or {}).items())
        object.__setattr__(self, "_terms", made._terms)
        object.__setattr__(self, "_den", made._den)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(key, coeff=1) -> "LinComb":
        return LinComb({key: coeff})

    def coeff(self, key) -> Fraction:
        return Fraction(self._terms.get(key, 0), self._den)

    def items(self) -> Iterator[tuple[object, Fraction]]:
        den = self._den
        return ((key, Fraction(num, den)) for key, num in self._terms.items())

    def keys(self):
        return self._terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @staticmethod
    def from_ratios(triples) -> "LinComb":
        """The sum of num/den * key over integer ``(key, num, den)`` triples,
        den > 0, in canonical form; a key whose sum cancels is dropped, and
        comes back (last) if a later triple revives it."""
        triples = list(triples)
        den = math.lcm(*[d for _, _, d in triples])
        out: dict = {}
        for key, num, d in triples:
            acc = out.get(key, 0) + num * (den // d)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        g = math.gcd(den, *out.values())
        made = object.__new__(LinComb)
        object.__setattr__(made, "_terms", {key: num // g for key, num in out.items()}
                           if g != 1 else out)
        object.__setattr__(made, "_den", den // g)
        return made

    @staticmethod
    def sum_terms(pairs) -> "LinComb":
        """The sum of ``(key, coeff)`` pairs (``Fraction`` or ``int``
        coefficients), as :meth:`from_ratios`."""
        return LinComb.from_ratios((key, c.numerator, c.denominator) for key, c in pairs)

    @staticmethod
    def total(combos) -> "LinComb":
        """The sum of an iterable of combinations."""
        return _combine((1, 1, x) for x in combos)

    def linear_image(self, column) -> "LinComb":
        """The image of self under the linear map sending each key to the
        combination ``column(key)``."""
        den = self._den
        return _combine([(num, den, column(key)) for key, num in self._terms.items()])

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return _combine(((1, 1, self), (1, 1, other)))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        scalar = Fraction(scalar)
        return _combine(((scalar.numerator, scalar.denominator, self),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.items(), key=lambda kv: repr(kv[0])):
            if coeff == 1:
                parts.append(f"{key!r}")
            elif coeff == -1:
                parts.append(f"-{key!r}")
            else:
                parts.append(f"{coeff}*{key!r}")
        return " + ".join(parts).replace("+ -", "- ")
