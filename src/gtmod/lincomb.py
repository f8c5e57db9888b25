"""Sparse formal linear combinations over Q.

Module vectors are finite formal sums of basis symbols (any hashable keys)
with exact rational coefficients (``int`` or ``Fraction``; a ``float`` is a
``TypeError``), stored as nonzero integer numerators over one denominator
D > 0 with gcd(D, numerators) = 1, so equal combinations have equal state.
Sums, scalings and ``images`` (a sum of scaled images of combinations, or
of single keys, under linear maps given by their columns) run in integers,
with one lcm per operation and one gcd per result (an image that is one
column times 1 is that column, as it stands); ``items`` and ``coeff`` give
``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

__all__ = ["LinComb"]


def _ratio(c) -> tuple[int, int]:
    """An exact coefficient as its (numerator, denominator); TypeError for
    anything but an ``int`` or a ``Fraction``, a ``float`` included."""
    if isinstance(c, (int, Fraction)):
        return c.numerator, c.denominator
    raise TypeError(f"LinComb coefficients are int or Fraction, not {type(c).__name__}: {c!r}")


def _combine(parts) -> "LinComb":
    """The sum of p/q * x over ``(p, q, x)``: integers p and q > 0, combination x."""
    return LinComb.from_ratios([(key, p * num, q * x._den) for p, q, x in parts
                                for key, num in x._terms.items()])


class LinComb:
    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping | None = None):
        made = LinComb.sum_terms((terms or {}).items())
        object.__setattr__(self, "_terms", made._terms)
        object.__setattr__(self, "_den", made._den)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(key, coeff=1) -> "LinComb":
        return LinComb.sum_terms(((key, coeff),))

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
        return LinComb.from_ratios((key, *_ratio(c)) for key, c in pairs)

    @staticmethod
    def images(parts) -> "LinComb":
        """The sum of c * column(x) over ``(c, x, column)``: an ``int`` or
        ``Fraction`` c, x a combination or a single key (1 * key), and the
        linear map sending each key to the combination ``column(key)``.  The
        columns are read part by part, key by key.  A lone 1 * column(key)
        is ``column(key)`` itself: it is already canonical, and immutable."""
        scaled = []
        for c, x, column in parts:
            p, q = c.numerator, c.denominator
            if isinstance(x, LinComb):
                scaled += [(p * num, q * x._den, column(key)) for key, num in x._terms.items()]
            else:
                scaled.append((p, q, column(x)))
        if len(scaled) == 1 and scaled[0][:2] == (1, 1):
            return scaled[0][2]
        return _combine(scaled)

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return _combine(((1, 1, self), (1, 1, other)))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        return _combine(((*_ratio(scalar), self),))

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
