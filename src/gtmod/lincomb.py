"""Sparse formal linear combinations over Q.

Module vectors are finite formal sums of basis symbols with exact rational
coefficients.  Keys only need to be hashable; zero coefficients are never
stored, so two combinations are equal iff their term dicts are equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

__all__ = ["LinComb"]


class LinComb:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[key] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LinComb is immutable")

    @staticmethod
    def zero() -> "LinComb":
        return LinComb()

    @staticmethod
    def single(key, coeff=1) -> "LinComb":
        return LinComb({key: Fraction(coeff)})

    def coeff(self, key) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def items(self) -> Iterator[tuple[object, Fraction]]:
        return iter(self._terms.items())

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
    def sum_terms(pairs, start: Mapping | None = None) -> "LinComb":
        """The sum of ``(key, coeff)`` pairs (``Fraction`` coefficients) plus
        ``start``, accumulated in one dict; a key whose sum cancels to zero
        is dropped, and comes back if a later pair revives it."""
        out = dict(start) if start else {}
        for key, coeff in pairs:
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        result = LinComb()
        object.__setattr__(result, "_terms", out)
        return result

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.sum_terms(other._terms.items(), self._terms)

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __neg__(self) -> "LinComb":
        return (-1) * self

    def __rmul__(self, scalar) -> "LinComb":
        scalar = Fraction(scalar)
        if not scalar:
            return LinComb()
        result = LinComb()
        object.__setattr__(result, "_terms",
                           {k: scalar * c for k, c in self._terms.items()})
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in sorted(self._terms.items(), key=lambda kv: repr(kv[0])):
            if coeff == 1:
                parts.append(f"{key!r}")
            elif coeff == -1:
                parts.append(f"-{key!r}")
            else:
                parts.append(f"{coeff}*{key!r}")
        return " + ".join(parts).replace("+ -", "- ")
