"""Reference base points and frames used by tests, demos and sample configs,
and the seeded random tableaux and shifts the suites and tests draw."""

from __future__ import annotations

import random
from fractions import Fraction

from .tableaux import ShiftVector, SingularFrame, Tableau

__all__ = [
    "generic_base_n3", "frame_n3", "frame_all_equal", "frame_n4",
    "frame_n4_row3", "random_generic_tableau", "random_shift",
]


def generic_base_n3() -> Tableau:
    """A generic base: all same-row differences on rows 1..2 noninteger."""
    return Tableau.from_text("(2,1/3,-5/3|1/4,7/10|1/7)")


def frame_n3() -> SingularFrame:
    """Singular pair in row 2; every cross-row difference noninteger, so the
    irreducibility hypothesis holds."""
    return SingularFrame(2, 1, 2, Tableau.from_text("(0,2/5,9/7|1/3,1/3|1/11)"))


def frame_all_equal(a=0) -> SingularFrame:
    """The all-equal base point: maximally degenerate cross-row structure;
    the module decomposes into ten pieces."""
    return SingularFrame(2, 1, 2, Tableau.from_rows([[a, a, a], [a, a], [a]]))


def frame_n4() -> SingularFrame:
    return SingularFrame(2, 1, 2, Tableau.from_text(
        "(0,1/2,1,3/2|1/5,2/7,3/11|1/3,1/3|1/11)"))


def frame_n4_row3() -> SingularFrame:
    """Singular pair (2,3) in row 3: exercises the conjugation branch of the
    twist (the swapped positions do not include position 1)."""
    return SingularFrame(3, 2, 3, Tableau.from_text(
        "(0,1/2,1,3/2|1/5,2/7,2/7|1/3,3/4|1/11)"))


def random_generic_tableau(rng: random.Random, n: int) -> Tableau:
    """Random tableau whose same-row differences (rows <= n-1) are all
    nonintegers: fractional parts are distinct multiples of 1/97 per row."""
    rows = []
    for r in range(n, 0, -1):
        if r == n:
            rows.append([rng.randint(-3, 3) for _ in range(r)])
        else:
            fracs = rng.sample(range(1, 97), r)
            rows.append([rng.randint(-3, 3) + Fraction(u, 97) for u in fracs])
    return Tableau.from_rows(rows)


def random_shift(rng: random.Random, n: int, bound: int = 3) -> ShiftVector:
    """Random shift vector with every component in [-bound, bound]."""
    return ShiftVector(n, tuple(
        tuple(rng.randint(-bound, bound) for _ in range(r))
        for r in range(n - 1, 0, -1)))
