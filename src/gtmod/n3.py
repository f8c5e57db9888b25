"""The length-10 decomposition of the n = 3 module with an all-equal base.

For the base point with every entry equal, shifts are written in the
coordinates ``(m, n, k) = (z_21, z_22, z_11)``.  Each canonical symbol (a
regular one when m <= n, a derivative one when m > n) falls into exactly
one of ten pieces, each cut out by literal inequality blocks; the pieces
stack into the layers of the socle filtration

    L1 | L3 + L5 | L7 | L5' + L6 | L7' | L4 + L6' | L2

with L1 the socle.  Every generator maps a symbol of a piece into pieces
at the same or an earlier layer; the two pieces L7, L7' have weight spaces
that grow without bound as the window grows.
"""

from __future__ import annotations

from .singular import InvariantViolation
from .tableaux import ShiftVector

__all__ = ["classify_shift", "weight_key", "LOEWY_LAYERS"]


def _blocks(m: int, n: int, k: int) -> dict[str, bool]:
    reg = m <= n
    der = m > n
    return {
        "L1": (reg and n <= 0 and k <= n) or (der and m <= 0 and k <= n),
        "L3": (reg and n <= 0 and k > n) or (der and m <= 0 and k > n),
        "L2": (reg and m > 0 and k > n) or (der and n > 0 and k > n),
        "L4": (reg and m > 0 and k <= n) or (der and n > 0 and k <= n),
        "L5": reg and m <= 0 and n > 0 and k <= m,
        "L7": reg and m <= 0 and n > 0 and m < k <= n,
        "L6": reg and m <= 0 and n > 0 and k > n,
        "L5'": der and n <= 0 and m > 0 and k <= n,
        "L7'": der and n <= 0 and m > 0 and n < k <= m,
        "L6'": der and n <= 0 and m > 0 and k > m,
    }


LOEWY_LAYERS = {
    "L1": 0,
    "L3": 1, "L5": 1,
    "L7": 2,
    "L5'": 3, "L6": 3,
    "L7'": 4,
    "L4": 5, "L6'": 5,
    "L2": 6,
}


def classify_shift(z: ShiftVector) -> str:
    """The unique piece containing the canonical symbol at shift z.

    Raises :class:`~gtmod.singular.InvariantViolation` if the inequality
    blocks fail to cover z exactly once (they never should)."""
    if z.n != 3:
        raise ValueError("the ten-piece decomposition is specific to n = 3")
    m, n, k = z.get(2, 1), z.get(2, 2), z.get(1, 1)
    hits = [piece for piece, ok in _blocks(m, n, k).items() if ok]
    if len(hits) != 1:
        raise InvariantViolation(
            f"shift (m,n,k)=({m},{n},{k}) matched pieces {hits}")
    return hits[0]


def weight_key(z: ShiftVector) -> tuple[int, int]:
    """The gl(3) weight of the symbol at z, up to the fixed base point:
    determined by (z_11, z_21 + z_22)."""
    return (z.get(1, 1), z.get(2, 1) + z.get(2, 2))
