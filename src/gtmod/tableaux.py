"""Gelfand-Tsetlin tableaux, shift lattices and row-permutation machinery.

A tableau is a triangular array whose row r has r entries, r = 1..n.
Entries are exact rationals, optionally carrying a multiple of the formal
variable ``t``: an entry is a pair ``(base, tcoef)`` meaning
``base + tcoef*t``, stored as integers over the lcm of the bases'
denominators, so shifts and coefficient factors stay integers.  Plain
tableaux (all ``tcoef == 0``) represent actual points; a singular frame
produces tableaux carrying ``t = +1`` and ``t = -1`` on its two singular
positions, which is how every coefficient function is pushed down to a
univariate function of t: a product of factors linear in t, read as a jet
or as a :class:`~gtmod.ratfun.RatFun` by :mod:`gtmod.coeffs`.

The integer lattice of shifts leaves the top row fixed, so a
:class:`ShiftVector` has rows 1, ..., n-1 only.

Tableaux, shifts and row permutations all store row 1 first, as the paper
indexes them: entry (r, s) is ``rows[r-1][s-1]`` (``perms[r-1]`` for a
:class:`PermTuple`).  The text form ``(a,b,c|d,e|f)`` writes the top row
first; :meth:`Tableau.from_rows`, the ``from_text``/``to_text`` pairs and
the reprs are the only places that reverse rows.

Row permutations act position-wise on rows: ``(sigma(w))[r,s] =
w[r, sigma[r]^{-1}(s)]``.  Only tuples of transpositions of the form
``(1, a)`` per row are ever needed (the sets ``Phi_{lm}``).

The value types are ``NamedTuple`` classes, hashed and compared as plain
tuples.  Shapes are checked only where input enters: in
:meth:`Tableau.from_rows` (behind :meth:`Tableau.from_text` and configs)
and :meth:`ShiftVector.from_text`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

Entry = tuple[Fraction, int]  # base + tcoef * t

__all__ = [
    "Tableau", "ShiftVector", "PermTuple", "SingularFrame",
    "epsilon", "phi_picks", "phi_set", "tau_perm", "tau_star",
    "is_standard", "is_generic", "singular_pairs", "omega_plus", "window_shifts",
]


def _text_cells(text: str) -> list[list[str]]:
    """The comma-separated cells of each ``|``-separated row of ``(a,b|c)``."""
    body = text.strip()
    if body.startswith("("):
        if not body.endswith(")"):
            raise ValueError(f"unbalanced parentheses in {text!r}")
        body = body[1:-1]
    return [part.split(",") for part in body.split("|")]


def _text_entry(cell: str) -> Fraction:
    """One rational cell of the text form; ValueError names a cell whose
    denominator is zero."""
    try:
        return Fraction(cell)
    except ZeroDivisionError:
        raise ValueError(f"entry {cell.strip()!r} has a zero denominator") from None


def _check_shape(rows: Sequence[Sequence], top: int) -> None:
    """Rows must have lengths top, top-1, ..., 1."""
    if len(rows) != top:
        raise ValueError(f"{len(rows)} rows, wants {top}")
    for idx, row in enumerate(rows):
        if len(row) != top - idx:
            raise ValueError(f"row {top - idx} has {len(row)} entries, wants {top - idx}")


class Tableau(NamedTuple):
    """Triangular array of entries ``base + tcoef*t``; ``rows[r-1]`` is row
    r, row 1 first.  The cell (B, C) of ``rows`` means (B + C*t)/L, with L
    (``scale``) the lcm of the bases' denominators, so equal values give
    equal tableaux."""

    rows: tuple[tuple[tuple[int, int], ...], ...]
    scale: int

    @property
    def n(self) -> int:
        return len(self.rows)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Tableau":
        """Build a plain tableau from rationals/ints, top row first; rows
        must have lengths n, n-1, ..., 1."""
        _check_shape(rows, len(rows))
        rows = [[Fraction(x) for x in row] for row in reversed(rows)]
        scale = math.lcm(*[x.denominator for row in rows for x in row])
        return Tableau(tuple(tuple((x.numerator * (scale // x.denominator), 0) for x in row)
                             for row in rows), scale)

    # -- entry access (r = row length 1..n, s = 1..r) ------------------------

    def entry(self, r: int, s: int) -> Entry:
        if r < 1 or s < 1:
            raise IndexError(f"no entry ({r},{s})")
        b, c = self.rows[r - 1][s - 1]
        return Fraction(b, self.scale), c // self.scale

    def base(self, r: int, s: int) -> Fraction:
        if r < 1 or s < 1:
            raise IndexError(f"no entry ({r},{s})")
        return Fraction(self.rows[r - 1][s - 1][0], self.scale)

    def fraction_rows(self) -> tuple[tuple[Entry, ...], ...]:
        """The rows as unscaled ``(base, tcoef)`` entries, row 1 first."""
        scale = self.scale
        return tuple(tuple((Fraction(b, scale), c // scale) for b, c in row)
                     for row in self.rows)

    @property
    def is_plain(self) -> bool:
        return all(e[1] == 0 for row in self.rows for e in row)

    # -- construction of shifted / t-carrying variants -----------------------

    def with_shift(self, z: "ShiftVector") -> "Tableau":
        """Add integer shifts to rows <= n-1 (L*z on the integer cells); the
        top row is fixed."""
        if z.n != self.n:
            raise ValueError("shift size mismatch")
        scale = self.scale
        return Tableau(tuple([
            tuple([(b + scale * dz, c) for (b, c), dz in zip(row, zrow)])
            for row, zrow in zip(self.rows, z.rows)]) + self.rows[-1:], scale)

    def with_tcoefs(self, coefs: dict[tuple[int, int], int]) -> "Tableau":
        """Set the t-coefficient of the given (row, position) entries."""
        new = [list(row) for row in self.rows]
        for (r, s), c in coefs.items():
            if r < 1 or s < 1:
                raise IndexError(f"no entry ({r},{s})")
            b, _ = new[r - 1][s - 1]
            new[r - 1][s - 1] = (b, c * self.scale)
        return Tableau(tuple(tuple(row) for row in new), self.scale)

    def with_t(self, k: int, i: int, j: int) -> "Tableau":
        """Put ``+t`` on entry (k, i) and ``-t`` on entry (k, j)."""
        return self.with_tcoefs({(k, i): 1, (k, j): -1})

    # -- text form "(a,b,c|d,e|f)" with rationals "p/q" ----------------------

    def to_text(self) -> str:
        if not self.is_plain:
            raise ValueError("text form is defined for plain tableaux only")
        return "(" + "|".join(
            ",".join(str(b) for b, _ in row) for row in reversed(self.fraction_rows())
        ) + ")"

    @staticmethod
    def from_text(text: str) -> "Tableau":
        return Tableau.from_rows([[_text_entry(x) for x in row] for row in _text_cells(text)])

    def __repr__(self) -> str:
        if self.is_plain:
            return f"Tableau{self.to_text()}"
        cells = "|".join(
            ",".join(f"{b}{'+' if c > 0 else '-'}{abs(c)}t" if c else str(b) for (b, c) in row)
            for row in reversed(self.fraction_rows())
        )
        return f"Tableau({cells})"


class ShiftVector(NamedTuple):
    """Integer shifts of the rows 1..n-1 of a tableau (top row fixed).

    ``rows[r-1]`` is row r, row 1 first; the text form
    ``(z_{n-1,1},...,z_{n-1,n-1} | ... | z_{11})`` writes row n-1 first.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows) + 1

    @staticmethod
    def zero(n: int) -> "ShiftVector":
        return ShiftVector(tuple((0,) * r for r in range(1, n)))

    @staticmethod
    def delta(n: int, r: int, s: int) -> "ShiftVector":
        """The unit shift on position (r, s), 1 <= s <= r <= n-1."""
        if not (1 <= s <= r <= n - 1):
            raise ValueError(f"delta position ({r},{s}) out of range for n={n}")
        return ShiftVector.of(n, {(r, s): 1})

    @staticmethod
    def of(n: int, entries: dict) -> "ShiftVector":
        rows = [[0] * q for q in range(1, n)]
        for (r, s), v in entries.items():
            if r < 1 or s < 1:
                raise IndexError(f"no shift entry ({r},{s})")
            rows[r - 1][s - 1] = v
        return ShiftVector(tuple(tuple(row) for row in rows))

    def get(self, r: int, s: int) -> int:
        if r < 1 or s < 1:
            raise IndexError(f"no shift entry ({r},{s})")
        return self.rows[r - 1][s - 1]

    def __add__(self, other: "ShiftVector") -> "ShiftVector":
        """The entrywise sum, row by row with ``map``; ValueError for shifts
        of different ranks."""
        if len(self.rows) != len(other.rows):
            raise ValueError(f"cannot add shifts of ranks {self.n} and {other.n}")
        return ShiftVector(tuple(map(tuple, map(map, itertools.repeat(operator.add),
                                                self.rows, other.rows))))

    def moves(self) -> tuple[tuple[int, int, int], ...]:
        """The nonzero entries as a move list of (row index r - 1, position
        index s - 1, value), row 1 first."""
        return tuple((r, s, v) for r, row in enumerate(self.rows)
                     for s, v in enumerate(row) if v)

    def moved(self, moves) -> "ShiftVector":
        """The shift plus the one with the given move list
        (:meth:`moves`), rebuilding only the rows the moves touch."""
        rows = list(self.rows)
        for r, s, v in moves:
            row = list(rows[r])
            row[s] += v
            rows[r] = tuple(row)
        return ShiftVector(tuple(rows))

    def __neg__(self) -> "ShiftVector":
        return ShiftVector(tuple(tuple(map(operator.neg, row)) for row in self.rows))

    def to_text(self) -> str:
        return "(" + "|".join(",".join(str(v) for v in row) for row in reversed(self.rows)) + ")"

    @staticmethod
    def from_text(n: int, text: str) -> "ShiftVector":
        """Parse ``(a,b|c)``; rows must have lengths n-1, ..., 1."""
        rows = [tuple(int(x) for x in row) for row in _text_cells(text)]
        _check_shape(rows, n - 1)
        return ShiftVector(tuple(reversed(rows)))

    def __repr__(self) -> str:
        return f"z{self.to_text()}"


def window_shifts(n: int, bound: int) -> Iterator[ShiftVector]:
    """All shift vectors with every component in [-bound, bound], the top
    shift row most significant."""
    values = range(-bound, bound + 1)
    rows = (itertools.product(values, repeat=r) for r in range(n - 1, 0, -1))
    for shift in itertools.product(*rows):
        yield ShiftVector(shift[::-1])


def epsilon(n: int, r: int, s: int) -> ShiftVector:
    """The move vector of the generator E_{rs}.

    For r < s it is ``delta(r,1) + delta(r+1,1) + ... + delta(s-1,1)``;
    ``epsilon(r, r) = 0`` and ``epsilon(s, r) = -epsilon(r, s)``.
    """
    if not (1 <= r <= n and 1 <= s <= n):
        raise ValueError(f"epsilon({r},{s}) out of range for n={n}")
    if r == s:
        return ShiftVector.zero(n)
    if r > s:
        return -epsilon(n, s, r)
    out = ShiftVector.zero(n)
    for q in range(r, s):
        out = out + ShiftVector.delta(n, q, 1)
    return out


# ---------------------------------------------------------------------------
# Row permutations
# ---------------------------------------------------------------------------

def _transposition(size: int, a: int, b: int) -> tuple[int, ...]:
    images = list(range(1, size + 1))
    images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return tuple(images)


def _identity(size: int) -> tuple[int, ...]:
    return tuple(range(1, size + 1))


class PermTuple(NamedTuple):
    """An element of S_n x S_{n-1} x ... x S_1, one permutation per row.

    ``perms[r-1]`` is the image tuple of the row-r permutation:
    ``sigma[r](x) = perms[r-1][x-1]``.
    """

    perms: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.perms)

    @staticmethod
    def row_transposition(n: int, row: int, a: int, b: int) -> "PermTuple":
        perms = [_identity(r) for r in range(1, n + 1)]
        perms[row - 1] = _transposition(row, a, b)
        return PermTuple(tuple(perms))

    def row(self, r: int) -> tuple[int, ...]:
        if r < 1:
            raise IndexError(f"no row {r}")
        return self.perms[r - 1]

    def is_identity_row(self, r: int) -> bool:
        return self.row(r) == _identity(r)

    def inverse(self) -> "PermTuple":
        out = []
        for images in self.perms:
            inv = [0] * len(images)
            for x, y in enumerate(images, start=1):
                inv[y - 1] = x
            out.append(tuple(inv))
        return PermTuple(tuple(out))

    def __mul__(self, other: "PermTuple") -> "PermTuple":
        """Composition: ``(self*other)[r](x) = self[r](other[r](x))``."""
        return PermTuple(tuple(
            tuple(p[q[x] - 1] for x in range(len(p)))
            for p, q in zip(self.perms, other.perms)
        ))

    def __call__(self, w):
        """Row-wise position action on a Tableau or ShiftVector."""
        if not isinstance(w, (Tableau, ShiftVector)):
            raise TypeError(f"cannot permute {w!r}")
        if isinstance(w, ShiftVector) and not self.is_identity_row(w.n):
            raise ValueError("permutation moves the fixed top row")
        rows = []
        for row, images in zip(w.rows, self.perms):
            moved = list(row)
            for entry, y in zip(row, images):  # entry s lands at position sigma[r](s)
                moved[y - 1] = entry
            rows.append(tuple(moved))
        return w._replace(rows=tuple(rows))

    def __repr__(self) -> str:
        moved = [f"{r}:{self.perms[r - 1]}" for r in range(1, self.n + 1)
                 if not self.is_identity_row(r)]
        return "PermTuple(" + (", ".join(moved) if moved else "id") + ")"


def phi_picks(l: int, m: int, n: int) -> Iterator[tuple[int, ...]]:
    """The picks (a_q) for q = min(l,m), ..., max(l,m)-1 of the elements of
    Phi_{lm}, in enumeration order: a_q is the partner of 1 in the row-q
    transposition (1, a_q), 1 <= a_q <= q; Phi_{ll} has the one empty pick.
    """
    if not (1 <= l <= n and 1 <= m <= n):
        raise ValueError(f"Phi({l},{m}) out of range for n={n}")
    return itertools.product(*(range(1, q + 1) for q in range(min(l, m), max(l, m))))


def phi_set(l: int, m: int, n: int) -> list[PermTuple]:
    """Enumerate Phi_{lm}: per row t in [min(l,m), max(l,m)-1] a transposition
    (1, a_t) with 1 <= a_t <= t; Phi_{ll} = {id}.
    """
    out = []
    for picks in phi_picks(l, m, n):
        perms = [_identity(r) for r in range(1, n + 1)]
        for t, a in enumerate(picks, start=min(l, m)):
            perms[t - 1] = _transposition(t, 1, a)
        out.append(PermTuple(tuple(perms)))
    return out


def tau_perm(n: int, k: int, i: int, j: int) -> PermTuple:
    """The involution exchanging the two singular positions in row k."""
    return PermTuple.row_transposition(n, k, i, j)


def tau_star(sigma: PermTuple, k: int, i: int, j: int) -> PermTuple:
    """Conjugation-type twist of sigma by tau on the singular row.

    Defined for sigma with ``sigma[k] in {(1,i), (1,j)}``; it exchanges the
    two cases.  Concretely ``tau sigma tau`` when ``1 not in {i, j}`` and
    ``tau sigma`` when ``i == 1`` (the two group products coincide with
    ``sigma tau sigma`` resp. ``sigma tau`` on this domain).
    """
    n = sigma.n
    rowk = sigma.row(k)
    allowed = (_transposition(k, 1, i), _transposition(k, 1, j))
    if rowk not in allowed:
        raise ValueError(f"row-{k} component {rowk} is not (1,{i}) or (1,{j})")
    tau = tau_perm(n, k, i, j)
    if i == 1:
        return tau * sigma
    return tau * sigma * tau


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _is_nonneg_int(x: Fraction) -> bool:
    return x.denominator == 1 and x >= 0


def _is_pos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x > 0


def is_standard(t: Tableau) -> bool:
    """Interlacing test: for all 1 <= s <= r <= n-1,
    ``t[r+1,s] - t[r,s]`` is a nonnegative integer and
    ``t[r,s] - t[r+1,s+1]`` is a positive integer.
    """
    if not t.is_plain:
        raise ValueError("standardness is defined for plain tableaux")
    for r in range(1, t.n):
        for s in range(1, r + 1):
            if not _is_nonneg_int(t.base(r + 1, s) - t.base(r, s)):
                return False
            if not _is_pos_int(t.base(r, s) - t.base(r + 1, s + 1)):
                return False
    return True


def singular_pairs(t: Tableau) -> list[tuple[int, int, int]]:
    """Same-row index pairs (r, s, u), s < u, rows r <= n-1, whose entry
    difference is an integer."""
    if not t.is_plain:
        raise ValueError("singularity is defined for plain tableaux")
    out = []
    for r in range(1, t.n):
        for s in range(1, r + 1):
            for u in range(s + 1, r + 1):
                if (t.base(r, s) - t.base(r, u)).denominator == 1:
                    out.append((r, s, u))
    return out


def is_generic(t: Tableau) -> bool:
    return not singular_pairs(t)


def omega_plus(t: Tableau) -> frozenset[tuple[int, int, int]]:
    """The set of triples (r, s, u), 1 < r <= n, with
    ``t[r,s] - t[r-1,u]`` a nonnegative integer."""
    if not t.is_plain:
        raise ValueError("omega_plus is defined for plain tableaux")
    out = set()
    for r in range(2, t.n + 1):
        for s in range(1, r + 1):
            for u in range(1, r):
                if _is_nonneg_int(t.base(r, s) - t.base(r - 1, u)):
                    out.add((r, s, u))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Singular frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularFrame:
    """The data of one singular pair: (k, i, j) with i < j <= k <= n-1 and a
    base point whose (k,i) and (k,j) entries coincide while every other
    same-row difference on rows <= n-1 is a noninteger.  The frame is the
    one reader of the pair in a shift: its ``gap`` and its swap ``tau``.
    """

    k: int
    i: int
    j: int
    vbar: Tableau

    def __post_init__(self):
        n = self.vbar.n
        if not (1 <= self.i < self.j <= self.k <= n - 1):
            raise ValueError(f"bad singular triple (k,i,j)=({self.k},{self.i},{self.j})")
        if not self.vbar.is_plain:
            raise ValueError("base point must be a plain tableau")
        if self.vbar.base(self.k, self.i) != self.vbar.base(self.k, self.j):
            raise ValueError("entries at the singular pair must be equal")
        for (r, s, u) in singular_pairs(self.vbar):
            if (r, s, u) != (self.k, self.i, self.j):
                raise ValueError(f"extra integral same-row pair {(r, s, u)}; frame is not 1-singular")

    @property
    def n(self) -> int:
        return self.vbar.n

    @functools.cached_property
    def line(self) -> Tableau:
        """The base point with ``+t`` / ``-t`` on the singular pair."""
        return self.vbar.with_t(self.k, self.i, self.j)

    def tableau_at(self, z: ShiftVector) -> Tableau:
        """The t-carrying tableau for base-plus-shift z."""
        return self.line.with_shift(z)

    def gap(self, z: ShiftVector) -> int:
        """z_ki - z_kj, the shift's gap across the singular pair: tau negates
        it, and it is 0 exactly where z is tau-fixed."""
        row = z.rows[self.k - 1]
        return row[self.i - 1] - row[self.j - 1]

    def tau(self, z: ShiftVector) -> ShiftVector:
        """The shift with entries (k, i) and (k, j) exchanged."""
        rows = list(z.rows)
        row = list(rows[self.k - 1])
        i, j = self.i - 1, self.j - 1
        row[i], row[j] = row[j], row[i]
        rows[self.k - 1] = tuple(row)
        return ShiftVector(tuple(rows))

    def is_tau_fixed(self, z: ShiftVector) -> bool:
        return self.gap(z) == 0

    def is_special(self, sigma: PermTuple) -> bool:
        """sigma's row-k part is (1, i) or (1, j): where a coefficient may
        have a pole, and where the twist ``tau_star`` acts."""
        return sigma.row(self.k) in (_transposition(self.k, 1, self.i),
                                     _transposition(self.k, 1, self.j))

    def stratum(self, z: ShiftVector) -> int:
        """The index m with |z_{ki} - z_{kj}| = m."""
        return abs(self.gap(z))

    def describe(self) -> str:
        return (f"n={self.n} singular (k,i,j)=({self.k},{self.i},{self.j}) "
                f"vbar={self.vbar.to_text()}")
