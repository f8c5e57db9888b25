"""The universal tableau module attached to a 1-singular base point.

Alongside the ordinary basis tableaux ``Reg(z)`` (one per integer shift z)
the space carries *derivative* symbols ``Der(z)``, subject to the
relations

    Reg(z) = Reg(tau(z)),      Der(z) = -Der(tau(z)),

where tau exchanges the shift entries on the singular pair; in particular
``Der(z) = 0`` for tau-fixed z.  Canonical representatives put
``z_ki <= z_kj`` on regular symbols and ``z_ki > z_kj`` on derivative
symbols.

The generator action is computed on the line through the base point
(singular entries ``a + t`` and ``a - t``): every coefficient is a
rational function of t, read through its 2-jet at t = 0
(:class:`~gtmod.coeffs.Jet`), and

    E_lm Reg(z) = sum_sigma  d[(2t) e_lm(sigma(v+z))] Reg(z')
                           + ev[(2t) e_lm(sigma(v+z))] Der(z'),
    E_lm Der(z) = sum_sigma  d[e_lm(sigma(v+z))] Reg(z')
                           + ev[e_lm(sigma(v+z))] Der(z'),

with z' = z + sigma(eps_lm), ev the value at t = 0 and d the
half-derivative there.  The derivative line requires tau(z) != z, which
keeps every coefficient smooth; on the regular line the prefactor 2t
absorbs the (at most simple) poles.  For a jet t^v (a0 + a1 t + ...)/q
that is, over q: (d, ev) = (a1, 2 a0) at v = -1, (a0, 0) at v = 0 and 0
above on the regular line; (a1/2, a0) at v = 0, (a0/2, 0) at v = 1 and 0
above on the derivative line.  A larger pole is an :class:`InvariantViolation`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import coeffs, core
from .lincomb import LinComb
from .tableaux import (
    PermTuple, ShiftVector, SingularFrame, window_shifts,
)

__all__ = [
    "REG", "DER", "BasisSymbol", "InvariantViolation", "SingularModule",
    "canonicalize", "irreducibility_hypothesis", "generation_witnesses",
    "connecting_shift", "canonical_window",
]

REG = "reg"
DER = "der"

# x - y = XY_SLOPE * t on the line x = a + t, y = a - t
XY_SLOPE = 2


class InvariantViolation(RuntimeError):
    """A structural fact the construction guarantees failed to hold."""


class BasisSymbol(NamedTuple):
    kind: str
    shift: ShiftVector

    def to_text(self) -> str:
        tag = "Reg" if self.kind == REG else "Der"
        return f"{tag}{self.shift.to_text()}"

    __repr__ = to_text


def _x_minus_y_d_ev(e: coeffs.Jet) -> tuple[tuple[int, int], tuple[int, int]]:
    """The half-derivative and value at t = 0 of (x - y) * e = XY_SLOPE * t * e
    on the line, as integer (numerator, denominator) pairs."""
    (dn, dd), (en, ed) = e._replace(v=e.v + 1).d_ev_ratios()
    return (XY_SLOPE * dn, dd), (XY_SLOPE * en, ed)


def canonicalize(kind: str, z: ShiftVector,
                 frame: SingularFrame) -> tuple[int, BasisSymbol | None]:
    """Canonical representative of Reg(z) / Der(z) with its sign; Der of a
    tau-fixed shift collapses to zero."""
    zi = z.get(frame.k, frame.i)
    zj = z.get(frame.k, frame.j)
    if kind == REG:
        if zi > zj:
            return 1, BasisSymbol(REG, frame.tau(z))
        return 1, BasisSymbol(REG, z)
    if kind == DER:
        if zi == zj:
            return 0, None
        if zi < zj:
            return -1, BasisSymbol(DER, frame.tau(z))
        return 1, BasisSymbol(DER, z)
    raise ValueError(f"unknown symbol kind {kind!r}")


def canonical_window(frame: SingularFrame, bound: int) -> list[BasisSymbol]:
    """All canonical basis symbols whose shift lies in the given window."""
    out = []
    for z in window_shifts(frame.n, bound):
        kind = REG if z.get(frame.k, frame.i) <= z.get(frame.k, frame.j) else DER
        out.append(BasisSymbol(kind, z))
    return out


class SingularModule:
    """gl(n) on the span of the regular and derivative symbols of a frame."""

    def __init__(self, frame: SingularFrame):
        self.frame = frame
        self.n = frame.n
        self.base = frame.line()
        self._act_cache: dict = {}
        self._gamma_cache: dict = {}

    tableau_at = core.tableau_at

    # -- canonical single-term combinations ----------------------------------

    def reg(self, z: ShiftVector, coeff=1) -> LinComb:
        sign, sym = canonicalize(REG, z, self.frame)
        return LinComb.single(sym, Fraction(coeff) * sign)

    def der(self, z: ShiftVector, coeff=1) -> LinComb:
        sign, sym = canonicalize(DER, z, self.frame)
        if sign == 0:
            return LinComb.zero()
        return LinComb.single(sym, Fraction(coeff) * sign)

    # -- single-generator action ----------------------------------------------

    def _phi_sum(self, l: int, m: int, z: ShiftVector, point) -> LinComb:
        """Sum over the permutation form of E_lm at v+z of ``point(e)``:
        ``point`` returns the (Reg, Der) coefficients, as integer
        (numerator, denominator) pairs, placed at the shift
        z + sigma(eps_lm)."""
        frame = self.frame
        terms = []
        for e, dz in coeffs.perm_action(l, m, self.tableau_at(z)):
            if not e.a0:
                continue
            reg, der = point(e)
            target = z + dz
            for kind, (num, den) in ((REG, reg), (DER, der)):
                if num:
                    sign, sym = canonicalize(kind, target, frame)
                    if sign:
                        terms.append((sym, sign * num, den))
        return LinComb.from_ratios(terms)

    def act_on_regular(self, l: int, m: int, z: ShiftVector) -> LinComb:
        """E_{lm} on Reg(z), through d((x-y) * coefficient) and
        ev((x-y) * coefficient)."""
        def point(e: coeffs.Jet):
            if e.v < -1:
                raise InvariantViolation(
                    f"pole of order >= 2 in e_{l}{m} over {self.frame.describe()} at z={z}")
            return _x_minus_y_d_ev(e)

        return self._phi_sum(l, m, z, point)

    def act_on_derivative(self, l: int, m: int, w: ShiftVector) -> LinComb:
        """E_{lm} on Der(w); requires tau(w) != w."""
        if self.frame.is_tau_fixed(w):
            raise ValueError("derivative symbols require a tau-unfixed shift")

        def point(e: coeffs.Jet):
            if e.v < 0:
                raise InvariantViolation(
                    f"unexpected pole in e_{l}{m} at tau-unfixed w={w}")
            return e.d_ev_ratios()

        return self._phi_sum(l, m, w, point)

    def act_on_regular_by_evaluation(self, l: int, m: int,
                                     z: ShiftVector) -> LinComb:
        """Alternative form of E_{lm} on Reg(z) for tau-unfixed z: plain
        evaluation of every coefficient at t = 0.  Must agree with
        :meth:`act_on_regular`; kept as an independent cross-check path."""
        if self.frame.is_tau_fixed(z):
            raise ValueError("the evaluation form needs a tau-unfixed shift")
        return self._phi_sum(l, m, z, lambda e: (e.d_ev_ratios()[1], (0, 1)))

    def _act_uncached(self, l: int, m: int, sym: BasisSymbol) -> LinComb:
        if sym.kind == REG:
            return self.act_on_regular(l, m, sym.shift)
        return self.act_on_derivative(l, m, sym.shift)

    act_symbol = core.act_symbol
    act = core.act
    bracket_defect = core.bracket_defect
    crs_via_composition = core.crs_via_composition

    # -- the commutative family -------------------------------------------------

    gamma = core.gamma
    character = core.character

    def gamma_value(self, r: int, s: int, z: ShiftVector) -> Fraction:
        return self.gamma(r, s, z)[1]

    def gamma_dvalue(self, r: int, s: int, z: ShiftVector) -> Fraction:
        return self.gamma(r, s, z)[0]

    def gamma_action(self, r: int, s: int, x: LinComb) -> LinComb:
        """c_{rs} in closed form: eigenvalue on Reg, a 2x2 upper-triangular
        contribution Der -> Der + Reg."""
        terms = []
        for sym, c in x.items():
            d, ev = self.gamma(r, s, sym.shift)
            terms.append((sym, c * ev))
            if sym.kind == DER:
                terms.append((canonicalize(REG, sym.shift, self.frame)[1], c * d))
        return LinComb.sum_terms(terms)

    def character_classes(self, bound: int) -> dict[tuple, list[BasisSymbol]]:
        """Window symbols grouped by their full eigenvalue tuple."""
        groups: dict[tuple, list[BasisSymbol]] = {}
        for sym in canonical_window(self.frame, bound):
            groups.setdefault(self.character(sym.shift), []).append(sym)
        return groups


# ---------------------------------------------------------------------------
# Irreducibility hypothesis and generation witnesses
# ---------------------------------------------------------------------------

def irreducibility_hypothesis(frame: SingularFrame) -> bool:
    """No cross-row entry difference of the base point is an integer."""
    v = frame.vbar
    for r in range(2, frame.n + 1):
        for s in range(1, r + 1):
            for t in range(1, r):
                if (v.base(r, s) - v.base(r - 1, t)).denominator == 1:
                    return False
    return True


def _derivative_coefficient_closed_form(frame: SingularFrame,
                                        z: ShiftVector) -> Fraction:
    """Closed form of d[e_{k-1,k}(v+z)]:
    -(z_kj - z_ki)/2 * prod_{t not in {i,j}} (w_{k-1,1} - w_{k,t})
                     / prod_{t != 1} (w_{k-1,1} - w_{k-1,t}),
    evaluated at the base point (w = vbar + z)."""
    k, i, j = frame.k, frame.i, frame.j
    w = frame.point_at(z)
    num = Fraction(z.get(k, j) - z.get(k, i))
    for t in range(1, k + 1):
        if t not in (i, j):
            num *= w.base(k - 1, 1) - w.base(k, t)
    den = Fraction(1)
    for t in range(2, k):
        den *= w.base(k - 1, 1) - w.base(k - 1, t)
    return -num / den / 2


def generation_witnesses(frame: SingularFrame, z: ShiftVector) -> dict:
    """Exact values of the coefficients that drive the generation argument
    for the module: the derivative-line coefficient of E_{k-1,k}, the
    evaluation coefficient of (x-y) e_{k+1,k} on a tau-fixed neighbour, and
    the full family of derivative-to-derivative coefficients at z."""
    if frame.is_tau_fixed(z):
        raise ValueError("witnesses are reported for a tau-unfixed shift")
    k, i, j = frame.k, frame.i, frame.j
    n = frame.n

    d_coeff = coeffs.coeff_e(k - 1, k, frame.tableau_at(z)).d_ev()[0]
    closed = _derivative_coefficient_closed_form(frame, z)

    # tau-fixed neighbour for the regular-to-derivative step
    zfix = z + ShiftVector.of(n, {(k, j): z.get(k, i) - z.get(k, j)})
    sigma_i = PermTuple.row_transposition(n, k, 1, i)
    e = coeffs.coeff_e(k + 1, k, sigma_i(frame.tableau_at(zfix)))
    step2_ev = Fraction(*_x_minus_y_d_ev(e)[1])
    step2_num = Fraction(1)
    w = frame.point_at(zfix)
    for q in range(1, k):
        step2_num *= w.base(k, i) - w.base(k - 1, q)

    step3 = {(l, m, idx): e.d_ev()[1]
             for l in range(1, n + 1) for m in range(1, n + 1) if l != m
             for idx, (e, _) in enumerate(coeffs.perm_action(l, m, frame.tableau_at(z)))}

    return {
        "hypothesis": irreducibility_hypothesis(frame),
        "shift": z.to_text(),
        "derivative_coefficient": d_coeff,
        "derivative_coefficient_closed_form": closed,
        "step2_shift": zfix.to_text(),
        "step2_ev_coefficient": step2_ev,
        "step2_numerator": step2_num,
        "step3_values": step3,
    }


def connecting_shift(frame: SingularFrame,
                     z: ShiftVector) -> tuple[int, ShiftVector, ShiftVector]:
    """Climb one stratum: for z with |z_ki - z_kj| = m, build (t, z', zbar)
    with zbar at stratum m+1 such that Reg(z') appears in
    E_{k+1,k-t} Reg(zbar); z' is z or tau(z), whichever has z_ki >= z_kj.

    The row index drop t follows the chain of entries exceeding the last by
    exactly one, starting just above w_{ki}."""
    k, i = frame.k, frame.i
    zi, zj = z.get(frame.k, frame.i), z.get(frame.k, frame.j)
    zrep = z if zi >= zj else frame.tau(z)
    w = frame.point_at(zrep)
    additions = {(k, i): 1}
    value = w.base(k, i) + 1
    t = 0
    row = k - 1
    while row >= 1:
        found = next((s for s in range(1, row + 1) if w.base(row, s) == value), None)
        if found is None:
            break
        additions[(row, found)] = 1
        value += 1
        t += 1
        row -= 1
    zbar = zrep + ShiftVector.of(frame.n, additions)
    return t, zrep, zbar
