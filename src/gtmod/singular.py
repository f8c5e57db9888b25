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

A cache miss takes the module's memoized permutation-form terms with a
nonzero jet together with their targets z' (``perm_targets``: z moved
along the move list of sigma(eps_lm), planned once per (l, m, n), so only
the rows it touches are rebuilt), reads each jet's (d, ev) once, as
integer ratios, with ``Jet.d_ev_ratios(order)`` (order 1 on the regular
line, where the prefactor x - y = 2t raises the jet's order by one and
doubles it, and order 0 on the derivative line, with no second jet
built), and places both coefficients at z' through :func:`canonicalize`.
All terms are summed into one :class:`~gtmod.lincomb.LinComb` in one
integer pass.
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


def canonicalize(kind: str, z: ShiftVector,
                 frame: SingularFrame) -> tuple[int, BasisSymbol | None]:
    """Canonical representative of Reg(z) / Der(z) with its sign; Der of a
    tau-fixed shift collapses to zero."""
    gap = frame.gap(z)
    if kind == REG:
        if gap > 0:
            return 1, BasisSymbol(REG, frame.tau(z))
        return 1, BasisSymbol(REG, z)
    if kind == DER:
        if gap == 0:
            return 0, None
        if gap < 0:
            return -1, BasisSymbol(DER, frame.tau(z))
        return 1, BasisSymbol(DER, z)
    raise ValueError(f"unknown symbol kind {kind!r}")


def canonical_window(frame: SingularFrame, bound: int) -> list[BasisSymbol]:
    """All canonical basis symbols whose shift lies in the given window."""
    return [BasisSymbol(REG if frame.gap(z) <= 0 else DER, z)
            for z in window_shifts(frame.n, bound)]


class SingularModule(core.TableauModule):
    """gl(n) on the span of the regular and derivative symbols of a frame,
    over its t-line."""

    def __init__(self, frame: SingularFrame):
        super().__init__(frame.line)
        self.frame = frame
        self._symbols: dict = {}

    # -- canonical single-term combinations ----------------------------------

    def reg(self, z: ShiftVector) -> LinComb:
        sign, sym = canonicalize(REG, z, self.frame)
        return LinComb.single(sym, sign)

    def der(self, z: ShiftVector) -> LinComb:
        sign, sym = canonicalize(DER, z, self.frame)
        if sign == 0:
            return LinComb.zero()
        return LinComb.single(sym, sign)

    # -- single-generator action ----------------------------------------------

    def _phi_sum(self, l: int, m: int, z: ShiftVector, order: int) -> LinComb:
        """Sum over the permutation form of E_lm at v+z, on the regular line
        (``order`` 1) or the derivative line (``order`` 0): each term's
        (d, ev) of (x - y)^order * e = XY_SLOPE^order * t^order * e, read
        once as integer ratios by ``Jet.d_ev_ratios(order)``, placed as the
        (Reg, Der) coefficients at its target z + sigma(eps_lm)
        (``perm_targets``); each symbol is interned in the module's symbol
        table.  A jet whose pole t^order does not cancel raises
        :class:`InvariantViolation` naming the pole."""
        frame, symbols = self.frame, self._symbols
        slope = XY_SLOPE ** order
        terms = []
        for e, target in self.perm_targets(l, m, z):
            if e.v < -order:
                raise InvariantViolation(
                    f"pole of order >= 2 in e_{l}{m} over {frame.describe()} at z={z}"
                    if order else f"unexpected pole in e_{l}{m} at tau-unfixed w={z}")
            (rn, rd), (dn, dd) = e.d_ev_ratios(order)
            if rn:
                sign, sym = canonicalize(REG, target, frame)
                terms.append((symbols.setdefault(sym, sym), sign * slope * rn, rd))
            if dn:
                sign, sym = canonicalize(DER, target, frame)
                if sign:
                    terms.append((symbols.setdefault(sym, sym), sign * slope * dn, dd))
        return LinComb.from_ratios(terms)

    def act_on_regular(self, l: int, m: int, z: ShiftVector) -> LinComb:
        """E_{lm} on Reg(z), through d((x-y) * coefficient) and
        ev((x-y) * coefficient)."""
        return self._phi_sum(l, m, z, 1)

    def act_on_derivative(self, l: int, m: int, w: ShiftVector) -> LinComb:
        """E_{lm} on Der(w); requires tau(w) != w."""
        if self.frame.is_tau_fixed(w):
            raise ValueError("derivative symbols require a tau-unfixed shift")
        return self._phi_sum(l, m, w, 0)

    def act_on_regular_by_evaluation(self, l: int, m: int,
                                     z: ShiftVector) -> LinComb:
        """Alternative form of E_{lm} on Reg(z) for tau-unfixed z: plain
        evaluation of every coefficient at t = 0.  Must agree with
        :meth:`act_on_regular`; kept as an independent cross-check path, so
        it places each term at z + sigma(eps_lm) itself, not through the
        move lists ``perm_targets`` reads."""
        if self.frame.is_tau_fixed(z):
            raise ValueError("the evaluation form needs a tau-unfixed shift")
        frame = self.frame
        return LinComb.from_ratios((canonicalize(REG, z + dz, frame)[1], *e.d_ev_ratios()[1])
                                   for e, dz in self.perm_terms(l, m, z) if e.a0)

    def _act_uncached(self, l: int, m: int, sym: BasisSymbol) -> LinComb:
        if sym.kind == REG:
            return self.act_on_regular(l, m, sym.shift)
        return self.act_on_derivative(l, m, sym.shift)

    # bound here for perfbench/tracer.py, which wraps this class's own names
    act_symbol = core.TableauModule.act_symbol
    bracket_defect = core.TableauModule.bracket_defect
    crs_via_composition = core.TableauModule.crs_via_composition

    # -- the commutative family -------------------------------------------------

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
    (z_ki - z_kj)/2 * prod_{t not in {i,j}} (w_{k-1,1} - w_{k,t})
                    / prod_{t != 1} (w_{k-1,1} - w_{k-1,t}),
    evaluated at the base point (w = vbar + z)."""
    k, i, j = frame.k, frame.i, frame.j
    w = frame.vbar.with_shift(z)
    num = Fraction(frame.gap(z))
    for t in range(1, k + 1):
        if t not in (i, j):
            num *= w.base(k - 1, 1) - w.base(k, t)
    den = Fraction(1)
    for t in range(2, k):
        den *= w.base(k - 1, 1) - w.base(k - 1, t)
    return num / den / 2


def generation_witnesses(frame: SingularFrame, z: ShiftVector) -> dict:
    """Exact values of the coefficients that drive the generation argument
    for the module: the derivative-line coefficient of E_{k-1,k}, with its
    closed form; the evaluation coefficient of (x-y) e_{k+1,k} at
    sigma_i(v+z') for the tau-fixed neighbour z' of z, with its closed form
    prod_{q<k} (w_ki - w_{k-1,q}) / prod_{q not in {i,j}} (w_ki - w_kq) at
    w = vbar + z' (the divisor is empty for k = 2, where x - y is the whole
    denominator); and the full family of derivative-to-derivative
    coefficients at z."""
    if frame.is_tau_fixed(z):
        raise ValueError("witnesses are reported for a tau-unfixed shift")
    k, i, j = frame.k, frame.i, frame.j
    n = frame.n

    w_z = frame.tableau_at(z)
    d_coeff = coeffs.coeff_e(k - 1, k, w_z).d_ev()[0]
    closed = _derivative_coefficient_closed_form(frame, z)

    # tau-fixed neighbour for the regular-to-derivative step
    zfix = z + ShiftVector.of(n, {(k, j): frame.gap(z)})
    sigma_i = PermTuple.row_transposition(n, k, 1, i)
    e = coeffs.coeff_e(k + 1, k, sigma_i(frame.tableau_at(zfix)))
    en, ed = e.d_ev_ratios(1)[1]  # ev((x - y) * e), (x - y) * e = XY_SLOPE * t * e
    step2_ev = Fraction(XY_SLOPE * en, ed)
    w = frame.vbar.with_shift(zfix)
    step2_closed = Fraction(1)
    for q in range(1, k):
        step2_closed *= w.base(k, i) - w.base(k - 1, q)
    for q in range(1, k + 1):
        if q not in (i, j):
            step2_closed /= w.base(k, i) - w.base(k, q)

    step3 = {(l, m, idx): e.d_ev()[1]
             for l in range(1, n + 1) for m in range(1, n + 1) if l != m
             for idx, (e, _) in enumerate(coeffs.perm_action(l, m, w_z))}

    return {
        "hypothesis": irreducibility_hypothesis(frame),
        "shift": z.to_text(),
        "derivative_coefficient": d_coeff,
        "derivative_coefficient_closed_form": closed,
        "step2_shift": zfix.to_text(),
        "step2_ev_coefficient": step2_ev,
        "step2_closed_form": step2_closed,
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
    zrep = z if frame.gap(z) >= 0 else frame.tau(z)
    w = frame.vbar.with_shift(zrep)
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
