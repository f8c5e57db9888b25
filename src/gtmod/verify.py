"""Batch verification suites with exact, reproducible reports.

A suite is one ``check_*(cfg, tally)`` sweep, registered once in
:data:`SUITES`; the first line of its docstring is its command-line help.
Each sweeps one family of algebraic identities over the configured base (or
singular frame) and window, and over no input of its own, recording every
comparison in a :class:`Tally` (tolerance is zero
everywhere: both sides of every comparison are exact rationals or canonical
rational functions).  :func:`run_suite` alone owns the suite lifecycle: it
checks the suite's :data:`PRECONDITIONS` entry (a config the suite cannot
run on raises ``ValueError``), times the sweep, turns an evaluation error
that ends it into one failed ``evaluation`` check, and builds the
:class:`VerificationReport`.  The report counts the checks in total and
per check kind (``by_kind``).  Failures carry exemplars showing the input
and the two sides; each check hands :meth:`Tally.check` its exemplar as a
zero-argument function, called at once and only for a failure that gets an
exemplar slot.

The window-wide loops of ``commutators``, ``formulas`` and the first loop
of ``n3`` run in contiguous chunks of their ordered window, one per CPU in
the process's affinity mask: chunk 0 in the calling process, each other
chunk in a forked child (:mod:`gtmod.tallies`).  The chunks' tallies are
merged in chunk order, so a report is the same for any number of CPUs.

Reports are deterministic given (config, seed); randomized sweeps draw
from a seeded generator recorded in the report.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import coeffs
from .core import sweep_order
from .fixtures import random_unfixed_shift
from .generic import GenericModule
from .lincomb import LinComb
from .n3 import LOEWY_LAYERS, classify_shift, weight_key
from .ratfun import T, RatFun, TWO_T
from .singular import (
    REG, InvariantViolation, SingularModule, canonical_window, canonicalize,
    connecting_shift, generation_witnesses, irreducibility_hypothesis,
)
from .tableaux import (
    SingularFrame, Tableau, epsilon, is_generic, phi_set, tau_perm, tau_star, window_shifts,
)
from .tallies import MAX_EXEMPLARS, Tally, in_chunks

__all__ = [
    "Config", "VerificationReport", "SUITES", "PRECONDITIONS", "run_suite",
    "module_for", "window_symbols",
    "check_commutators", "check_gamma", "check_formulas", "check_n3",
    "Tally", "export_action", "build_action_matrix",
]

# The errors an evaluation can raise on input it cannot handle (a pole, a
# bad index, a broken invariant); any other exception is a program bug.
EVALUATION_ERRORS = (ValueError, ArithmeticError, InvariantViolation)


def raised(exc: Exception) -> str:
    """The exemplar text of an evaluation error."""
    return f"raised {type(exc).__name__}: {exc}"


@dataclass
class VerificationReport:
    suite: str
    frame: str
    window: int
    checked: int
    passed: int
    failed: int
    by_kind: dict
    exemplars: list
    seed: int
    elapsed_ms: int

    @property
    def ok(self) -> bool:
        """Every check passed, and there was at least one."""
        return self.failed == 0 and self.checked > 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (f"[{self.suite}] {self.frame} window={self.window} "
                f"checked={self.checked} passed={self.passed} "
                f"failed={self.failed} ({self.elapsed_ms} ms): {verdict}")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, key: str) -> int:
    """A config value that is a JSON integer, not a float or a boolean;
    ValueError names the key otherwise."""
    if not _is_integer(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _integers(value, key: str, size: int) -> tuple[int, ...]:
    """A config value that is a list of ``size`` JSON integers."""
    if not (isinstance(value, list) and len(value) == size and all(map(_is_integer, value))):
        raise ValueError(f"{key} must be a list of {size} integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class Config:
    """One verification target: a base point (with an optional singular
    frame over it), a window bound, the suites to run and a seed.  A config
    file holds these keys and no others.  ``base`` has ``n`` rows, and a
    frame's base point is ``base``."""

    n: int
    base: Tableau
    frame: SingularFrame | None
    window: int = 2
    suites: tuple[str, ...] = ("commutators", "gamma", "formulas")
    seed: int = 20240601

    def __post_init__(self):
        if self.base.n != self.n:
            raise ValueError(f"base tableau has {self.base.n} rows, config says n={self.n}")
        if self.frame is not None and self.frame.vbar != self.base:
            raise ValueError(f"frame base point {self.frame.vbar.to_text()} is not "
                             f"the config's base {self.base.to_text()}")
        if self.window < 0:
            raise ValueError(f"out of range for n={self.n}: window={self.window}")
        if self.frame is None and not is_generic(self.base):
            raise ValueError(f"base {self.base.to_text()} is not generic, and no frame is given")

    @staticmethod
    def from_dict(data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ValueError(f"a config is a JSON object, not {type(data).__name__}")
        keys = [f.name for f in fields(Config)]
        unknown = [key for key in data if key not in keys]
        if unknown:
            raise ValueError(f"unknown key(s) {unknown}; expected some of {keys}")
        n = _integer(data["n"], "n")
        if not isinstance(data["base"], str):
            raise ValueError(f"base must be a tableau string, got {data['base']!r}")
        base = Tableau.from_text(data["base"])
        frame = None
        if data.get("frame") is not None:
            frame = SingularFrame(*_integers(data["frame"], "frame", 3), base)
        suites = data.get("suites", list(Config.suites))
        if not (isinstance(suites, list) and all(isinstance(name, str) for name in suites)):
            raise ValueError(f"suites must be a list of suite names, got {suites!r}")
        unknown = [name for name in suites if name not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite(s) {unknown}; expected some of {sorted(SUITES)}")
        return Config(
            n=n, base=base, frame=frame,
            window=_integer(data.get("window", Config.window), "window"),
            suites=tuple(suites), seed=_integer(data.get("seed", Config.seed), "seed"),
        )

    @staticmethod
    def from_file(path) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            return Config.from_dict(json.load(fh))

    def with_overrides(self, window=None, seed=None) -> "Config":
        """This config with the given window and seed, each checked as in a
        config file; None keeps the config's own."""
        given = {"window": window, "seed": seed}
        return replace(self, **{key: _integer(value, key)
                                for key, value in given.items() if value is not None})

    def describe(self) -> str:
        if self.frame is not None:
            return self.frame.describe()
        return f"n={self.n} generic base={self.base.to_text()}"


def _generators(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]


def module_for(cfg: Config) -> GenericModule | SingularModule:
    """The module a config describes: singular over its frame, else generic."""
    if cfg.frame is not None:
        return SingularModule(cfg.frame)
    return GenericModule(cfg.base)


def window_symbols(cfg: Config) -> list:
    """The basis symbols of :func:`module_for` whose shift lies in the window."""
    if cfg.frame is not None:
        return canonical_window(cfg.frame, cfg.window)
    return list(window_shifts(cfg.n, cfg.window))


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def check_commutators(cfg: Config, tally: Tally) -> None:
    """defining relations on every window basis symbol

    [E_ab, E_cd] against its structure constants on each basis symbol of
    the window (generic base or singular frame, per config), in the order
    of the module's ``sweep``, which drops the cached columns no later
    symbol reads; a bracket whose evaluation raises fails, its exemplar
    naming the error, and the sweep goes on.  That order is cut into
    contiguous chunks, one per CPU, each swept on its own (:mod:`gtmod.tallies`)."""
    gens = _generators(cfg.n)
    pairs = list(itertools.combinations(gens, 2))
    mod = module_for(cfg)

    def check(symbols, tally):
        for sym in mod.sweep(symbols):
            for g1, g2 in pairs:
                try:
                    defect = mod.bracket_defect(g1, g2, sym)
                    ok = defect.is_zero
                except EVALUATION_ERRORS as exc:
                    defect, ok = raised(exc), False
                tally.check(ok, "bracket", lambda: {
                    "input": f"[E{g1}, E{g2}] on {sym!r}", "defect": str(defect)})

    in_chunks(sweep_order(window_symbols(cfg)), check, tally)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def _gamma_pairs(n: int) -> list[tuple[int, int]]:
    top = min(n, 3)
    return [(r, s) for r in range(1, top + 1) for s in range(1, r + 1)]


def _check_central_word(tally: Tally, kind: str, mod, r: int, s: int, sym) -> None:
    """c_{rs} on one basis symbol: the composed generator words against the
    closed-form ``gamma_action``."""
    got = mod.crs_via_composition(r, s, sym)
    want = mod.gamma_action(r, s, LinComb.single(sym))
    tally.check(got == want, kind, lambda: {
        "input": f"c({r},{s}) on {sym!r}", "lhs": repr(got), "rhs": repr(want)})


def check_gamma(cfg: Config, tally: Tally) -> None:
    """central family: eigenvalues, 2x2 blocks, multiplicities

    The commutative central family: composed generator words against
    closed-form eigenvalues, the 2x2 nilpotent action on derivative
    symbols, character multiplicities and separation, and the
    generation-witness coefficients."""
    rng = random.Random(cfg.seed)
    mod = module_for(cfg)
    window = window_symbols(cfg)
    classes = mod.character_classes(window)
    frame = cfg.frame

    # composed words against the closed-form action
    kind = "composition-eigenvalue" if frame is None else "composition-jordan"
    for (r, s) in _gamma_pairs(cfg.n):
        for _ in range(20):
            _check_central_word(tally, kind, mod, r, s, rng.choice(window))

    if frame is None:
        for zs in classes.values():
            tally.check(len(zs) == 1, "generic-multiplicity-one",
                        lambda: {"input": f"shifts {zs!r}", "detail": "shared eigenvalue tuple"})
        return
    k = frame.k

    # the 2x2 nilpotent structure on derivative symbols
    for _ in range(20):
        z = random_unfixed_shift(rng, frame, max(cfg.window, 2))
        d, gam = mod.gamma(k, 2, z)
        der = mod.der(z)
        once = mod.crs_via_composition(k, 2, der) - gam * der
        twice = mod.crs_via_composition(k, 2, once) - gam * once
        tally.check(not once.is_zero, "jordan-offdiagonal-nonzero",
                    lambda: {"input": f"Der{z!r}", "detail": "(c-gamma) Der = 0"})
        tally.check(twice.is_zero, "jordan-square-zero",
                    lambda: {"input": f"Der{z!r}", "residue": repr(twice)})
        # gamma_{k2} is sum_i w_ki^2 plus a symmetric part of degree <= 1,
        # whose slope cancels between w_ki + t and w_kj - t; so its
        # half-derivative is (w_ki - w_kj)|_{t=0} = z_ki - z_kj
        model = frame.gap(z)
        tally.check(d == model, "jordan-offdiagonal-model",
                    lambda: {"input": f"Der{z!r}", "lhs": str(d), "rhs": str(model)})
        reg = mod.reg(z)
        eig = mod.crs_via_composition(k, 2, reg) - gam * reg
        tally.check(eig.is_zero, "regular-eigenvector",
                    lambda: {"input": f"Reg{z!r}", "residue": repr(eig)})

    # multiplicities: exhaustive over the window
    qn = math.prod(map(math.factorial, range(1, cfg.n)))
    for syms in classes.values():
        size = len(syms)
        tally.check(size <= 2 and size <= qn, "multiplicity-bound",
                    lambda: {"input": repr(syms), "detail": f"class size {size}"})
        fixed = [s for s in syms if s.kind == REG and frame.is_tau_fixed(s.shift)]
        if fixed:
            tally.check(size == 1, "tau-fixed-multiplicity-one", lambda: {"input": repr(syms)})
        else:
            tally.check(size == 2, "tau-unfixed-multiplicity-two", lambda: {"input": repr(syms)})

    # characters below the singular row separate shifts of the low rows
    population = [sym.shift for sym in window]
    by_low: dict = {}
    for z in population:
        low = z.rows[:k - 1]
        by_low.setdefault(low, set()).add(mod.character(z, max_row=k - 1))
    sub_chars = {}
    for low, subs in by_low.items():
        tally.check(len(subs) == 1, "subcharacter-depends-on-low-rows",
                    lambda: {"input": repr(low)})
        sub_chars[low] = next(iter(subs))
    tally.check(len(set(sub_chars.values())) == len(sub_chars),
                "subcharacter-separation", lambda: {"detail": "collision among low rows"})

    # connectivity: one stratum up, nonzero coefficient back down
    for z in rng.sample(population, min(40, len(population))):
        t, zrep, zbar = connecting_shift(frame, z)
        out = mod.act_on_regular(k + 1, k - t, zbar)
        _, target = canonicalize(REG, zrep, frame)
        tally.check(out.coeff(target) != 0 and frame.stratum(zbar) == frame.stratum(z) + 1,
                    "connectivity",
                    lambda: {"input": f"z={z!r}", "step": f"E({k + 1},{k - t}) at {zbar!r}"})

    # generation witnesses under the irreducibility hypothesis
    if irreducibility_hypothesis(frame):
        for _ in range(10):
            z = random_unfixed_shift(rng, frame, max(cfg.window, 2))
            rep = generation_witnesses(frame, z)
            tally.check(rep["derivative_coefficient"] != 0, "witness-derivative",
                        lambda: {"input": f"z={z!r}"})
            tally.check(rep["derivative_coefficient"]
                        == rep["derivative_coefficient_closed_form"],
                        "witness-derivative-closed-form",
                        lambda: {"lhs": str(rep["derivative_coefficient"]),
                                 "rhs": str(rep["derivative_coefficient_closed_form"])})
            tally.check(rep["step2_ev_coefficient"] != 0, "witness-step2",
                        lambda: {"input": rep["step2_shift"]})
            tally.check(all(v != 0 for v in rep["step3_values"].values()),
                        "witness-step3",
                        lambda: {"input": rep["shift"]})


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def _jet_matches(jet: coeffs.Jet, e: RatFun) -> bool:
    """The jet (v, a0, a1, q) is the 2-jet of the whole function e at t = 0:
    the same zero-ness and pole order, and the same value and half-derivative
    once the pole is multiplied away (of e itself when there is none)."""
    poles = e.pole_order()
    if e.is_zero != (not jet.a0) or max(-jet.v, 0) != poles:
        return False
    smooth = RatFun(T ** poles) * e if poles else e
    return jet._replace(v=jet.v + poles).d_ev() == (smooth.d(), smooth.ev())


def _action_exemplar(l: int, m: int, z, lhs: LinComb, rhs: LinComb):
    """The lazy exemplar of an E(l,m) comparison at shift z: both sides."""
    return lambda: {"input": f"E({l},{m}) at {z!r}", "lhs": repr(lhs), "rhs": repr(rhs)}


def check_formulas(cfg: Config, tally: Tally) -> None:
    """coefficient formulas against their oracles on every window tableau

    One loop over the window shifts z, for both families.  The oracles read
    the config's own tableau at z, the base plus z (over a singular frame,
    its t-line plus z), never the module's ``tableau_at``.  Per coefficient
    e_lm(sigma(v+z)), sigma in Phi_lm: its jet against its whole rational
    function (``jet-vs-ratfun``), and the module's memoized ``perm_terms``
    term against it (``perm-action-vs-phi-set``, so every window shift
    checks the memo's hits).  Per adjacent or diagonal generator, wherever
    the classical formulas are defined (every z of a generic base, every
    tau-unfixed z of a frame): their summands on the plain tableau base + z
    against its permutation form (``classical-vs-permutation``).

    Over a singular frame only, per coefficient: the pole-order bound at
    tau-fixed z (``pole-bound``, and ``pole-smooth`` off the special set),
    the point-operator exchange rules (``ev-equals-d-shifted``,
    ``symmetric-derivative-zero``, ``divided-difference``) and parity across
    the swap (``parity-plain`` off the special set, ``parity-twisted`` on
    it); per generator: the regular action is tau-even
    (``regular-action-tau-even``) and, at tau-unfixed z, the derivative
    action tau-odd (``derivative-action-tau-odd``) and the regular action
    equal to its evaluation form (``regular-action-ev-crosscheck``).

    The window shifts are cut, in order, into contiguous chunks, one per
    CPU, each checked on its own (:mod:`gtmod.tallies`)."""
    n, frame = cfg.n, cfg.frame
    mod = module_for(cfg)
    line = cfg.base if frame is None else frame.line
    if frame is not None:
        k, two_t = frame.k, RatFun(TWO_T)
        # from (k, i, j), not frame.tau, so the oracle shares no code with the swap it checks
        taup = tau_perm(n, k, frame.i, frame.j)
    # per generator, built once: each sigma in Phi_lm with sigma(eps_lm),
    # whether it is special, and on the special set off the diagonal its
    # twist tau_star(sigma) and sigma * tau
    generators = []
    for l, m in itertools.product(range(1, n + 1), repeat=2):
        eps, sigmas = epsilon(n, l, m), []
        for sigma in phi_set(l, m, n):
            special = frame is not None and frame.is_special(sigma)
            twist = ((tau_star(sigma, k, frame.i, frame.j), sigma * taup)
                     if special and l != m else None)
            sigmas.append((sigma, sigma(eps), special, twist))
        generators.append((l, m, sigmas))

    def check(shifts, tally):
        for z in shifts:
            line_z, plain, fixed = line.with_shift(z), cfg.base.with_shift(z), False
            if frame is not None:
                fixed, tz = frame.is_tau_fixed(z), frame.tau(z)
                line_tz = line.with_shift(tz)
            for l, m, sigmas in generators:
                memo = mod.perm_terms(l, m, z)
                for idx, (sigma, sigma_eps, special, twist) in enumerate(sigmas):
                    w = sigma(line_z)
                    e = coeffs.coeff_ratfun(l, m, w)
                    jet = coeffs.coeff_e(l, m, w)
                    tally.check(_jet_matches(jet, e), "jet-vs-ratfun",
                                lambda: {"input": f"e({l},{m}) at {sigma!r}(v+{z!r})",
                                         "lhs": repr(jet), "rhs": repr(e)})
                    # the module's memoized terms (integer tableau, direct
                    # row swaps) against PermTuple on the config's tableau
                    term, pair = list(memo[idx:idx + 1]), (jet, sigma_eps)
                    tally.check(term == [pair], "perm-action-vs-phi-set",
                                lambda: {"input": f"E({l},{m}) term {sigma!r} at v+{z!r}",
                                         "lhs": repr(term), "rhs": repr([pair])})
                    if frame is None:
                        continue
                    if fixed:
                        # pole-order bound, and smoothness off the special set
                        tally.check(e.pole_order() <= 1, "pole-bound", lambda: {"input": repr(e)})
                        if not (special and min(l, m) <= k < max(l, m)):
                            tally.check(e.pole_order() == 0, "pole-smooth",
                                        lambda: {"input": repr(e)})
                    # point-operator exchange rules on this coefficient
                    g = two_t * e
                    tally.check(g.ev() == (two_t * g).d(), "ev-equals-d-shifted",
                                lambda: {"input": repr(g)})
                    if e.pole_order() == 0:
                        if e == e.tau():
                            tally.check(e.d() == 0, "symmetric-derivative-zero",
                                        lambda: {"input": repr(e)})
                        h = e.divided_difference()
                        if h.pole_order() == 0:
                            tally.check(h.ev() == 2 * e.d(), "divided-difference",
                                        lambda: {"input": repr(e)})
                    # parity across the swap
                    if not special and l != m:
                        d_t, ev_t = coeffs.coeff_e(l, m, sigma(line_tz)).d_ev()
                        tally.check(ev_t == e.ev() and d_t == -e.d(),
                                    "parity-plain", lambda: {"input": repr(e)})
                    if twist is not None:
                        star, sigma_tau = twist
                        lhs = coeffs.coeff_ratfun(l, m, star(line_z))
                        rhs = coeffs.coeff_ratfun(l, m, sigma_tau(line_z))
                        tally.check(lhs == rhs, "parity-twisted",
                                    lambda: {"lhs": repr(lhs), "rhs": repr(rhs)})
                # the classical formulas divide by same-row differences,
                # which vanish only at a frame's tau-fixed shifts
                if abs(l - m) <= 1 and not fixed:
                    classical = LinComb.sum_terms(
                        (dz, c) for c, dz in coeffs.classical_action(l, m, plain))
                    perm = LinComb.sum_terms(
                        (dz, fn.const_value()) for fn, dz in coeffs.perm_action(l, m, plain))
                    tally.check(classical == perm, "classical-vs-permutation",
                                _action_exemplar(l, m, z, classical, perm))
            if frame is None:
                continue

            # compatibility of the module action with the swap
            for l in range(1, n + 1):
                for m in range(1, n + 1):
                    reg = mod.act_on_regular(l, m, z)
                    reg_t = mod.act_on_regular(l, m, tz)
                    tally.check(reg == reg_t, "regular-action-tau-even",
                                _action_exemplar(l, m, z, reg, reg_t))
                    if not fixed:
                        der = mod.act_on_derivative(l, m, z)
                        der_t = -mod.act_on_derivative(l, m, tz)
                        tally.check(der == der_t, "derivative-action-tau-odd",
                                    _action_exemplar(l, m, z, der, der_t))
                        ev_form = mod.act_on_regular_by_evaluation(l, m, z)
                        tally.check(reg == ev_form, "regular-action-ev-crosscheck",
                                    _action_exemplar(l, m, z, reg, ev_form))

    in_chunks(list(window_shifts(n, cfg.window)), check, tally)


# ---------------------------------------------------------------------------
# n3
# ---------------------------------------------------------------------------

def n3_precondition(cfg: Config) -> None:
    """ValueError unless the ten-piece suite can run on cfg: a singular
    n = 3 config over the all-equal base point."""
    if cfg.frame is None or cfg.n != 3:
        raise ValueError("the ten-piece suite needs a singular n=3 config")
    first = cfg.base.base(3, 1)
    if any(cfg.base.base(r, s) != first for r in range(1, 4) for s in range(1, r + 1)):
        raise ValueError("the ten-piece suite needs the all-equal base point")


def check_n3(cfg: Config, tally: Tally) -> None:
    """ten-piece decomposition over the all-equal n=3 base

    Classification totality, layer monotonicity of the action, and growth
    of L7's weight multiplicities over the windows W - 2, W - 1 and W (no
    weight shows growth below W = 3); runs only on configs that pass
    :func:`n3_precondition`.  The layer checks walk the module's ``sweep``
    order cut into contiguous chunks, one per CPU (:mod:`gtmod.tallies`)."""
    mod = module_for(cfg)

    # classification is total and unambiguous; the action never climbs layers
    def check(symbols, tally):
        for sym in mod.sweep(symbols):
            piece = classify_shift(sym.shift)  # raises InvariantViolation if not unique
            layer = LOEWY_LAYERS[piece]
            ok = True
            worst = None
            for l, m in _generators(3):
                for out_sym, c in mod.act_symbol(l, m, sym).items():
                    out_layer = LOEWY_LAYERS[classify_shift(out_sym.shift)]
                    if out_layer > layer:
                        ok = False
                        worst = (l, m, out_sym, c)
            tally.check(ok, "loewy-monotone",
                        lambda: {"input": f"{sym!r} in {piece}", "violation": repr(worst)})

    in_chunks(sweep_order(window_symbols(cfg)), check, tally)

    # weight multiplicities inside L7 grow strictly up to the window
    low, mid, high = (
        Counter(weight_key(z) for z in window_shifts(3, bound) if classify_shift(z) == "L7")
        for bound in (cfg.window - 2, cfg.window - 1, cfg.window))
    for key, c0 in low.items():
        c1, c2 = mid.get(key, 0), high.get(key, 0)
        tally.check(c0 < c1 < c2, "l7-weight-growth",
                    lambda: {"input": f"weight {key}", "counts": f"{c0} -> {c1} -> {c2}"})


# ---------------------------------------------------------------------------
# matrix export
# ---------------------------------------------------------------------------

def build_action_matrix(cfg: Config, kind: str, indices: tuple[int, int]) -> dict:
    """Window-restricted matrix of a generator (kind 'E') or central word
    (kind 'c') in the canonical basis; JSON-ready, entries as 'p/q'."""
    mod = module_for(cfg)
    columns = window_symbols(cfg)
    a, b = indices
    entries: dict[str, dict[str, str]] = {}
    for col in columns:
        if kind == "E":
            out = mod.act(a, b, col)
        elif kind == "c":
            out = mod.crs_via_composition(a, b, col)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
        if out.is_zero:
            continue
        entries[col.to_text()] = {
            row.to_text(): str(c)
            for row, c in sorted(out.items(), key=lambda kv: kv[0].to_text())
        }
    return {
        "operator": f"{kind}({a},{b})",
        "frame": cfg.describe(),
        "window": cfg.window,
        "basis": [col.to_text() for col in columns],
        "entries": entries,
    }


def export_action(cfg: Config, operators, out_dir) -> list[Path]:
    """Write the :func:`build_action_matrix` of each ``(kind, (a, b))`` in
    ``operators`` to ``out_dir/<kind>_<a>_<b>.json``; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for kind, (a, b) in operators:
        path = out_dir / f"{kind}_{a}_{b}.json"
        matrix = build_action_matrix(cfg, kind, (a, b))
        path.write_text(json.dumps(matrix, indent=2, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


SUITES = {
    "commutators": check_commutators,
    "gamma": check_gamma,
    "formulas": check_formulas,
    "n3": check_n3,
}

# What a suite needs of its config, checked before it runs.
PRECONDITIONS = {"n3": n3_precondition}


def run_suite(name: str, cfg: Config) -> VerificationReport:
    """Run one suite on cfg and report it.  ValueError, before anything
    runs, for an unknown suite or a config the suite cannot run on; an
    evaluation error that ends the sweep is one failed ``evaluation`` check,
    whose exemplar names it and is kept even when the others are full (an
    error in a chunk of a chunked sweep ends it just the same, after the
    checks of every earlier chunk)."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    if name in PRECONDITIONS:
        PRECONDITIONS[name](cfg)
    started = time.perf_counter()
    tally = Tally()
    try:
        suite(cfg, tally)
    except EVALUATION_ERRORS as exc:
        del tally.exemplars[MAX_EXEMPLARS - 1:]
        tally.check(False, "evaluation", lambda: {"detail": raised(exc)})
    checked, failed = tally.checked, tally.failed
    return VerificationReport(
        suite=name, frame=cfg.describe(), window=cfg.window,
        checked=checked, passed=checked - failed, failed=failed,
        by_kind=tally.by_kind, exemplars=tally.exemplars, seed=cfg.seed,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
    )
