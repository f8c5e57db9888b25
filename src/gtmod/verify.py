"""Batch verification suites with exact, reproducible reports.

Each suite sweeps one family of algebraic identities over a configured
frame and window and returns a :class:`VerificationReport` with exact
pass/fail counts (tolerance is zero everywhere: both sides of every
comparison are exact rationals or canonical rational functions).  Failures
carry exemplars showing the input and the two sides.

Suites:

* ``commutators`` -- the defining relations [E_ab, E_cd] on every window
  basis symbol (generic base or singular frame, per config);
* ``gamma``       -- the commutative central family: composed generator
  words against closed-form eigenvalues, the 2x2 nilpotent action on
  derivative symbols, character multiplicities and separation, and the
  generation-witness coefficients;
* ``formulas``    -- the coefficient-level identities: classical versus
  permutation presentation, each coefficient's jet against its whole
  rational function, the permutation form on the module's integer tableau
  against the ``PermTuple`` action, pole-order bound, parity relations, the
  point-operator exchange rules, the evaluation cross-check, and the
  finite-dimensional regression;
* ``n3``          -- the ten-piece decomposition over the all-equal n = 3
  base: classification totality, layer monotonicity of the action, and
  growth of the two infinite-multiplicity pieces.

Reports are deterministic given (config, seed); randomized sweeps draw
from a seeded generator recorded in the report.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import coeffs
from .finite import FiniteModule, standard_tableaux, weyl_dimension
from .fixtures import random_generic_tableau, random_shift
from .generic import GenericModule
from .lincomb import LinComb
from .n3 import classify_shift, loewy_layer, weight_key
from .ratfun import T, RatFun, TWO_T
from .singular import (
    REG, SingularModule, canonical_window, canonicalize, connecting_shift,
    generation_witnesses, irreducibility_hypothesis,
)
from .tableaux import (
    PermTuple, SingularFrame, Tableau, epsilon, phi_set, tau_star, window_shifts,
)

__all__ = [
    "Config", "VerificationReport", "SUITES", "PRECONDITIONS", "run_suite",
    "module_for", "window_symbols",
    "check_commutators", "check_gamma", "check_formulas", "check_n3",
    "Tally", "sweep_classical_vs_perm", "sweep_finite_dim", "sweep_coefficient_identities",
    "export_action", "build_action_matrix", "load_action_matrix",
]

MAX_EXEMPLARS = 5


@dataclass
class VerificationReport:
    suite: str
    frame: str
    window: int
    checked: int
    passed: int
    failed: int
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


class Tally:
    """Accumulates exact check outcomes and the first few failures."""

    def __init__(self):
        self.checked = 0
        self.passed = 0
        self.failed = 0
        self.exemplars: list[dict] = []

    def check(self, ok: bool, kind: str, detail) -> bool:
        self.checked += 1
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.exemplars) < MAX_EXEMPLARS:
                data = detail() if callable(detail) else detail
                self.exemplars.append({"check": kind, **data})
        return ok

    def report(self, suite: str, frame: str, window: int, seed: int,
               started: float) -> VerificationReport:
        return VerificationReport(
            suite=suite, frame=frame, window=window,
            checked=self.checked, passed=self.passed, failed=self.failed,
            exemplars=self.exemplars, seed=seed,
            elapsed_ms=int((time.perf_counter() - started) * 1000),
        )


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


def _pairs(value, key: str) -> tuple[tuple[int, ...], ...]:
    """A config value that is a list of integer pairs."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of integer pairs, got {value!r}")
    return tuple(_integers(pair, key, 2) for pair in value)


@dataclass(frozen=True)
class Config:
    """One verification target: a base point (with an optional singular
    triple), a window bound, the suites to run, a seed, an output dir."""

    n: int
    base: Tableau
    frame: SingularFrame | None
    window: int = 2
    suites: tuple[str, ...] = ("commutators", "gamma", "formulas")
    seed: int = 20240601
    out_dir: str = "reports"
    export_generators: tuple[tuple[int, int], ...] = ()
    export_crs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.n
        bad = (([f"window={self.window}"] if self.window < 0 else [])
               + [f"E{g}" for g in self.export_generators if not (1 <= min(g) and max(g) <= n)]
               + [f"c{g}" for g in self.export_crs if not (1 <= g[0] <= n and g[1] >= 1)])
        if bad:
            raise ValueError(f"out of range for n={n}: {', '.join(bad)}")

    @staticmethod
    def from_dict(data: dict) -> "Config":
        if not isinstance(data, dict):
            raise ValueError(f"a config is a JSON object, not {type(data).__name__}")
        n = _integer(data["n"], "n")
        if not isinstance(data["base"], str):
            raise ValueError(f"base must be a tableau string, got {data['base']!r}")
        base = Tableau.from_text(data["base"])
        if base.n != n:
            raise ValueError(f"base tableau has {base.n} rows, config says n={n}")
        frame = None
        if data.get("frame") is not None:
            frame = SingularFrame(*_integers(data["frame"], "frame", 3), base)
        suites = data.get("suites", ["commutators", "gamma", "formulas"])
        if not (isinstance(suites, list) and all(isinstance(name, str) for name in suites)):
            raise ValueError(f"suites must be a list of suite names, got {suites!r}")
        unknown = [name for name in suites if name not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite(s) {unknown}; expected some of {sorted(SUITES)}")
        out_dir = data.get("out_dir", "reports")
        if not isinstance(out_dir, str):
            raise ValueError(f"out_dir must be a path string, got {out_dir!r}")
        return Config(
            n=n, base=base, frame=frame, window=_integer(data.get("window", 2), "window"),
            suites=tuple(suites), seed=_integer(data.get("seed", 20240601), "seed"),
            out_dir=out_dir,
            export_generators=_pairs(data.get("export_generators", []), "export_generators"),
            export_crs=_pairs(data.get("export_crs", []), "export_crs"),
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


def _qn(n: int) -> int:
    out = 1
    for m in range(1, n):
        out *= math.factorial(m)
    return out


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

def check_commutators(cfg: Config) -> VerificationReport:
    started = time.perf_counter()
    tally = Tally()
    gens = _generators(cfg.n)
    pairs = list(itertools.combinations(gens, 2))
    mod = module_for(cfg)
    for sym in window_symbols(cfg):
        for g1, g2 in pairs:
            defect = mod.bracket_defect(g1, g2, sym)
            tally.check(defect.is_zero, "bracket", lambda s=sym, a=g1, b=g2, d=defect: {
                "input": f"[E{a}, E{b}] on {s!r}", "defect": repr(d)})
    return tally.report("commutators", cfg.describe(), cfg.window, cfg.seed, started)


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

def _gamma_pairs(n: int) -> list[tuple[int, int]]:
    top = min(n, 3)
    return [(r, s) for r in range(1, top + 1) for s in range(1, r + 1)]


def _gamma_k2_leading_coefficient(frame: SingularFrame) -> Fraction:
    """Coefficient of the square of the (k,i) entry in gamma_{k,2}: half the
    second difference of its samples on a probe that varies only that entry."""
    row = frame.vbar.with_tcoefs({(frame.k, frame.i): 1}).fraction_rows()[frame.n - frame.k]
    y0, y1, y2 = (coeffs.gamma_at_point(frame.k, 2, [b + c * q for b, c in row]) for q in range(3))
    return (y2 - 2 * y1 + y0) / 2


def _check_central_word(tally: Tally, kind: str, mod, r: int, s: int, sym) -> None:
    """c_{rs} on one basis symbol: the composed generator words against the
    closed-form ``gamma_action``."""
    x = LinComb.single(sym)
    got = mod.crs_via_composition(r, s, x)
    want = mod.gamma_action(r, s, x)
    tally.check(got == want, kind, lambda: {
        "input": f"c({r},{s}) on {sym!r}", "lhs": repr(got), "rhs": repr(want)})


def check_gamma(cfg: Config) -> VerificationReport:
    started = time.perf_counter()
    tally = Tally()
    rng = random.Random(cfg.seed)
    mod = module_for(cfg)
    window = window_symbols(cfg)

    if cfg.frame is None:
        for (r, s) in _gamma_pairs(cfg.n):
            for _ in range(20):
                _check_central_word(tally, "composition-eigenvalue", mod, r, s,
                                    rng.choice(window))
        chars = {}
        for z in window:
            chars.setdefault(mod.character(z), []).append(z)
        for char, zs in chars.items():
            tally.check(len(zs) == 1, "generic-multiplicity-one",
                        lambda zs_=zs: {"input": f"shifts {zs_!r}",
                                        "detail": "shared eigenvalue tuple"})
        return tally.report("gamma", cfg.describe(), cfg.window, cfg.seed, started)

    frame = cfg.frame
    k = frame.k

    # composed words against the closed-form action
    for (r, s) in _gamma_pairs(cfg.n):
        for _ in range(20):
            _check_central_word(tally, "composition-jordan", mod, r, s, rng.choice(window))

    # the 2x2 nilpotent structure on derivative symbols
    a_lead = _gamma_k2_leading_coefficient(frame)
    seen = 0
    while seen < 20:
        z = random_shift(rng, cfg.n, max(cfg.window, 2))
        if frame.is_tau_fixed(z):
            continue
        seen += 1
        gam = mod.gamma_value(k, 2, z)
        der = mod.der(z)
        once = mod.crs_via_composition(k, 2, der) - gam * der
        twice = mod.crs_via_composition(k, 2, once) - gam * once
        tally.check(not once.is_zero, "jordan-offdiagonal-nonzero",
                    lambda z_=z: {"input": f"Der{z_!r}", "detail": "(c-gamma) Der = 0"})
        tally.check(twice.is_zero, "jordan-square-zero",
                    lambda z_=z, t=twice: {"input": f"Der{z_!r}", "residue": repr(t)})
        model = a_lead * (z.get(k, frame.i) - z.get(k, frame.j))
        tally.check(mod.gamma_dvalue(k, 2, z) == model, "jordan-offdiagonal-model",
                    lambda z_=z, m_=model, g=mod.gamma_dvalue(k, 2, z): {
                        "input": f"Der{z_!r}", "lhs": str(g), "rhs": str(m_)})
        reg = mod.reg(z)
        eig = mod.crs_via_composition(k, 2, reg) - gam * reg
        tally.check(eig.is_zero, "regular-eigenvector",
                    lambda z_=z, e=eig: {"input": f"Reg{z_!r}", "residue": repr(e)})

    # multiplicities: exhaustive over the window
    qn = _qn(cfg.n)
    for char, syms in mod.character_classes(cfg.window).items():
        size = len(syms)
        tally.check(size <= 2 and size <= qn, "multiplicity-bound",
                    lambda s_=syms: {"input": repr(s_), "detail": f"class size {len(s_)}"})
        fixed = [s for s in syms if s.kind == REG and frame.is_tau_fixed(s.shift)]
        if fixed:
            tally.check(size == 1, "tau-fixed-multiplicity-one",
                        lambda s_=syms: {"input": repr(s_)})
        else:
            tally.check(size == 2, "tau-unfixed-multiplicity-two",
                        lambda s_=syms: {"input": repr(s_)})

    # characters below the singular row separate shifts of the low rows
    by_low: dict = {}
    for z in window_shifts(cfg.n, cfg.window):
        low = tuple(z.rows[cfg.n - k:])
        by_low.setdefault(low, set()).add(mod.character(z, max_row=k - 1))
    sub_chars = {}
    for low, subs in by_low.items():
        tally.check(len(subs) == 1, "subcharacter-depends-on-low-rows",
                    lambda low_=low: {"input": repr(low_)})
        sub_chars[low] = next(iter(subs))
    tally.check(len(set(sub_chars.values())) == len(sub_chars),
                "subcharacter-separation", {"detail": "collision among low rows"})

    # connectivity: one stratum up, nonzero coefficient back down
    population = list(window_shifts(cfg.n, cfg.window))
    for z in rng.sample(population, min(40, len(population))):
        t, zrep, zbar = connecting_shift(frame, z)
        out = mod.act_on_regular(k + 1, k - t, zbar)
        _, target = canonicalize(REG, zrep, frame)
        tally.check(out.coeff(target) != 0 and frame.stratum(zbar) == frame.stratum(z) + 1,
                    "connectivity",
                    lambda z_=z, t_=t, zb=zbar: {
                        "input": f"z={z_!r}", "step": f"E({k + 1},{k - t_}) at {zb!r}"})

    # generation witnesses under the irreducibility hypothesis
    if irreducibility_hypothesis(frame):
        seen = 0
        while seen < 10:
            z = random_shift(rng, cfg.n, max(cfg.window, 2))
            if frame.is_tau_fixed(z):
                continue
            seen += 1
            rep = generation_witnesses(frame, z)
            tally.check(rep["derivative_coefficient"] != 0, "witness-derivative",
                        lambda z_=z: {"input": f"z={z_!r}"})
            tally.check(rep["derivative_coefficient"]
                        == rep["derivative_coefficient_closed_form"],
                        "witness-derivative-closed-form",
                        lambda r_=rep: {"lhs": str(r_["derivative_coefficient"]),
                                        "rhs": str(r_["derivative_coefficient_closed_form"])})
            tally.check(rep["step2_ev_coefficient"] != 0, "witness-step2",
                        lambda r_=rep: {"input": r_["step2_shift"]})
            tally.check(all(v != 0 for v in rep["step3_values"].values()),
                        "witness-step3",
                        lambda r_=rep: {"input": r_["shift"]})

    return tally.report("gamma", cfg.describe(), cfg.window, cfg.seed, started)


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------

def check_formulas(cfg: Config) -> VerificationReport:
    started = time.perf_counter()
    tally = Tally()
    rng = random.Random(cfg.seed)
    sweep_classical_vs_perm(tally, rng, samples=100)
    sweep_finite_dim(tally)
    if cfg.frame is not None:
        sweep_coefficient_identities(cfg, tally)
    return tally.report("formulas", cfg.describe(), cfg.window, cfg.seed, started)


def sweep_classical_vs_perm(tally: Tally, rng: random.Random, samples: int = 100):
    """Classical presentation == permutation presentation on random generic
    tableaux of sizes 2..4, term for term."""
    for _ in range(samples):
        n = rng.randint(2, 4)
        t = random_generic_tableau(rng, n)
        for kk in range(1, n):
            for (l, m) in ((kk, kk + 1), (kk + 1, kk), (kk, kk)):
                classical = LinComb.sum_terms(
                    (dz, c) for c, dz in coeffs.classical_action(l, m, t))
                perm = LinComb.sum_terms(
                    (dz, fn.const_value()) for fn, dz in coeffs.perm_action(l, m, t))
                tally.check(classical == perm, "classical-vs-permutation",
                            lambda t_=t, l_=l, m_=m, c_=classical, p_=perm: {
                                "input": f"E({l_},{m_}) on {t_.to_text()}",
                                "lhs": repr(c_), "rhs": repr(p_)})


def sweep_finite_dim(tally: Tally):
    """gl(3) with highest weight (2,1,0): enumerated standard basis against
    the Weyl dimension, span preservation, brackets, central eigenvalues."""
    lam = (2, 1, 0)
    mod = FiniteModule(lam)
    count = len(standard_tableaux(lam))
    dim = weyl_dimension(lam)
    tally.check(count == dim == 8, "finite-dim-count",
                {"input": f"lam={lam}", "lhs": str(count), "rhs": str(dim)})
    gens = _generators(3)
    for z in mod.basis:
        for l, m in gens:
            out = mod.act_symbol(l, m, z)  # raises if the span is left
            for key in out.keys():
                tally.check(key in mod._basis_set, "finite-dim-span",
                            lambda k_=key: {"input": repr(k_)})
        for g1, g2 in itertools.combinations(gens, 2):
            tally.check(mod.bracket_defect(g1, g2, z).is_zero, "finite-dim-bracket",
                        lambda z_=z, a=g1, b=g2: {"input": f"[E{a},E{b}] on {z_!r}"})
        for (r, s) in _gamma_pairs(3):
            _check_central_word(tally, "finite-dim-gamma", mod, r, s, z)


def _jet_matches(jet: coeffs.Jet, e: RatFun) -> bool:
    """The jet (v, a0, a1, q) is the 2-jet of the whole function e at t = 0:
    the same zero-ness and pole order, and the same value and half-derivative
    once the pole is multiplied away (of e itself when there is none)."""
    poles = e.pole_order()
    if e.is_zero != (not jet.a0) or max(-jet.v, 0) != poles:
        return False
    smooth = RatFun(T ** poles) * e if poles else e
    return jet._replace(v=jet.v + poles).d_ev() == (smooth.d(), smooth.ev())


def sweep_coefficient_identities(cfg: Config, tally: Tally):
    frame = cfg.frame
    n, k = cfg.n, frame.k
    mod = SingularModule(frame)
    two_t = RatFun(TWO_T)
    special_rows = {
        PermTuple.row_transposition(n, k, 1, frame.i).row(k),
        PermTuple.row_transposition(n, k, 1, frame.j).row(k),
    }

    for z in window_shifts(n, cfg.window):
        fixed = frame.is_tau_fixed(z)
        tz = frame.tau(z)
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                inside = min(l, m) <= k <= max(l, m) - 1
                direct = coeffs.perm_action(l, m, mod.tableau_at(z))
                eps = epsilon(n, l, m)
                for idx, sigma in enumerate(phi_set(l, m, n)):
                    w = sigma(frame.tableau_at(z))
                    e = coeffs.coeff_ratfun(l, m, w)
                    jet = coeffs.coeff_e(l, m, w)
                    tally.check(_jet_matches(jet, e), "jet-vs-ratfun",
                                lambda j_=jet, e_=e, s_=sigma, l_=l, m_=m: {
                                    "input": f"e({l_},{m_}) at {s_!r}(v+{z!r})",
                                    "lhs": repr(j_), "rhs": repr(e_)})
                    # the module's integer tableau and direct row swaps
                    # against PermTuple on the rational tableau
                    pair = (jet, sigma(eps))
                    tally.check(direct[idx:idx + 1] == [pair], "perm-action-vs-phi-set",
                                lambda d_=direct[idx:idx + 1], p_=pair, s_=sigma, l_=l, m_=m: {
                                    "input": f"E({l_},{m_}) term {s_!r} at v+{z!r}",
                                    "lhs": repr(d_), "rhs": repr([p_])})
                    special = sigma.row(k) in special_rows
                    if fixed:
                        # pole-order bound, and smoothness off the special set
                        tally.check(e.pole_order() <= 1, "pole-bound",
                                    lambda e_=e: {"input": repr(e_)})
                        if not (inside and special):
                            tally.check(e.pole_order() == 0, "pole-smooth",
                                        lambda e_=e: {"input": repr(e_)})
                    # point-operator exchange rules on this coefficient
                    g = two_t * e
                    tally.check(g.ev() == (two_t * g).d(), "ev-equals-d-shifted",
                                lambda g_=g: {"input": repr(g_)})
                    if e.pole_order() == 0:
                        if e == e.tau():
                            tally.check(e.d() == 0, "symmetric-derivative-zero",
                                        lambda e_=e: {"input": repr(e_)})
                        h = e.divided_difference()
                        if h.pole_order() == 0:
                            tally.check(h.ev() == 2 * e.d(), "divided-difference",
                                        lambda e_=e: {"input": repr(e_)})
                    # parity across the swap
                    e_t = coeffs.coeff_ratfun(l, m, sigma(frame.tableau_at(tz)))
                    if not special and l != m:
                        tally.check(e_t.ev() == e.ev() and e_t.d() == -e.d(),
                                    "parity-plain", lambda e_=e: {"input": repr(e_)})
                    if special and l != m:
                        star = tau_star(sigma, k, frame.i, frame.j)
                        taup = PermTuple.row_transposition(n, k, frame.i, frame.j)
                        lhs = coeffs.coeff_ratfun(l, m, star(frame.tableau_at(z)))
                        rhs = coeffs.coeff_ratfun(l, m, (sigma * taup)(frame.tableau_at(z)))
                        tally.check(lhs == rhs, "parity-twisted",
                                    lambda a=lhs, b=rhs: {"lhs": repr(a), "rhs": repr(b)})

        # compatibility of the module action with the swap
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                same = mod.act_on_regular(l, m, z) == mod.act_on_regular(l, m, tz)
                tally.check(same, "regular-action-tau-even",
                            lambda z_=z, l_=l, m_=m: {"input": f"E({l_},{m_}) at {z_!r}"})
                if not fixed:
                    odd = (mod.act_on_derivative(l, m, z)
                           == -mod.act_on_derivative(l, m, tz))
                    tally.check(odd, "derivative-action-tau-odd",
                                lambda z_=z, l_=l, m_=m: {"input": f"E({l_},{m_}) at {z_!r}"})
                    ev_form = mod.act_on_regular_by_evaluation(l, m, z)
                    tally.check(mod.act_on_regular(l, m, z) == ev_form,
                                "regular-action-ev-crosscheck",
                                lambda z_=z, l_=l, m_=m: {"input": f"E({l_},{m_}) at {z_!r}"})


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


def check_n3(cfg: Config) -> VerificationReport:
    started = time.perf_counter()
    tally = Tally()
    n3_precondition(cfg)
    frame = cfg.frame
    mod = SingularModule(frame)

    # classification is total and unambiguous; the action never climbs layers
    for sym in canonical_window(frame, cfg.window):
        piece = classify_shift(sym.shift)  # raises InvariantViolation if not unique
        layer = loewy_layer(piece)
        ok = True
        worst = None
        for l, m in _generators(3):
            for out_sym, c in mod.act_symbol(l, m, sym).items():
                out_layer = loewy_layer(classify_shift(out_sym.shift))
                if out_layer > layer:
                    ok = False
                    worst = (l, m, out_sym, c)
        tally.check(ok, "loewy-monotone",
                    lambda s_=sym, p_=piece, w_=worst: {
                        "input": f"{s_!r} in {p_}", "violation": repr(w_)})

    # weight multiplicities inside L7 grow strictly with the window
    counts = {}
    for bound in (2, 3, 4):
        per_weight: dict = {}
        for z in window_shifts(3, bound):
            if classify_shift(z) == "L7":
                key = weight_key(z)
                per_weight[key] = per_weight.get(key, 0) + 1
        counts[bound] = per_weight
    for key, base_count in counts[2].items():
        c3 = counts[3].get(key, 0)
        c4 = counts[4].get(key, 0)
        tally.check(base_count < c3 < c4, "l7-weight-growth",
                    lambda k_=key, a=base_count, b=c3, c=c4: {
                        "input": f"weight {k_}", "counts": f"{a} -> {b} -> {c}"})

    return tally.report("n3", cfg.describe(), cfg.window, cfg.seed, started)


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
            out = mod.act(a, b, LinComb.single(col))
        elif kind == "c":
            out = mod.crs_via_composition(a, b, LinComb.single(col))
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


def export_action(cfg: Config) -> list[Path]:
    """Write one JSON matrix file per configured operator; returns paths."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    operators = ([("E", g) for g in cfg.export_generators or _generators(cfg.n)]
                 + [("c", rs) for rs in cfg.export_crs])
    for kind, (a, b) in operators:
        path = out_dir / f"{kind}_{a}_{b}.json"
        matrix = build_action_matrix(cfg, kind, (a, b))
        path.write_text(json.dumps(matrix, indent=2, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def load_action_matrix(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


SUITES = {
    "commutators": check_commutators,
    "gamma": check_gamma,
    "formulas": check_formulas,
    "n3": check_n3,
}

# What a suite needs of its config, checked before it runs.
PRECONDITIONS = {"n3": n3_precondition}


def run_suite(name: str, cfg: Config) -> VerificationReport:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    return suite(cfg)
