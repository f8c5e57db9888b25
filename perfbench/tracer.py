"""Outside-in span tracer for the gtmod layers.

:meth:`Tracer.install` replaces the public entry points of each module --
at every name the package looks them up by -- with wrappers that record
one span per call: name, start, end, parent span and run id (the index of
the op being run).  Spans stay in compact arrays in memory; the layer
metrics are computed from them once, at the end, and the arrays can be
written out in one go.  Nothing inside ``src/gtmod`` changes, and
:meth:`Tracer.uninstall` restores every patched attribute.

A span's self time is its duration minus the time its child spans cover.
Time spent in unwrapped code (``act``, tableau construction, ``Fraction``
arithmetic outside ``RatFun``) counts as self time of the nearest wrapped
caller.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from gtmod import coeffs, finite, generic, lincomb, n3, ratfun, singular, tableaux, verify

_RATFUN_ARITH = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")
# (owner object, attribute, span name); the span name's first component is
# the layer it is charged to.
TARGETS = (
    [(coeffs, "coeff_e", "coeffs.coeff_e"),
     (coeffs, "gamma", "coeffs.gamma"),
     (coeffs, "perm_action", "coeffs.perm_action"),
     (ratfun, "poly_gcd", "ratfun.poly_gcd")]
    + [(ratfun.RatFun, name, f"ratfun.arith.{name}") for name in _RATFUN_ARITH]
    + [(ratfun.RatFun, name, f"ratfun.{name}") for name in ("ev", "d", "pole_order", "tau")]
    + [(lincomb.LinComb, name, f"lincomb.{name}") for name in ("__add__", "__sub__", "__rmul__")]
    + [(tableaux.PermTuple, "__call__", "tableaux.perm_apply")]
    + [(singular.SingularModule, name, f"singular.{name}")
       for name in ("act_symbol", "act_on_regular", "act_on_derivative",
                    "bracket_defect", "crs_via_composition")]
    + [(generic.GenericModule, name, f"generic.{name}")
       for name in ("act_symbol", "bracket_defect", "crs_via_composition")]
    + [(finite.FiniteModule, name, f"finite.{name}")
       for name in ("__init__", "act_symbol", "act", "bracket_defect",
                    "gamma_eigenvalue", "crs_via_composition")]
    # verify imports classify_shift by name, so both bindings are patched
    + [(n3, "classify_shift", "n3.classify_shift"),
       (verify, "classify_shift", "n3.classify_shift"),
       (verify.Tally, "check", "verify.check"),
       (verify, "run_suite", "verify.run_suite")]
)

LAYERS = ("coeffs", "ratfun", "tableaux", "lincomb", "singular", "generic",
          "finite", "n3", "verify")

# act_symbol spans with one of these as a direct child are cache misses.
_MISS_CHILDREN = {
    "singular.act_symbol": ("singular.act_on_regular", "singular.act_on_derivative"),
    "generic.act_symbol": ("coeffs.perm_action",),
}


def _coeff_bits(out) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in out.items()), default=0)


class Tracer:
    """Records spans for every call through the installed wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.run_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.run_id = 0
        self.check_kinds: Counter = Counter()
        self.point_values = 0
        self.zero_point_values = 0
        self.max_coeff_bits = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ratfun.ev": self._on_point_value,
            "ratfun.d": self._on_point_value,
            "singular.act_symbol": self._on_singular_act,
            "verify.check": self._on_check,
        }
        wrapped: dict[tuple[int, str], object] = {}
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            # classify_shift is bound in two modules; both get one wrapper
            key = (id(fn), name)
            if key not in wrapped:
                wrapped[key] = self._wrap(name, fn, hooks.get(name))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, hook):
        nid = self._name_id(name)
        stack = self._stack
        name_ids, parents, run_ids = self.name_ids, self.parents, self.run_ids
        starts, ends = self.starts, self.ends
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(ends)
            ends.append(0.0)
            name_ids.append(nid)
            parents.append(stack[-1])
            run_ids.append(tracer.run_id)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return span

    # -- count hooks (run after the span closes) ------------------------------

    def _on_point_value(self, args, kwargs, result) -> None:
        self.point_values += 1
        if not result:
            self.zero_point_values += 1

    def _on_singular_act(self, args, kwargs, result) -> None:
        bits = _coeff_bits(result)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _on_check(self, args, kwargs, result) -> None:
        kind = args[2] if len(args) > 2 else kwargs["kind"]
        self.check_kinds[kind] += 1

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        cache-miss count of each act_symbol span name."""
        count = len(self.ends)
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        ids = {name: nid for nid, name in enumerate(self.names)}
        miss_pairs = {(ids[c], ids[p]) for p, children in _MISS_CHILDREN.items()
                      for c in children if p in ids and c in ids}
        child = [0.0] * count
        missed = set()
        for idx in range(count):
            p = parents[idx]
            if p >= 0:
                child[p] += ends[idx] - starts[idx]
                if (name_ids[idx], name_ids[p]) in miss_pairs:
                    missed.add(p)
        per = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "misses": 0}
               for name in self.names}
        rows = [per[name] for name in self.names]
        for idx in range(count):
            row = rows[name_ids[idx]]
            dur = ends[idx] - starts[idx]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[idx]
        for idx in missed:
            rows[name_ids[idx]]["misses"] += 1
        return per

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header next to the raw arrays, in the
        header's field order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.ends),
                  "fields": ["name_ids:i", "parents:i", "run_ids:i", "starts:d", "ends:d"]}
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name_ids, self.parents, self.run_ids, self.starts, self.ends):
                arr.tofile(fh)


def layer_metrics(per: dict, tracer: Tracer, wall_s: float) -> dict[str, float]:
    """The named per-layer metrics (values only) from a :meth:`Tracer.summary`."""

    def total(prefix: str, field: str) -> float:
        return sum(row[field] for name, row in per.items() if name.startswith(prefix))

    def get(name: str, field: str) -> float:
        return per.get(name, {}).get(field, 0)

    def hit_ratio(name: str) -> float:
        calls = get(name, "calls")
        return (calls - get(name, "misses")) / calls if calls else 0.0

    out = {
        "trace.wall_s": wall_s,
        "coeffs.coeff_e_calls": get("coeffs.coeff_e", "calls"),
        "coeffs.coeff_e_self_s": get("coeffs.coeff_e", "self_s"),
        "coeffs.gamma_calls": get("coeffs.gamma", "calls"),
        "coeffs.gamma_self_s": get("coeffs.gamma", "self_s"),
        "coeffs.gamma_incl_s": get("coeffs.gamma", "incl_s"),
        "coeffs.zero_coeff_frac": (tracer.zero_point_values / tracer.point_values
                                   if tracer.point_values else 0.0),
        "ratfun.gcd_calls": get("ratfun.poly_gcd", "calls"),
        "ratfun.gcd_self_s": get("ratfun.poly_gcd", "self_s"),
        "ratfun.arith_calls": total("ratfun.arith.", "calls"),
        "ratfun.self_s": total("ratfun.", "self_s"),
        "tableaux.perm_apply_calls": get("tableaux.perm_apply", "calls"),
        "lincomb.ops": total("lincomb.", "calls"),
        "singular.act_calls": get("singular.act_symbol", "calls"),
        "singular.act_hit_ratio": hit_ratio("singular.act_symbol"),
        "singular.max_coeff_bits": tracer.max_coeff_bits,
        "generic.act_calls": get("generic.act_symbol", "calls"),
        "generic.act_hit_ratio": hit_ratio("generic.act_symbol"),
        "verify.check_calls": get("verify.check", "calls"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(f"{layer}.", "self_s")
    return out
