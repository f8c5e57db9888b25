"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace [--tiny]

Set-up (import, fixture reads, frame generation, ``Config`` builds) runs
first; ``setup`` mode stops there.  ``run`` then calls
``gtmod.verify.run_suite`` once per op, one at a time, and ``trace`` does
the same with the span tracer installed.  The last line of standard output
is one JSON object: ``ready`` (the ``perf_counter`` reading when set-up
finished, which the parent compares with its reading at spawn), and for
the other modes the per-op results, ``wall_s`` (first suite call to last
verdict) and ``peak_rss_kb``; ``trace`` adds the layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gtmod import verify  # noqa: E402

import workloads  # noqa: E402


def run_ops(ops, tracer=None) -> tuple[list[dict], float]:
    """Run every op in order; an op that raises is recorded, not fatal.
    Returns the per-op results and the wall time from the first suite call
    to the last verdict."""
    results = []
    first = time.perf_counter()
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = idx
        started = time.perf_counter()
        try:
            report = verify.run_suite(op.suite, op.config)
        except Exception as exc:  # a raising suite is a failed op, and the pass goes on
            results.append({"label": op.label, "checked": 0, "failed": 0,
                            "error": f"{type(exc).__name__}: {exc}",
                            "elapsed_s": time.perf_counter() - started})
            continue
        results.append({"label": op.label, "checked": report.checked,
                        "failed": report.failed, "error": None,
                        "elapsed_s": time.perf_counter() - started})
    return results, time.perf_counter() - first


def op_failure(result: dict, floor: int | None) -> str | None:
    """Why an op's verdict is a failure, or None.  ``floor`` is the
    ``checked`` count recorded for the op at the default seed; more checks
    than recorded are fine, fewer are not."""
    if result["error"]:
        return result["error"]
    if result["failed"]:
        return f"{result['failed']} checks failed"
    if result["checked"] == 0:
        return "checked nothing"
    if floor is not None and result["checked"] < floor:
        return f"checked {result['checked']}, fewer than the recorded {floor}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    ops = workloads.build_ops(args.workload, args.seed, ROOT, tiny=args.tiny)
    out = {"ready": time.perf_counter()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
        try:
            out["ops"], out["wall_s"] = run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            per = tracer.summary()
            out["layers"] = layer_metrics(per, tracer, out["wall_s"])
            out["spans"] = per
            out["check_kinds"] = dict(sorted(tracer.check_kinds.items()))
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
