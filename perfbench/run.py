"""Verification benchmark for gtmod.

    python3 perfbench/run.py --workload n3-fixtures --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md in this directory) as a closed loop with
one caller: each pass is a fresh interpreter that calls
``gtmod.verify.run_suite`` once per op, one suite at a time.  Every op's
verdict is checked; the run exits 1 when any op failed, 2 when the gtmod
sources are missing.

``--trace 0`` runs set-up probes, then passes until ``--seconds`` would be
exceeded (at least one), with no wrappers installed, and reports the
end-to-end metrics.  ``--trace 1`` runs one plain pass and one traced pass
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (ops) and
``metrics``, whose names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
# Every child is killed once the run has taken this long; the whole run
# must end within 180 s.
DEADLINE_S = 170.0


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run from an export that has no .git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(args, mode: str, deadline: float) -> dict | None:
    """Run one worker to completion; None when it failed or ran out of time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode] + (["--tiny"] if args.tiny else [])
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: {mode} worker killed at the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {mode} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    data = json.loads(out.strip().splitlines()[-1])
    # perf_counter is the system-wide monotonic clock, so the child's
    # reading at the end of set-up compares with ours at spawn
    data["setup_s"] = data["ready"] - spawned
    data["elapsed_s"] = time.perf_counter() - spawned
    return data


def run_untraced(args, deadline: float) -> tuple[list, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(args, "setup", deadline)
        if probe is None:
            return [None], {}
        setups.append(probe["setup_s"])
    passes = []
    stop = min(time.perf_counter() + args.seconds, deadline)
    while True:
        one = spawn(args, "run", deadline)
        passes.append(one)
        if one is None:
            return passes, {}
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if time.perf_counter() + typical > stop:
            break
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "checks_per_s": statistics.median(
            sum(op["checked"] for op in p["ops"]) / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }
    return passes, metrics


def run_traced(args, deadline: float) -> tuple[list, dict]:
    plain = spawn(args, "run", deadline)
    if plain is None:
        return [None], {}
    traced = spawn(args, "trace", deadline)
    if traced is None:
        return [plain, None], {}
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    for kind, count in traced["check_kinds"].items():
        print(f"detail check_kind {kind} = {count} count")
    for name, row in sorted(traced["spans"].items()):
        print(f"detail span {name} calls={row['calls']} "
              f"incl_s={row['incl_s']:.4f} self_s={row['self_s']:.4f}")
    return [plain, traced], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="window 0 and two sweep frames, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "gtmod" / "__init__.py").is_file():
        print(f"error: no gtmod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from worker import op_failure

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    recorded = json.loads((HERE / "expected_counts.json").read_text(encoding="utf-8"))
    floors = recorded[args.workload] if args.seed == workloads.DEFAULT_SEED else {}

    ops = workloads.build_ops(args.workload, args.seed, ROOT, tiny=args.tiny)
    env = {
        "git_revision": git_revision(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "fixtures": workloads.fixture_hashes(args.workload, ROOT),
        "frames": list(dict.fromkeys(workloads.frame_text(op.config.frame)
                                     for op in ops if op.config.frame is not None)),
    }
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} tiny={int(args.tiny)}")
    print("env " + json.dumps(env))

    deadline = time.perf_counter() + DEADLINE_S
    runner = run_traced if args.trace else run_untraced
    passes, metrics = runner(args, deadline)

    attempted = failed = 0
    for idx, one in enumerate(passes):
        attempted += len(ops)
        if one is None:
            failed += len(ops)
            print(f"op pass={idx} all {len(ops)} ops FAIL: worker did not finish")
            continue
        for result in one["ops"]:
            why = op_failure(result, floors.get(result["label"]))
            failed += why is not None
            print(f"op pass={idx} {result['label']} checked={result['checked']} "
                  f"failed={result['failed']} elapsed_s={result['elapsed_s']:.4f} "
                  + ("ok" if why is None else f"FAIL: {why}"))

    out = {}
    if metrics:
        for entry in wanted:
            out[entry["name"]] = {"value": metrics.pop(entry["name"]), "unit": entry["unit"]}
            print(f"metric {entry['name']} = {out[entry['name']]['value']} {entry['unit']}")
        # layer times that are 0.0 on every run of some workload (a layer it
        # never calls) are printed, but kept out of the metrics object
        for name, value in metrics.items():
            print(f"detail layer {name} = {value} s")
    print(f"metric ops_failed = {failed} count (of {attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
