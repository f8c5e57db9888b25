"""Command-line entry point for the verification suites.

Usage:
    verify commutators --config fixtures/singular_n3.json
    verify gamma       --config fixtures/singular_n3.json --json report.json
    verify formulas    --config fixtures/singular_n3.json --seed 7
    verify n3          --config fixtures/all_equal_n3.json --window 4

Exit status is 0 iff the suite ran at least one check and every check
passed, 1 when a check failed or none ran, and 2 on a usage or config error
(a bad ``--window``/``--seed`` override or a config the suite cannot run on
included) or an unwritable ``--json`` path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .verify import PRECONDITIONS, SUITES, Config, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Exact verification suites for tableau modules of gl(n).")
    sub = parser.add_subparsers(dest="suite", required=True)
    help_lines = {
        "commutators": "defining relations on every window basis symbol",
        "gamma": "central family: eigenvalues, 2x2 blocks, multiplicities",
        "formulas": "coefficient identities, parity, poles, finite-dim regression",
        "n3": "ten-piece decomposition over the all-equal n=3 base",
    }
    for name in SUITES:
        p = sub.add_parser(name, help=help_lines[name])
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--window", type=int, default=None,
                       help="override the window bound")
        p.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed")
        p.add_argument("--json", default=None, metavar="OUT",
                       help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    path = args.config
    try:
        cfg = Config.from_file(path).with_overrides(window=args.window, seed=args.seed)
        if args.suite in PRECONDITIONS:
            PRECONDITIONS[args.suite](cfg)
        # opened before the suite runs, so an unwritable path costs no run
        path = args.json
        out = open(path, "w", encoding="utf-8") if path else None
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        msg = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {path}: {msg}", file=sys.stderr)
        return 2
    with out or contextlib.nullcontext():
        report = run_suite(args.suite, cfg)
        print(report.summary())
        for ex in report.exemplars:
            print(f"  exemplar: {ex}")
        if out:
            out.write(report.to_json() + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
