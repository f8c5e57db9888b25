"""Driving the verification suites from Python.

Equivalent to the command line

    verify commutators --config fixtures/singular_n3.json
    verify gamma       --config fixtures/singular_n3.json
    verify formulas    --config fixtures/singular_n3.json
    verify n3          --config fixtures/all_equal_n3.json --window 3

Every check is exact; a suite passes iff failed == 0, and the report is
reproducible for a fixed (config, seed).
"""

from pathlib import Path

from gtmod.verify import Config, export_action, run_suite

root = Path(__file__).resolve().parent.parent

cfg = Config.from_file(root / "fixtures" / "singular_n3.json")
for suite in ("commutators", "gamma", "formulas"):
    print(run_suite(suite, cfg).summary())

cfg_eq = Config.from_file(root / "fixtures" / "all_equal_n3.json").with_overrides(window=3)
print(run_suite("n3", cfg_eq).summary())

print("\nexporting window action matrices ...")
operators = [("E", (1, 2)), ("E", (2, 1)), ("c", (2, 2))]
for path in export_action(cfg.with_overrides(window=1), operators, "reports"):
    print(f"   wrote {path}")
