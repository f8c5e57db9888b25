"""Workload definitions: which suites run on which generated configs.

A workload is a list of :class:`Op` -- one ``run_suite`` call each -- built
from the checkout's fixture files and the benchmark seed.  The seed
replaces every config's own seed, and it alone drives the n = 4 frame
generator, so equal seeds give equal inputs.  The program under test only
ever sees the :class:`gtmod.verify.Config` objects built here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from gtmod.tableaux import SingularFrame, Tableau
from gtmod.verify import Config

WORKLOADS = ("n3-fixtures", "n4-sweep", "n4-gamma")

# The seed every fixture config carries; per-op ``checked`` counts recorded
# in expected_counts.json are taken at this seed.
DEFAULT_SEED = 20240601

N3_FIXTURES = ("generic_n3", "singular_n3", "all_equal_n3")
N4_GAMMA_FIXTURES = ("singular_n4", "singular_n4_row3")

# n4-sweep: frames per pass, and the two twist branches it alternates
# between -- the i = 1 branch (pair (1,2) in row 2) and the conjugation
# branch (pair (2,3) in row 3).
SWEEP_FRAMES = 40
TINY_SWEEP_FRAMES = 2
SWEEP_BRANCHES = ((2, 1, 2), (3, 2, 3))
SWEEP_N = 4
SWEEP_DENOMINATORS = (2, 3, 5, 7, 11)


@dataclass(frozen=True)
class Op:
    """One suite call: ``label`` names it in output and in the recorded
    counts; it is unique within a workload."""

    label: str
    suite: str
    config: Config


def _draw_entry(rng: random.Random) -> Fraction:
    """A rational with a denominator from SWEEP_DENOMINATORS that is never
    an integer."""
    q = rng.choice(SWEEP_DENOMINATORS)
    p = rng.randint(-3 * q, 3 * q)
    while p % q == 0:
        p = rng.randint(-3 * q, 3 * q)
    return Fraction(p, q)


def sweep_frames(seed: int, count: int) -> list[SingularFrame]:
    """``count`` random 1-singular n = 4 frames, alternating the two twist
    branches.  Off-pair entries are non-integers; a draw that the frame
    validation rejects (a second integral same-row pair) is redrawn."""
    rng = random.Random(seed)
    frames = []
    for idx in range(count):
        k, i, j = SWEEP_BRANCHES[idx % len(SWEEP_BRANCHES)]
        while True:
            rows = [[_draw_entry(rng) for _ in range(r)] for r in range(SWEEP_N, 0, -1)]
            pair_row = rows[SWEEP_N - k]
            pair_row[j - 1] = pair_row[i - 1]
            try:
                frames.append(SingularFrame(k, i, j, Tableau.from_rows(rows)))
            except ValueError:
                continue
            break
    return frames


def frame_text(frame: SingularFrame) -> str:
    """Text form of a frame, enough to rebuild it with :func:`frame_from_text`."""
    return f"{frame.k},{frame.i},{frame.j} {frame.vbar.to_text()}"


def frame_from_text(text: str) -> SingularFrame:
    triple, base = text.split(" ", 1)
    k, i, j = (int(x) for x in triple.split(","))
    return SingularFrame(k, i, j, Tableau.from_text(base))


def build_ops(workload: str, seed: int, root: Path, tiny: bool = False) -> list[Op]:
    """The ops of one pass of ``workload``.  ``tiny`` shrinks every window
    to 0 and the sweep to one frame per branch, for the benchmark's tests."""
    fixtures = root / "fixtures"
    ops = []
    if workload == "n3-fixtures":
        for name in N3_FIXTURES:
            cfg = Config.from_file(fixtures / f"{name}.json").with_overrides(
                window=0 if tiny else None, seed=seed)
            for suite in cfg.suites:
                ops.append(Op(f"{name}/{suite}/w{cfg.window}", suite, cfg))
    elif workload == "n4-sweep":
        count = TINY_SWEEP_FRAMES if tiny else SWEEP_FRAMES
        for idx, frame in enumerate(sweep_frames(seed, count)):
            cfg = Config(n=SWEEP_N, base=frame.vbar, frame=frame, window=0,
                         suites=("commutators",), seed=seed)
            ops.append(Op(f"sweep-{idx:02d}/commutators/w0", "commutators", cfg))
    elif workload == "n4-gamma":
        for name in N4_GAMMA_FIXTURES:
            cfg = Config.from_file(fixtures / f"{name}.json").with_overrides(
                window=0 if tiny else None, seed=seed)
            ops.append(Op(f"{name}/gamma/w{cfg.window}", "gamma", cfg))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops


def fixture_hashes(workload: str, root: Path) -> dict[str, str]:
    """sha256 of every fixture file the workload reads."""
    names = {"n3-fixtures": N3_FIXTURES, "n4-gamma": N4_GAMMA_FIXTURES}.get(workload, ())
    return {
        f"fixtures/{name}.json": hashlib.sha256(
            (root / "fixtures" / f"{name}.json").read_bytes()).hexdigest()
        for name in names
    }
