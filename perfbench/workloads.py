"""The benchmark's workloads: what each runs and how its output is checked.

Each workload is one command line for a child Python process with
``src`` on ``PYTHONPATH``.  Two run ``python -m stratabias.cli``; the
quadrature sweep runs ``perfbench/sweep.py``.  A check reads the files
the run wrote and returns an ``Outcome``:

- ``attempted``: operations the run was asked to do;
- ``refused``: operations the program turned down with a typed error
  (a failed calibration split, a point where the closed form raised
  ``QuadratureError``);
- ``failed``: operations that crashed or whose output broke a check;
- ``digests``: SHA-256 of each output file, or of the sweep's values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SCENARIOS = Path("src") / "stratabias" / "scenarios"
FULL_NULL = SCENARIOS / "full_null_demo.json"
PARTIAL_NULL = SCENARIOS / "partial_null_gamma2.json"
TRUE_EFFECT_N = 2_000_000
CALIBRATE_R = 200
SWEEP_POINTS = 800
SIGMAS = 3.5  # the CLI's own Monte Carlo agreement threshold


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    refused: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    wall_s: float | None = None  # set when the workload times itself

    @property
    def ok(self) -> int:
        """Operations that produced a checked value."""
        return max(0, self.attempted - self.failed - self.refused)

    def fail(self, problem: str, operations: int | None = None) -> None:
        self.problems.append(problem)
        self.failed = self.attempted if operations is None else operations


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: Callable[[int, Path, int], list[str]]  # (seed, out, threads)
    check: Callable[[Path, int], Outcome]  # (out, exit code)
    spans: tuple[str, ...]  # traced functions that must run


def _sha256(path: Path) -> str:
    """SHA-256 of a file, read in blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(*args) -> list[str]:
    return ["-m", "stratabias.cli", *map(str, args)]


def _ran(out_code: int, outcome: Outcome) -> bool:
    if out_code != 0:
        outcome.fail(f"exit code {out_code}")
        return False
    return True


# true-effect ---------------------------------------------------------------

def _check_true_effect(out: Path, code: int) -> Outcome:
    outcome = Outcome(attempted=1)
    if not _ran(code, outcome):
        return outcome
    outcome.digests["effects.csv"] = _sha256(out / "effects.csv")
    with open(out / "effects.csv", newline="") as fh:
        rows = {r["stratum"]: r for r in csv.DictReader(fh)}
    both, mc, quad = (rows.get(k) for k in ("S_++", "S_*+",
                                             "S_*+[quadrature]"))
    if None in (both, mc, quad):
        outcome.fail(f"effects.csv strata {sorted(rows)}")
        return outcome
    gap = abs(float(quad["value"]) - float(mc["value"]))
    if not gap <= SIGMAS * float(mc["se"]):
        outcome.fail(f"|quadrature - MC| = {gap!r} > {SIGMAS}*SE "
                     f"({mc['se']})")
    if not abs(float(both["value"])) <= SIGMAS * float(both["se"]):
        outcome.fail(f"S_++ = {both['value']} not within {SIGMAS}*SE "
                     f"({both['se']}) of 0")
    return outcome


# calibrate -----------------------------------------------------------------

def _check_calibrate(out: Path, code: int) -> Outcome:
    outcome = Outcome(attempted=CALIBRATE_R)
    if not _ran(code, outcome):
        return outcome
    for name in ("calibration.csv", "fit.csv"):
        outcome.digests[name] = _sha256(out / name)
    with open(out / "calibration.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    outcome.refused = int(row["n_failed_splits"])
    if outcome.refused * 10 > CALIBRATE_R:
        outcome.fail(f"{outcome.refused} of {CALIBRATE_R} splits failed")
    offset = float(row["mean_offset"])
    if not (math.isfinite(offset) and math.isfinite(float(row["se_offset"]))):
        outcome.fail(f"offset {offset!r} +/- {row['se_offset']}")
    stdout = (out / "stdout.txt").read_text()
    if "-> MISMATCH" not in stdout:
        outcome.fail("calibration did not report the expected MISMATCH "
                     "on the partial null")
    return outcome


# quad-sweep ----------------------------------------------------------------

def _check_sweep(out: Path, code: int) -> Outcome:
    outcome = Outcome(attempted=SWEEP_POINTS)
    if not _ran(code, outcome):
        return outcome
    with open(out / "sweep.json") as fh:
        result = json.load(fh)
    outcome.digests["values"] = result["values_sha256"]
    outcome.refused = result["refused"]
    outcome.wall_s = result["wall_s"]
    if result["points"] != SWEEP_POINTS:
        outcome.fail(f"sweep ran {result['points']} points")
    if result["failed"]:
        outcome.fail(f"{result['failed']} points failed: "
                     f"{result['failures']}", result["failed"])
    return outcome


_GENERATE = ("params.load_scenario", "rng.uniform_matrix",
             "datagen.generate_block")

WORKLOADS = {w.name: w for w in (
    Workload(
        "true-effect",
        "Philox draws and generate_block are ~95% at n=2e6 with no CSV "
        "and <1% quadrature: RNG-chunk and streaming-oracle changes show.",
        lambda seed, out, threads: _cli(
            "true-effect", FULL_NULL, "--method", "both",
            "--n", TRUE_EFFECT_N, "--seed", seed, "--out", out),
        _check_true_effect,
        ("cli.main", *_GENERATE, "strata.oracle_effect",
         "quadrature.null_stratum_effect", "quadrature._evaluate")),
    Workload(
        "calibrate",
        "Plug-in split rounds (IRLS, marginal pi) are ~94% with little "
        "generation: replicate-engine, IRLS and process-pool changes show.",
        lambda seed, out, threads: _cli(
            "calibrate", PARTIAL_NULL, "--estimator", "plugin",
            "--R", CALIBRATE_R, "--threads", threads, "--seed", seed,
            "--out", out),
        _check_calibrate,
        ("cli.main", *_GENERATE, "datagen.observe",
         "calibration.split_calibrate", "calibration.split_round",
         "calibration._plugin_point", "calibration._irls",
         "calibration._loglik", "calibration._marginal_pi",
         "calibration.fit_sequential_logistic",
         "quadrature.null_stratum_effect", "quadrature._evaluate")),
    Workload(
        "quad-sweep",
        "Quadrature is <=1% elsewhere; here it is all the work and some "
        "points are refused, so adaptive quadrature shows in ok_frac.",
        lambda seed, out, threads: [
            str(Path("perfbench") / "sweep.py"), "--seed", str(seed),
            "--points", str(SWEEP_POINTS), "--out", str(out)],
        _check_sweep,
        ("quadrature.null_stratum_effect", "quadrature._evaluate")),
)}
