"""Check that the calibration verdict's SE is the offset's error under
the full null, where split calibration is exact.

    python3 tools/calibration_z.py

For each seed 13-62 this script draws the bundled ``full_null_demo``
trial, keeps its control arm (outcomes kept after dropout, as
``calibrate`` does) and runs ``cli._calibration`` with the plug-in at
R = 200 on the CLI's default thread count: the one function that
decides the verdict of ``calibrate`` and ``paper-demo``.  Each seed's

    z = (mean offset - closed form) / (bound / cli._CALIBRATION_SIGMAS)

is the signed gap over the SE the verdict itself uses, read back from
its bound, so a change to that SE changes z without a change here.
If the SE is the offset's error, z has SD near 1 over the seeds.  The
script prints one line per seed, then the SD of z, the largest |z| and
the counts beyond 4 and 5, and exits 1 unless the SD lies in
[0.8, 1.25] and no |z| exceeds 4.  It is not part of the test suite:
on a 2-vCPU Xeon at two threads a seed takes about 1.5 s, all 50 about
80 s.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratabias import cli  # noqa: E402
from stratabias.datagen import observe  # noqa: E402
from stratabias.params import load_bundled  # noqa: E402

SCENARIO = "full_null_demo"
SEEDS = range(13, 63)
R = 200
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)  # as the CLI's --threads default
SD_BOUNDS = (0.8, 1.25)
MAX_ABS_Z = 4.0


def seed_z(seed: int) -> float:
    """The signed offset-vs-truth gap of one trial over the verdict's SE."""
    cfg = dataclasses.replace(load_bundled(SCENARIO), seed=seed)
    obs = observe(cfg, keep_y_after_dropout=True)
    control = obs.subset(obs.t == 0)
    del obs
    cal, (quad, _, bound, _) = cli._calibration(cfg, control, "plugin", R,
                                                THREADS)
    return (cal.mean_offset - quad) / (bound / cli._CALIBRATION_SIGMAS)


def main() -> int:
    zs = []
    for seed in SEEDS:
        t0 = time.monotonic()
        zs.append(seed_z(seed))
        print(f"seed {seed}: z = {zs[-1]:+.2f} "
              f"({time.monotonic() - t0:.1f} s)", flush=True)
    size = np.abs(zs)
    sd = float(np.std(zs, ddof=1))
    ok = SD_BOUNDS[0] <= sd <= SD_BOUNDS[1] and size.max() <= MAX_ABS_Z
    print(f"{len(zs)} seeds at R = {R}: z SD {sd:.2f} (bounds "
          f"[{SD_BOUNDS[0]}, {SD_BOUNDS[1]}]), largest |z| {size.max():.2f} "
          f"(bound {MAX_ABS_Z}), |z| > 4 on {int((size > 4).sum())}, "
          f"|z| > 5 on {int((size > 5).sum())}: "
          f"{'CALIBRATED' if ok else 'NOT CALIBRATED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
