"""Check the plug-in estimator's sandwich SE against a bootstrap and
against the spread of independent trials.

    python3 tools/plugin_se_check.py

``estimate_plugin`` reports an influence-function (sandwich) SE.  This
script checks it two ways on both demonstration scenarios
(``full_null_demo`` and ``partial_null_gamma2``, n = 2*10^5, outcomes
kept after dropout):

* **bootstrap** - on seeds 1-3, a 200-resample subject-level bootstrap
  of ``_plugin_point`` (resample b draws from the RNG stream
  [seed, b]; each resample's arm-1 fit starts from the full-data fit).
  The bootstrap SE over the sandwich SE must lie in [0.85, 1.15].
* **spread** - over 100 independent trials (seeds 10_000 to 10_099),
  the mean sandwich SE over the SD of the plug-in values must lie in
  [0.8, 1.25].

A tighter bootstrap bound would test the bootstrap's own noise: with
200 resamples its SE is off by about 1/sqrt(2*199), 5%, so a correct
sandwich can land more than 5% away on some seeds.  The script prints
one table row per check and exits 1 when any check fails.  It is not
part of the test suite: on a 2-vCPU Xeon it takes about six minutes.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratabias.calibration import (EstimatorError, FitError,  # noqa: E402
                                    _plugin_point, estimate_plugin,
                                    fit_sequential_logistic)
from stratabias.datagen import observe  # noqa: E402
from stratabias.params import load_bundled  # noqa: E402

SCENARIOS = ("full_null_demo", "partial_null_gamma2")
N = 200_000
BOOT_SEEDS = (1, 2, 3)
N_BOOT = 200
BOOT_BOUNDS = (0.85, 1.15)
TRIALS = 100
TRIAL_SEED = 10_000
SPREAD_BOUNDS = (0.8, 1.25)


def _observed(name: str, seed: int):
    cfg = dataclasses.replace(load_bundled(name), n=N, seed=seed)
    return observe(cfg, keep_y_after_dropout=True)


def bootstrap_se(obs, seed: int) -> tuple[float, int]:
    """(SD of the resampled plug-in points, failed resamples)."""
    n = len(obs)
    start = fit_sequential_logistic(obs)
    values, failed = [], 0
    for b in range(N_BOOT):
        rng = np.random.default_rng([seed, b])
        try:
            values.append(_plugin_point(obs.subset(rng.integers(0, n, n)),
                                        start))
        except (FitError, EstimatorError):
            failed += 1
    return float(np.std(values, ddof=1)), failed


def main() -> int:
    ok = True

    def row(name, check, ratio, bounds, detail):
        nonlocal ok
        passed = bounds[0] <= ratio <= bounds[1]
        ok &= passed
        print(f"| {name} | {check} | {ratio:.3f} | "
              f"[{bounds[0]}, {bounds[1]}] | {detail} | "
              f"{'PASS' if passed else 'FAIL'} |", flush=True)

    print("| scenario | check | ratio | bounds | detail | verdict |")
    print("|---|---|---|---|---|---|")
    for name in SCENARIOS:
        for seed in BOOT_SEEDS:
            obs = _observed(name, seed)
            t0 = time.monotonic()
            est = estimate_plugin(obs)
            t_sand = time.monotonic() - t0
            t0 = time.monotonic()
            boot, failed = bootstrap_se(obs, seed)
            t_boot = time.monotonic() - t0
            row(name, f"bootstrap/sandwich, seed {seed}", boot / est.se,
                BOOT_BOUNDS,
                f"sandwich {est.se:.5f} ({t_sand:.2f} s), bootstrap "
                f"{boot:.5f} ({t_boot:.1f} s, {failed} failed)")
        t0 = time.monotonic()
        ests = [estimate_plugin(_observed(name, TRIAL_SEED + b))
                for b in range(TRIALS)]
        sd = float(np.std([e.value for e in ests], ddof=1))
        mean_se = float(np.mean([e.se for e in ests]))
        row(name, f"sandwich/SD over {TRIALS} trials", mean_se / sd,
            SPREAD_BOUNDS,
            f"mean SE {mean_se:.5f}, SD {sd:.5f} "
            f"({time.monotonic() - t0:.0f} s)")
    print("ALL PASS" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
