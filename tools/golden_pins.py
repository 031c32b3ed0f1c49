"""Reproduce the acceptance suite's golden pins by streamed Monte Carlo.

    python3 tools/golden_pins.py

``tests/test_acceptance.py`` pins the treated-adherent (``S_*+``)
stratum effect of two bundled scenarios as ``GOLDEN_FULL_NULL`` and
``GOLDEN_PARTIAL_NULL``, each a (mean, SE) pair from a Monte Carlo
oracle run at n = 10^7.  This script makes fresh runs of that oracle:
for each scenario and each seed in ``SEEDS`` it streams n = 10^7
subjects in id blocks on the CLI's default thread count (the CPUs the
process may run on), keeps only the exact sums of the stratum's cells
and takes their mean contrast.  It prints each run's z-score against
its pin,

    z = (run - pin) / sqrt(se_run^2 + se_pin^2),

and exits 1 when any |z| exceeds 3.5, the suite's Monte Carlo
agreement threshold.  The pins are read from the test module, never
restated or edited here.  It is not part of the test suite: on a
2-vCPU Xeon at two threads each run takes 4-5 s, all six about 28 s,
with a peak RSS of 94.5 MB (``ru_maxrss``), whatever the member count
(the partial null has 8.4 million).

Seeds 1, 2 and 3 gave |z| <= 1.75 on both pins.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from stratabias.params import load_bundled  # noqa: E402
from stratabias.strata import (S_TREATED, oracle_effect,  # noqa: E402
                               stratum_sums)

N = 10_000_000
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)  # as the CLI's --threads default
SEEDS = (1, 2, 3)
SIGMAS = 3.5
PINS = (("full_null_demo", "GOLDEN_FULL_NULL"),
        ("partial_null_gamma2", "GOLDEN_PARTIAL_NULL"))


def _pins() -> dict[str, tuple[float, float]]:
    """The (mean, SE) pins, read from the acceptance module itself."""
    path = ROOT / "tests" / "test_acceptance.py"
    spec = importlib.util.spec_from_file_location("test_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: getattr(module, pin) for name, pin in PINS}


def main() -> int:
    pins = _pins()
    worst = 0.0
    for name, pin_name in PINS:
        pin, pin_se = pins[name]
        for seed in SEEDS:
            cfg = dataclasses.replace(load_bundled(name), n=N, seed=seed)
            t0 = time.monotonic()
            est = oracle_effect(stratum_sums(cfg, (S_TREATED,), THREADS),
                                S_TREATED)
            z = (est.value - pin) / math.hypot(est.se, pin_se)
            worst = max(worst, abs(z))
            print(f"{name} seed {seed}: {est.value:.6f} +/- {est.se:.6f} "
                  f"({est.n_members} members) vs {pin_name} {pin:.6f} "
                  f"+/- {pin_se:.6f}: z = {z:+.2f} "
                  f"({time.monotonic() - t0:.1f} s)", flush=True)
    ok = worst <= SIGMAS
    print(f"largest |z| {worst:.2f} vs {SIGMAS}: "
          f"{'REPRODUCED' if ok else 'NOT REPRODUCED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
