"""Two independent routes to the same number.

The treated-adherent stratum effect has a closed form: the
patient-level effect (0 in this full-null scenario) plus a ratio of
Gaussian expectations that Gauss-Hermite quadrature evaluates to near
machine precision in milliseconds.  The
same quantity can be estimated by brute force - generate both
potential outcomes for n subjects and average Y(1)-Y(0) over the
stratum members.  The two routes share no code beyond the parameter
object, so their agreement is a real check, and the Monte Carlo error
shrinks like 1/sqrt(n) while the quadrature answer never moves.

Run:  python3 demos/02_closed_form_vs_monte_carlo.py
"""

import dataclasses
import time

from stratabias import (S_TREATED, generate, load_bundled,
                        null_stratum_effect, oracle_effect)

cfg = load_bundled("full_null_demo")

t0 = time.perf_counter()
quad = null_stratum_effect(cfg.params)
dt = time.perf_counter() - t0
print(f"quadrature:  {quad:.15f}   ({1e3 * dt:.1f} ms)\n")

print(f"{'n':>9s} {'MC estimate':>12s} {'SE':>9s} {'z vs quad':>10s} "
      f"{'seconds':>8s}")
for n in (10_000, 100_000, 1_000_000):
    t0 = time.perf_counter()
    est = oracle_effect(
        generate(dataclasses.replace(cfg, n=n, seed=cfg.seed + n)),
        S_TREATED)
    dt = time.perf_counter() - t0
    z = (est.value - quad) / est.se
    print(f"{n:9d} {est.value:12.6f} {est.se:9.6f} {z:+10.2f} {dt:8.2f}")

print("\nEach row is an independent trial, so every z should be a "
      "plausible\nstandard-normal draw no matter how large n gets.")
