"""The quad-sweep workload: the closed form over random outcome-null models.

Draws ``--points`` parameter sets from the box below with
``numpy.random.default_rng(seed)`` and calls
``stratabias.quadrature.null_stratum_effect`` on each, in one process.
The box was fixed before any point was evaluated and must not be
shrunk to hide points the closed form refuses.

Each point ends in one of three ways:

- a value, which must be finite;
- a typed ``QuadratureError`` (``RefinementError`` included), the
  closed form's documented refusal, counted as refused;
- a non-finite value or any other exception, counted as failed.

Run it as a child process with ``stratabias`` importable::

    PYTHONPATH=src python3 perfbench/sweep.py --seed 1 --points 1000 --out DIR

It writes ``DIR/sweep.json`` and prints one summary line.  ``wall_s``
there runs from the first ``null_stratum_effect`` call to the return of
the last.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

# The parameter box, one uniform range per coefficient.  alpha2 and beta2
# are 0 (the closed form's domain); gamma2 is never 0, and beta3 and
# gamma3 take both signs.
BOX = {
    "K": (1, 5),              # integer, both ends included
    "mu_x": (-1.0, 1.0),
    "sigma_x": (0.5, 2.0),
    "alpha0": (-1.0, 1.0),
    "alpha1": (-1.0, 1.0),
    "beta0": (-1.0, 1.0),
    "beta1": (-1.0, 1.0),
    "beta3": (-1.0, 1.0),
    "sigma_eta": (0.25, 2.0),
    "gamma0": (-2.0, 3.0),
    "gamma1": (-1.0, 1.0),
    "abs_gamma2": (0.25, 2.0),  # sign drawn separately
    "gamma3": (-2.0, 2.0),
}


def draw_params(seed: int, points: int) -> list:
    """The sweep's parameter sets; the same seed gives the same list."""
    from stratabias.params import ModelParams

    rng = np.random.default_rng(seed)

    def u(key, size=None):
        lo, hi = BOX[key]
        v = rng.uniform(lo, hi, size)
        return tuple(map(float, v)) if size is not None else float(v)

    out = []
    for _ in range(points):
        K = int(rng.integers(BOX["K"][0], BOX["K"][1] + 1))
        out.append(ModelParams(
            mu_x=u("mu_x"), sigma_x=u("sigma_x"),
            alpha0=u("alpha0", K), alpha1=u("alpha1", K),
            alpha2=(0.0,) * K,
            beta0=u("beta0"), beta1=u("beta1"), beta2=0.0,
            beta3=u("beta3", K),
            sigma_eta=u("sigma_eta"), sigma_eps=1.0,
            gamma0=u("gamma0"), gamma1=u("gamma1"),
            gamma2=float(rng.choice((-1.0, 1.0))) * u("abs_gamma2"),
            gamma3=u("gamma3", K), K=K))
    return out


def run(seed: int, points: int, out: Path) -> dict:
    """Evaluate every drawn point and write ``out/sweep.json``."""
    from stratabias import quadrature

    params = draw_params(seed, points)
    digest = hashlib.sha256()
    refused = Counter()
    failed = []
    t0 = time.perf_counter()
    for i, p in enumerate(params):
        # looked up on the module each call, so a traced run sees it
        try:
            value = quadrature.null_stratum_effect(p)
        except quadrature.QuadratureError as exc:
            refused[type(exc).__name__] += 1
            digest.update(f"{i} {type(exc).__name__}\n".encode())
            continue
        except Exception as exc:  # any other error is a failed point
            failed.append(f"point {i}: {type(exc).__name__}: {exc}")
            continue
        if not math.isfinite(value):
            failed.append(f"point {i}: non-finite value {value!r}")
        digest.update(f"{i} {value!r}\n".encode())
    wall = time.perf_counter() - t0

    result = {
        "seed": seed, "points": points, "wall_s": wall,
        "refused": sum(refused.values()), "refused_by_type": dict(refused),
        "failed": len(failed), "failures": failed[:10],
        "values_sha256": digest.hexdigest(),
    }
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.json", "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--points", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    r = run(args.seed, args.points, args.out)
    print(f"quad-sweep seed {r['seed']}: {r['points']} points, "
          f"{r['refused']} refused, {r['failed']} failed, "
          f"{r['wall_s']:.3f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
