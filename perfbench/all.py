"""Run every benchmark workload once and print one table.

    python3 perfbench/all.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as ``perfbench/run.py`` in a child process, whose
summary is passed through.  With ``--trace 0`` the table gives
``wall_s``, ``setup_s``, ``peak_rss_mb`` and ``fail_frac`` (failed plus
refused operations over attempted ones, ``1 - ok_frac``) per workload.
Exits 1 when a run fails or an output check does not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rows = []
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))

    if args.trace == 0:
        print(f"\n{'workload':12s} {'wall_s':>10s} {'setup_s':>10s} "
              f"{'peak_rss_mb':>12s} {'fail_frac':>10s}  correct")
        for name, r in rows:
            m = {k: v["value"] for k, v in r["metrics"].items()}
            print(f"{name:12s} {m['wall_s']:8.3f} s {m['setup_s']:8.3f} s "
                  f"{m['peak_rss_mb']:9.1f} MB {1 - m['ok_frac']:10.4f}  "
                  f"{r['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
