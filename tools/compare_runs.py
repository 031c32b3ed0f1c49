"""Run one fixed list of CLI invocations and the demos in two
checkouts and report every difference between them.

    python3 tools/compare_runs.py BASE NEW

BASE and NEW are checkout roots, each holding ``src/stratabias``.  Each
invocation runs ``python -m stratabias.cli`` with that checkout's
``src`` on ``PYTHONPATH`` and a fresh, not yet existing ``--out``
directory; each demo run runs that checkout's own ``demos/<name>.py``
the same way, without ``--out``.  Every run has the work directory as
its current directory.  Per run it compares:

- the exit code;
- stdout and stderr, with the checkout root, the output directory and
  the work directory replaced by placeholders;
- whether the output directory exists afterwards;
- the SHA-256 of every file in it, with ``manifest.json`` hashed
  without its ``timestamp`` and ``duration_seconds``;
- for each CSV whose SHA-256 differs, the column and row of the largest
  absolute and of the largest relative difference between numeric
  cells, so that a move in the last digits can be told from a real
  change.

Each run's line also reports both checkouts' peak RSS (``ru_maxrss``
from ``os.wait4``) and wall time, from start to exit, so that a memory
or startup move shows without the benchmark; both are reported, not
compared.  A child that ``subprocess`` starts by
``vfork`` begins with this process's peak RSS as its own ``ru_maxrss``,
so this process reads no output whole: reading one whole
``subjects.csv`` raised every later child's reading to about 75 MB.

The list covers every bundled scenario through ``simulate`` and through
``true-effect`` with each ``--method``, ``true-effect --method
quadrature`` off the outcome null (``beta2 = 0.3``), ``calibrate`` with
both estimators, the plug-in at ``--threads 1`` and ``2`` (the split
rounds on one thread and on two), ``calibrate full_null_demo --seed 5``
(the plug-in at the default R, whose offset misses the truth by more
than 5 SE: its ``MISMATCH`` line shows whether that gap moved),
``calibrate sigma_eta_zero`` with the naive estimator (which fits no
visit model), three runs that fail after their scenario loads, one that
``calibrate`` rejects as a usage error (``--no-keep-y``: it always keeps
outcomes), ``true-effect full_null_demo --method mc`` at ``--threads 1``
and ``2`` (the streamed oracle on one thread and on two; a checkout
whose ``true-effect`` has no ``--threads`` exits 2 on both),
``paper-demo`` with and without ``--seed``, ``true-effect --method
quadrature`` and ``paper-demo`` at ``--threads 0`` (a checkout that
checks the thread count only where threads start exits 0 on the first,
having written the closed form, and 2 on the second only after the
closed form ran), and every script in either checkout's ``demos/``
(one that a checkout lacks exits 2 there).

Outputs are deleted once compared. It takes a few minutes on two cores
and is not part of the test suite. Exit status: 0 when every run
matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METHODS = ("quadrature", "mc", "both")
VOLATILE = ("timestamp", "duration_seconds")  # manifest keys left out


def invocations(scenarios: list[str], demos: list[str],
                work: Path) -> list[tuple[str, list]]:
    """(run id, arguments) pairs.  ``{name}`` in an argument is a bundled
    scenario of the checkout being run; a demo's one argument is its
    path in the checkout."""
    beta2 = work / "beta2_0.3.json"  # off the outcome null
    runs = []
    for name in scenarios:
        runs.append((f"simulate {name}", ["simulate", f"{{{name}}}"]))
        runs += [(f"true-effect {name} --method {m}",
                  ["true-effect", f"{{{name}}}", "--method", m])
                 for m in METHODS]
    runs += [
        ("calibrate plugin", ["calibrate", "{partial_null_gamma2}",
                              "--estimator", "plugin", "--threads", "2"]),
        ("calibrate plugin --threads 1",
         ["calibrate", "{partial_null_gamma2}", "--estimator", "plugin",
          "--threads", "1"]),
        ("calibrate naive", ["calibrate", "{full_null_demo}",
                             "--estimator", "naive", "--threads", "2"]),
        ("calibrate full_null_demo --seed 5",
         ["calibrate", "{full_null_demo}", "--seed", "5", "--threads", "2"]),
        ("fails: calibrate --no-keep-y",
         ["calibrate", "{full_null_demo}", "--estimator", "plugin",
          "--no-keep-y", "--threads", "2"]),
        ("fails: true-effect --nodes 1",
         ["true-effect", "{full_null_demo}", "--nodes", "1"]),
        ("true-effect beta2=0.3 --method quadrature",
         ["true-effect", str(beta2), "--method", "quadrature"]),
        ("fails: calibrate --R 1",
         ["calibrate", "{full_null_demo}", "--R", "1", "--threads", "2"]),
        ("fails: calibrate sigma_eta_zero",
         ["calibrate", "{sigma_eta_zero}", "--threads", "2"]),
        ("calibrate sigma_eta_zero --estimator naive",
         ["calibrate", "{sigma_eta_zero}", "--estimator", "naive",
          "--threads", "2"]),
        ("true-effect full_null_demo --method mc --threads 1",
         ["true-effect", "{full_null_demo}", "--method", "mc",
          "--threads", "1"]),
        ("true-effect full_null_demo --method mc --threads 2",
         ["true-effect", "{full_null_demo}", "--method", "mc",
          "--threads", "2"]),
        ("paper-demo", ["paper-demo", "--threads", "2"]),
        ("paper-demo --seed 11",
         ["paper-demo", "--threads", "2", "--seed", "11"]),
        ("fails: true-effect --method quadrature --threads 0",
         ["true-effect", "{full_null_demo}", "--method", "quadrature",
          "--threads", "0"]),
        ("fails: paper-demo --threads 0", ["paper-demo", "--threads", "0"]),
    ]
    runs += [(f"demo {name}", [f"demos/{name}"]) for name in demos]
    return runs


def _scenario_dir(root: Path) -> Path:
    return root / "src" / "stratabias" / "scenarios"


def _digest(path: Path) -> str:
    """SHA-256 of an output file, read in blocks to keep this process's
    peak RSS below its children's (see the module docstring)."""
    h = hashlib.sha256()
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        for key in VOLATILE:
            manifest.pop(key, None)
        h.update(json.dumps(manifest, sort_keys=True).encode())
        return h.hexdigest()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_one(root: Path, args: list, work: Path, out: Path) -> dict:
    """Run one invocation in checkout ``root``; its comparable record."""
    bundled = {p.stem: str(p) for p in _scenario_dir(root).glob("*.json")}
    argv = [a.format_map(bundled) for a in args]
    if argv[0].startswith("demos/"):
        command = [str(root / argv[0])]
    else:
        command = ["-m", "stratabias.cli", *argv, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryFile("w+") as so, \
            tempfile.TemporaryFile("w+") as se:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *command], cwd=work,
                                env=env, stdout=so, stderr=se)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        so.seek(0)
        se.seek(0)
        stdout, stderr = so.read(), se.read()

    def normal(text: str) -> str:
        for path, mark in ((out, "<OUT>"), (work, "<WORK>"),
                           (root, "<ROOT>")):
            text = text.replace(str(path), mark)
        return text

    record = {"exit code": proc.returncode, "stdout": normal(stdout),
              "stderr": normal(stderr), "out exists": out.exists(),
              "out": out, "peak RSS MB": usage.ru_maxrss / 1024,
              "wall s": wall}
    if out.exists():
        record["outputs"] = {p.name: _digest(p) for p in sorted(out.iterdir())}
    return record


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_moves(path_a: Path, path_b: Path) -> str:
    """Where two CSVs with the same header differ most: the column and
    (1-based data) row of the largest absolute and of the largest relative
    difference between cells that both parse as numbers."""
    worst = {"abs": (0.0, None), "rel": (0.0, None)}
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        rows_a, rows_b = csv.reader(fa), csv.reader(fb)
        header = next(rows_a, None)
        if header != next(rows_b, None):
            return "headers differ"
        pairs = itertools.zip_longest(rows_a, rows_b)
        for row, (ra, rb) in enumerate(pairs, start=1):
            if ra is None or rb is None:
                return "row counts differ"
            for col, ca, cb in zip(header, ra, rb):
                va, vb = _number(ca), _number(cb)
                if ca == cb or va is None or vb is None:
                    continue
                gap = abs(va - vb)
                for kind, size in (("abs", gap),
                                   ("rel", gap / max(abs(va), abs(vb)))):
                    if not size <= worst[kind][0]:  # NaN counts as largest
                        worst[kind] = (size, f"{col} row {row}")
    moves = [f"largest {kind} diff {size:.3g} at {where}"
             for kind, (size, where) in worst.items() if where is not None]
    return ", ".join(moves) or "no numeric cell differs"


def differences(a: dict, b: dict) -> list[str]:
    lines = []
    for key in ("exit code", "out exists"):
        if a[key] != b[key]:
            lines.append(f"{key}: {a[key]} != {b[key]}")
    for key in ("stdout", "stderr"):
        if a[key] != b[key]:
            diff = difflib.unified_diff(a[key].splitlines(),
                                        b[key].splitlines(), "base", "new",
                                        lineterm="", n=0)
            lines.append(f"{key}:\n    " + "\n    ".join(list(diff)[:20]))
    outs_a, outs_b = a.get("outputs", {}), b.get("outputs", {})
    for name in sorted(set(outs_a) | set(outs_b)):
        if outs_a.get(name) != outs_b.get(name):
            lines.append(f"{name}: sha256 {outs_a.get(name)} != "
                         f"{outs_b.get(name)}")
            if name.endswith(".csv") and name in outs_a and name in outs_b:
                lines.append(f"{name}: "
                             + csv_moves(a["out"] / name, b["out"] / name))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="checkout compared against")
    parser.add_argument("new", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    base, new = args.base.resolve(), args.new.resolve()

    with tempfile.TemporaryDirectory(prefix="compare_runs_") as tmp:
        work = Path(tmp)
        doc = json.loads((_scenario_dir(new) / "full_null_demo.json")
                         .read_text())
        (work / "beta2_0.3.json").write_text(json.dumps({**doc, "beta2": 0.3}))
        names = sorted(p.stem for p in _scenario_dir(new).glob("*.json"))
        demos = sorted({p.name for root in (base, new)
                        for p in (root / "demos").glob("*.py")})
        runs = invocations(names, demos, work)
        n_diff = 0
        for i, (run_id, run_args) in enumerate(runs):
            records = [run_one(root, run_args, work, work / f"{side}{i}")
                       for side, root in (("base", base), ("new", new))]
            diff = differences(*records)
            for record in records:
                if record["out exists"]:
                    shutil.rmtree(record["out"])
            n_diff += bool(diff)
            codes = "/".join(str(r["exit code"]) for r in records)
            peaks = "/".join(f"{r['peak RSS MB']:.1f}" for r in records)
            walls = "/".join(f"{r['wall s']:.2f}" for r in records)
            print(f"{'DIFF' if diff else 'same'}  {run_id} (exit {codes}, "
                  f"peak RSS {peaks} MB, wall {walls} s)")
            for line in diff:
                print(f"      {line}")
            sys.stdout.flush()
    print(f"{len(runs) - n_diff} of {len(runs)} runs identical")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
