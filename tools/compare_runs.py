"""Run one fixed list of CLI invocations in two checkouts and report
every difference between them.

    python3 tools/compare_runs.py BASE NEW

BASE and NEW are checkout roots, each holding ``src/stratabias``.  Each
invocation runs ``python -m stratabias.cli`` with that checkout's
``src`` on ``PYTHONPATH`` and a fresh, not yet existing ``--out``
directory.  Per invocation it compares:

- the exit code;
- stdout and stderr, with the checkout root, the output directory and
  the work directory replaced by placeholders;
- whether the output directory exists afterwards;
- the SHA-256 of every file in it, with ``manifest.json`` hashed
  without its ``timestamp`` and ``duration_seconds``.

The list covers every bundled scenario through ``simulate`` and through
``true-effect`` with each ``--method``, ``calibrate`` with both
estimators and once more with censored outcomes (``--no-keep-y``),
four runs that fail after their scenario loads, and ``paper-demo``
with and without ``--seed``.  Outputs are deleted once hashed.  It
takes a few minutes on two cores and is not part of the test suite.  Exit status: 0 when every run matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("quadrature", "mc", "both")
VOLATILE = ("timestamp", "duration_seconds")  # manifest keys left out


def invocations(scenarios: list[str], work: Path) -> list[tuple[str, list]]:
    """(run id, arguments) pairs.  ``{name}`` in an argument is a bundled
    scenario of the checkout being run."""
    beta2 = work / "beta2_0.3.json"  # outside the closed form's domain
    runs = []
    for name in scenarios:
        runs.append((f"simulate {name}", ["simulate", f"{{{name}}}"]))
        runs += [(f"true-effect {name} --method {m}",
                  ["true-effect", f"{{{name}}}", "--method", m])
                 for m in METHODS]
    runs += [
        ("calibrate plugin", ["calibrate", "{partial_null_gamma2}",
                              "--estimator", "plugin", "--threads", "2"]),
        ("calibrate naive", ["calibrate", "{full_null_demo}",
                             "--estimator", "naive", "--threads", "2"]),
        ("calibrate plugin --no-keep-y",
         ["calibrate", "{full_null_demo}", "--estimator", "plugin",
          "--no-keep-y", "--threads", "2"]),
        ("fails: true-effect --nodes 1",
         ["true-effect", "{full_null_demo}", "--nodes", "1"]),
        ("fails: true-effect beta2=0.3 --method quadrature",
         ["true-effect", str(beta2), "--method", "quadrature"]),
        ("fails: calibrate --R 1",
         ["calibrate", "{full_null_demo}", "--R", "1", "--threads", "2"]),
        ("fails: calibrate sigma_eta_zero",
         ["calibrate", "{sigma_eta_zero}", "--threads", "2"]),
        ("paper-demo", ["paper-demo", "--threads", "2"]),
        ("paper-demo --seed 11",
         ["paper-demo", "--threads", "2", "--seed", "11"]),
    ]
    return runs


def _scenario_dir(root: Path) -> Path:
    return root / "src" / "stratabias" / "scenarios"


def _digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        for key in VOLATILE:
            manifest.pop(key, None)
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_one(root: Path, args: list, work: Path, out: Path) -> dict:
    """Run one invocation in checkout ``root``; its comparable record."""
    bundled = {p.stem: str(p) for p in _scenario_dir(root).glob("*.json")}
    argv = [a.format_map(bundled) for a in args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    got = subprocess.run(
        [sys.executable, "-m", "stratabias.cli", *argv, "--out", str(out)],
        cwd=work, env=env, capture_output=True, text=True)

    def normal(text: str) -> str:
        for path, mark in ((out, "<OUT>"), (work, "<WORK>"),
                           (root, "<ROOT>")):
            text = text.replace(str(path), mark)
        return text

    record = {"exit code": got.returncode, "stdout": normal(got.stdout),
              "stderr": normal(got.stderr), "out exists": out.exists()}
    if out.exists():
        record["outputs"] = {p.name: _digest(p) for p in sorted(out.iterdir())}
        shutil.rmtree(out)
    return record


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
        runs = invocations(names, work)
        n_diff = 0
        for i, (run_id, run_args) in enumerate(runs):
            records = [run_one(root, run_args, work, work / f"{side}{i}")
                       for side, root in (("base", base), ("new", new))]
            diff = differences(*records)
            n_diff += bool(diff)
            codes = "/".join(str(r["exit code"]) for r in records)
            print(f"{'DIFF' if diff else 'same'}  {run_id} (exit {codes})")
            for line in diff:
                print(f"      {line}")
            sys.stdout.flush()
    print(f"{len(runs) - n_diff} of {len(runs)} runs identical")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
