"""Benchmark for stratabias: one workload per invocation.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it repeats, for about ``--seconds`` seconds, one
``python -m stratabias.cli --version`` process (``setup_s``) followed by
the workload as a child process, and ends with at least one more
``--version`` process, enough to make SETUP_MIN in all.  Timing set-up
between repetitions samples it over the same stretch of time as the
workload.  It reports the medians of ``setup_s`` and of the
repetitions' ``wall_s`` (launch to exit; first to last call for the
sweep), the largest ``peak_rss_mb`` (``ru_maxrss`` from ``os.wait4``),
and ``ok_frac``, the share of attempted operations that produced a
checked value.

With ``--trace 1`` it runs the workload three times in this process
through ``cli.main(argv)`` (or the sweep's ``main``): plain to warm up,
with every traced function wrapped, and plain again.  It reports the
per-layer metrics of ``tracing.METRICS``; ``trace.overhead_s`` is the
traced wall minus the second plain wall.

Every run checks the outputs, writes its full record (machine, code,
seeds, each repetition, output digests) to
``.perfbench_work/results/``, prints a human summary, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  It exits non-zero, printing no result, when the
package source is missing or the trace no longer fits the code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # keep out of tuning; confirm claims on it
SETUP_MIN = 5
CHILD_TIMEOUT_S = 150
ISOLATION = ("none: no CPU pinning, page-cache dropping or cgroup control; "
             "the benchmark runs unprivileged and changes no system setting")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    return env


def launch(args: list[str], out: Path) -> tuple[float, float, int]:
    """Run ``python <args>`` in ROOT; (wall s, peak RSS MB, exit code)."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "wb") as so, \
            open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=_env(), stdout=so, stderr=se)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository around ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return "unavailable (no git)"
    if proc.returncode != 0:
        return "unavailable (not a git checkout)"
    return proc.stdout.strip()


def _source_sha256() -> str:
    """One digest of every file under src/, so results name the code."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def machine(threads: int) -> dict:
    return {
        "nproc": nproc(), "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(), "caches": _caches(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE")
                           * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": threads, "isolation": ISOLATION,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
    }


def measure_setup(problems: list[str]) -> float:
    """Wall seconds of one ``python -m stratabias.cli --version``."""
    out = WORK / "setup"
    wall, _, code = launch(["-m", "stratabias.cli", "--version"], out)
    text = (out / "stdout.txt").read_text()
    if code != 0 or not text.startswith("stratabias "):
        problems.append(f"--version: exit {code}, {text!r}")
    return wall


def timed(workload, seed: int, seconds: float, threads: int,
          problems: list[str]):
    """Repeat set-up and the workload until the next would overrun.

    Returns the set-up walls, the per-repetition records and the
    checked outcomes.
    """
    setups, reps, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups.append(measure_setup(problems))
        out = WORK / "out" / workload.name
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, code = launch(workload.args(seed, out, threads), out)
        outcome = workload.check(out, code)
        shutil.rmtree(out, ignore_errors=True)
        outcomes.append(outcome)
        reps.append({"wall_s": outcome.wall_s or wall,
                     "process_wall_s": wall, "peak_rss_mb": rss,
                     "exit_code": code,
                     "cycle_s": time.perf_counter() - t0})
        elapsed = time.perf_counter() - start
        cycle = statistics.median(r["cycle_s"] for r in reps)
        if elapsed + cycle > seconds:
            setups.append(measure_setup(problems))
            while len(setups) < SETUP_MIN:
                setups.append(measure_setup(problems))
            return setups, reps, outcomes


def in_process(workload, seed: int, threads: int, out: Path,
               recorder=None) -> tuple[float, Outcome]:
    """Run the workload in this process; (wall s, checked outcome)."""
    from stratabias import cli
    import sweep

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = workload.args(seed, out, threads)
    if args[:2] == ["-m", "stratabias.cli"]:
        entry, argv = cli.main, args[2:]
        if recorder is not None:
            entry = recorder.wrap(tracing.CLI_MAIN, entry)
    else:
        entry, argv = sweep.main, args[1:]
    with open(out / "stdout.txt", "w") as fh, \
            contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        code = entry(argv)
        wall = time.perf_counter() - t0
    outcome = workload.check(out, code)
    shutil.rmtree(out, ignore_errors=True)
    return outcome.wall_s or wall, outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stratabias" / "cli.py").is_file():
        print(f"error: no stratabias package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    threads = nproc()
    record = {"workload": workload.name, "why": workload.why,
              "seed": args.seed, "default_seed": DEFAULT_SEED,
              "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(threads)}
    problems: list[str] = []

    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        work = WORK / "out" / workload.name
        # the first plain run warms allocator and lazy imports; the
        # overhead compares the traced run with the second plain run
        warm_wall, warm = in_process(workload, args.seed, threads, work)
        recorder = tracing.Recorder()
        try:
            with tracing.installed(recorder):
                traced_wall, traced = in_process(
                    workload, args.seed, threads, work, recorder)
            tracing.check_called(recorder, workload.spans)
        except tracing.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        plain_wall, plain = in_process(workload, args.seed, threads, work)
        outcomes = [warm, traced, plain]
        metrics = tracing.metrics(recorder, threads, traced_wall - plain_wall)
        record.update(warm_wall_s=warm_wall, traced_wall_s=traced_wall,
                      plain_wall_s=plain_wall)
    else:
        setups, reps, outcomes = timed(workload, args.seed, args.seconds,
                                       threads, problems)
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reps),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # the peak over repetitions; a median would pick up how many
            # transparent huge pages each repetition happened to get
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reps),
                            "unit": "MB"},
        }
        record.update(setup_walls_s=setups, reps=reps)

    for o in outcomes:
        problems += o.problems
    digests = {json.dumps(o.digests, sort_keys=True) for o in outcomes
               if not o.problems}
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions: {digests}")
    attempted = sum(o.attempted for o in outcomes)
    ok = sum(o.ok for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    refused = sum(o.refused for o in outcomes)
    if not args.trace:
        metrics["ok_frac"] = {"value": ok / attempted, "unit": "fraction"}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record.update(result, refused=refused, problems=problems,
                  outcomes=[o.__dict__ for o in outcomes])

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"workload {workload.name}, seed {args.seed}, "
          f"{len(outcomes)} run(s), threads {threads}, "
          f"commit {record['machine']['git_commit'][:12]}")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':44s} {1 - ok / attempted:.6g} "
          f"({failed} failed + {refused} refused of {attempted} operations)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {results / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
