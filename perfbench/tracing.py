"""Per-layer tracing by wrapping stratabias functions from the outside.

Nothing under ``src/`` is edited.  Each traced function is replaced, for
the length of one run, by a wrapper that records a span (name, start,
end, parent, thread) and adds to the layer's counters.  Spans stay in
memory and become metrics when the run ends.

A name must be patched where it is looked up, not only where it is
defined: ``cli`` binds most of the library by ``from``-import,
``datagen`` holds its own ``uniform_matrix``, and ``split_calibrate``
reads ``ESTIMATORS[...]``.  Set-up fails loudly when a traced function
is gone or a module no longer binds the function it is expected to bind,
and ``check_called`` fails when a function that should run on a
workload never did; a rename must not quietly report 0 s.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


class TraceError(RuntimeError):
    """The trace no longer matches the code it wraps."""


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    raised: bool


def _count_draws(add, args, kwargs, result):
    draws = int(result.shape[0]) * int(result.shape[1])
    add("rng.uniform_matrix.draws", draws)
    add("rng.uniform_matrix.bytes_out", 8 * draws)  # computed, not measured


def _count_subjects(add, args, kwargs, result):
    add("datagen.generate_block.subjects", len(result))


def _count_members(add, args, kwargs, result):
    add("strata.oracle_effect.members", result.n_members)


def _count_nodes(add, args, kwargs, result):
    p, nodes_x, nodes_xi = args
    add("quadrature._evaluate.nodes", nodes_x * nodes_xi * p.K)


def _count_iterations(add, args, kwargs, result):
    add("calibration._irls.iterations", result[3])


# (module.function that defines the span, modules that look it up, counter)
PATCHES = (
    ("params.load_scenario", ("cli",), None),
    ("rng.uniform_matrix", ("datagen",), _count_draws),
    ("datagen.generate_block", ("datagen",), _count_subjects),
    ("datagen.observe", ("cli",), None),
    ("strata.oracle_effect", ("cli",), _count_members),
    ("quadrature.null_stratum_effect", ("cli", "quadrature"), None),
    ("quadrature._evaluate", ("quadrature",), _count_nodes),
    ("calibration.split_calibrate", ("cli",), None),
    ("calibration.fit_sequential_logistic", ("cli", "calibration"), None),
    ("calibration._plugin_point", ("calibration",), None),
    ("calibration._irls", ("calibration",), _count_iterations),
    ("calibration._loglik", ("calibration",), None),
    ("calibration._marginal_pi", ("calibration",), None),
)
# every entry of calibration.ESTIMATORS is one split round
SPLIT_ROUND = "calibration.split_round"
CLI_MAIN = "cli.main"

# The per-layer metrics, in BENCHMARK.json order.
METRICS = (
    ("cli.main.self_s", "s"),
    ("params.load_scenario.busy_s", "s"),
    ("rng.uniform_matrix.busy_s", "s"),
    ("rng.uniform_matrix.calls", "count"),
    ("rng.uniform_matrix.draws", "count"),
    ("rng.uniform_matrix.bytes_out", "bytes"),
    ("datagen.generate_block.self_s", "s"),
    ("datagen.generate_block.subjects", "count"),
    ("datagen.observe.busy_s", "s"),
    ("strata.oracle_effect.busy_s", "s"),
    ("strata.oracle_effect.members", "count"),
    ("quadrature.null_stratum_effect.busy_s", "s"),
    ("quadrature.null_stratum_effect.failed", "count"),
    ("quadrature._evaluate.calls", "count"),
    ("quadrature._evaluate.nodes", "count"),
    ("calibration.split_calibrate.busy_s", "s"),
    ("calibration.split_round.busy_s", "s"),
    ("calibration.split_round.failed", "count"),
    ("calibration.parallel_eff", "ratio"),
    ("calibration._plugin_point.self_s", "s"),
    ("calibration._irls.busy_s", "s"),
    ("calibration._irls.calls", "count"),
    ("calibration._irls.iterations", "count"),
    ("calibration._loglik.calls", "count"),
    ("calibration._marginal_pi.busy_s", "s"),
    ("calibration.fit_sequential_logistic.busy_s", "s"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """Collects spans and counters from wrapped functions on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span called ``name`` on every call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs under the main thread's
            # innermost span, which is waiting for the pool
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            raised = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, parent,
                                       threading.get_ident(), raised))
            if count is not None:
                count(self.add, args, kwargs, result)
            return result
        return traced


@contextmanager
def installed(recorder: Recorder):
    """Patch every traced name where it is looked up; restore on exit."""
    undo = []
    try:
        for name, lookups, count in PATCHES:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"stratabias.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(f"stratabias.{name} no longer exists; "
                                 "update perfbench/tracing.py")
            wrapped = recorder.wrap(name, original, count)
            for lookup_name in lookups:
                lookup = importlib.import_module(f"stratabias.{lookup_name}")
                if getattr(lookup, attr, None) is not original:
                    raise TraceError(
                        f"stratabias.{lookup_name}.{attr} is no longer "
                        f"stratabias.{name}; update perfbench/tracing.py")
                setattr(lookup, attr, wrapped)
                undo.append((lookup, attr, original))
        calibration = importlib.import_module("stratabias.calibration")
        estimators = getattr(calibration, "ESTIMATORS", None)
        if not isinstance(estimators, dict) or not estimators:
            raise TraceError("stratabias.calibration.ESTIMATORS is gone; "
                             "update perfbench/tracing.py")
        for key, fn in list(estimators.items()):
            estimators[key] = recorder.wrap(SPLIT_ROUND, fn)
            undo.append((estimators, key, fn))
        yield recorder
    finally:
        for target, key, original in reversed(undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)


def check_called(recorder: Recorder, expected) -> None:
    """Fail when a function expected on this workload never ran."""
    seen = {s.name for s in recorder.spans}
    missing = [name for name in expected if name not in seen]
    if missing:
        raise TraceError("traced functions never called on this workload: "
                         + ", ".join(missing))


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def metrics(recorder: Recorder, threads: int, overhead_s: float) -> dict:
    """Every per-layer metric; a function that did not run reports 0."""
    spans_by_name = defaultdict(list)
    children = defaultdict(list)
    for s in recorder.spans:
        spans_by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))

    def busy(name):
        return sum(s.end - s.start for s in spans_by_name[name])

    def self_time(name):
        return sum(s.end - s.start - _covered(children[s.id], s.start, s.end)
                   for s in spans_by_name[name])

    values = dict(recorder.counts)
    for name, _ in METRICS:
        layer, _, kind = name.rpartition(".")
        if kind == "busy_s":
            values[name] = busy(layer)
        elif kind == "self_s":
            values[name] = self_time(layer)
        elif kind == "calls":
            values[name] = len(spans_by_name[layer])
        elif kind == "failed":
            values[name] = sum(s.raised for s in spans_by_name[layer])
    split_busy = busy("calibration.split_calibrate")
    values["calibration.parallel_eff"] = (
        busy(SPLIT_ROUND) / (split_busy * threads) if split_busy else 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in METRICS}
