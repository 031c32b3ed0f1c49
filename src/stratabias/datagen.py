"""Potential-outcome trial data under the linear/logistic generative model.

For each subject the full counterfactual table is generated: baseline
covariate X, assigned arm T, and under *both* arms t in {0, 1} the
intermediate outcomes, final outcome, and sequential adherence:

    X ~ Normal(mu_x, sigma_x^2)
    Z_k(t) = alpha0_k + alpha1_k * X + alpha2_k * t + eta_k(t)
    Y(t)   = beta0 + beta1 * X + beta2 * t + sum_k beta3_k * Z_k(t) + eps(t)

    Pr(A_k(t) = 1 | A_{k-1}(t) = 1, X, Z_k(t))
           = logistic(gamma0 + gamma2 * t + gamma1 * X + gamma3_k * Z_k(t))

with A_0(t) = 1 by convention, eta and eps independent normals, and
overall adherence A(t) = prod_k A_k(t).  Non-adherence is absorbing:
once a subject drops at visit k it stays dropped for all later visits.

Every subject consumes a fixed layout of 4 + 4K uniform draws from the
counter-based stream (see :mod:`stratabias.rng`):

    draw 0              X
    draw 1              arm assignment T
    draws 2 .. 2+2K-1   eta, ordered (t=0, k=1..K) then (t=1, k=1..K)
    draws 2+2K, 3+2K    eps(0), eps(1)
    draws 4+2K ..       adherence uniforms, same (t, k) ordering

Normals come from the uniforms by inverse CDF, and a visit adheres when
its uniform falls below the logistic probability, so raising gamma0 with
the same seed can only turn non-adherers into adherers, never the
reverse.  The fixed layout makes each record a pure function of
(seed, id) - the block size and parallelism cannot change the data.

``generate_block`` makes one block in one pass.  Each block's draws are
made in four stages (x and T, eta, eps and the adherence uniforms), each
freed before the next, and the noises are not kept: ``SubjectData``
stores only what the oracles, estimators and writers read (x, t, z, y
and the adherence path), 87 B per subject at K = 3.

``thread_map`` is the one parallel loop, one item in flight per thread:
``generate_blocks``, the one block map, maps on it over the blocks of
``_CHUNK`` (a scenario's id blocks or a table's row slices), and
``calibration`` over its split rounds.  ``generate`` and ``observe`` of
a scenario are the block map on one thread, each block copied into its
id rows of one table, which the first block sizes, and dropped;
``observe`` projects each block first, so it never holds the whole
trial's potential outcomes.  The Monte Carlo oracle and the
selection-bias split reduce each block of either source to exact
integer sums, so a scenario's memory grows with the threads, not with n.
"""

from __future__ import annotations

import csv
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .params import ModelParams, ScenarioConfig
from .rng import uniform_matrix

# Subjects per Philox pass and per streamed block.  2^14 was not faster
# beyond run-to-run spread: in 10 alternating perfbench pairs each on
# 2 vCPU, its true-effect median was 2.7% lower (lower in 8 of 10 pairs,
# inside either side's quartile spread) and calibrate was slower in 7.
_CHUNK = 1 << 15

# Rows per formatted block in write_table: bounds the formatted strings
# held in memory at once, whatever the table's length.
_TABLE_BLOCK = 1 << 14


class SubjectData:
    """Columnar container of generated subjects, one array per column.

    Six stored columns; row i of every array is subject ``ids[i]``, and
    the trailing axes index the arm t in {0, 1} and the visit k:

        ids (n,), x (n,), t (n,), z (n, 2, K), y (n, 2), a_seq (n, 2, K)

    Derived, not stored: ``a``, overall adherence (the last visit of
    ``a_seq``).
    """

    def __init__(self, ids, x, t, z, y, a_seq):
        self.ids = ids
        self.x = x
        self.t = t
        self.z = z
        self.y = y
        self.a_seq = a_seq

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def a(self) -> np.ndarray:
        """Overall adherence A(t) per arm, a view of ``a_seq[:, :, -1]``."""
        return self.a_seq[:, :, -1]


class ObservedData:
    """Columnar observed view: one arm per subject, NaN marks missing."""

    def __init__(self, ids, x, t, z, a, y):
        self.ids = ids
        self.x = x
        self.t = t
        self.z = z  # (n, K), NaN where the visit never happened
        self.a = a
        self.y = y  # (n,), NaN where unobserved

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def K(self) -> int:  # visits, from the shape of z
        return self.z.shape[1]

    def subset(self, mask: np.ndarray) -> "ObservedData":
        return ObservedData(**{col: v[mask] for col, v in vars(self).items()})

    def relabeled(self, t_new: np.ndarray) -> "ObservedData":
        """View with a replaced arm column; every other array is shared."""
        return ObservedData(**dict(vars(self), t=t_new.astype(self.t.dtype)))


def generate_block(params: ModelParams, seed: int, ids: np.ndarray) -> SubjectData:
    """Generate the given subject ids in one pass; any id partition yields
    identical rows.  Its temporaries grow with ``len(ids)``, so callers
    pass one block of ``_CHUNK``."""
    # imported here, not at module level, so import stratabias loads no scipy
    from scipy.special import expit, ndtri
    K, n = params.K, ids.shape[0]
    z, y = np.empty((n, 2, K)), np.empty((n, 2))
    a_seq = np.empty((n, 2, K), dtype=np.int8)
    # each stage draws only its own uniforms and frees them before the
    # next; the normals overwrite their uniforms
    u = uniform_matrix(seed, ids, 2)
    x = params.mu_x + params.sigma_x * ndtri(u[:, 0])
    t = (u[:, 1] < params.p_treat).astype(np.int8)
    del u
    eta = uniform_matrix(seed, ids, 2 * K, 2)
    ndtri(eta, out=eta)
    eta *= params.sigma_eta
    for arm in (0, 1):
        for k in range(K):
            z[:, arm, k] = (params.alpha0[k] + params.alpha1[k] * x
                            + params.alpha2[k] * arm + eta[:, arm * K + k])
    del eta
    eps = uniform_matrix(seed, ids, 2, 2 + 2 * K)
    ndtri(eps, out=eps)
    eps *= params.sigma_eps
    for arm in (0, 1):
        acc = params.beta3[0] * z[:, arm, 0]
        for k in range(1, K):
            acc = acc + params.beta3[k] * z[:, arm, k]
        y[:, arm] = (params.beta0 + params.beta1 * x + params.beta2 * arm
                     + acc + eps[:, arm])
    del eps
    u = uniform_matrix(seed, ids, 2 * K, 4 + 2 * K)
    for arm in (0, 1):
        alive = np.ones(n, dtype=bool)
        for k in range(K):
            p = expit(params.gamma0 + params.gamma2 * arm
                      + params.gamma1 * x + params.gamma3[k] * z[:, arm, k])
            adhere = (u[:, arm * K + k] < p) & alive
            a_seq[:, arm, k] = adhere
            alive = adhere
    return SubjectData(ids.astype(np.int64), x, t, z, y, a_seq)


def generate(config: ScenarioConfig) -> SubjectData:
    """Generate the scenario's n subjects with ids 0..n-1 into one table."""
    return _fill(config)


def _fill(config: ScenarioConfig, project=lambda block: block):
    """One table filled by the block map on one thread: each block passes
    through ``project`` into its id rows and is dropped.  The first block
    sizes it: ``config.n`` rows of its columns' dtypes and trailing shapes."""
    table = None

    def put(block: SubjectData) -> None:
        nonlocal table
        part = project(block)
        if table is None:
            table = type(part)(**{
                col: np.empty((config.n, *values.shape[1:]), values.dtype)
                for col, values in vars(part).items()})
        rows = slice(block.ids[0], block.ids[0] + len(block))
        for col, values in vars(table).items():
            values[rows] = getattr(part, col)
    generate_blocks(config, put)
    return table


def generate_blocks(source: ScenarioConfig | SubjectData,
                    reduce: Callable[[SubjectData], object],
                    threads: int = 1) -> list:
    """``reduce`` of each block of ``_CHUNK`` in row order, by
    ``thread_map``: a scenario's id blocks, each reduced and dropped where
    it was made, or a table's row slices, views that share its arrays."""
    def one(i: int):
        rows = slice(i * _CHUNK, (i + 1) * _CHUNK)
        if isinstance(source, SubjectData):
            return reduce(SubjectData(**{col: values[rows] for col, values
                                         in vars(source).items()}))
        ids = np.arange(rows.start, min(rows.stop, source.n), dtype=np.int64)
        return reduce(generate_block(source.params, source.seed, ids))
    n = len(source) if isinstance(source, SubjectData) else source.n
    return thread_map(one, -(-n // _CHUNK), threads)


def thread_map(fn: Callable[[int], object], n: int, threads: int) -> list:
    """``[fn(i) for i in range(n)]`` on the calling thread and up to
    ``threads - 1`` pool workers, no more than ``n``, which pull indices
    from one shared list: at most ``threads`` items are in flight, and
    after an error the other threads stop pulling."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    todo, out, lock = list(range(n))[::-1], [None] * n, threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    if not todo:
                        return
                    i = todo.pop()
                out[i] = fn(i)
        except BaseException:
            with lock:
                todo.clear()
            raise

    workers = min(threads, n) - 1
    if workers < 1:
        work()
    else:
        with ThreadPoolExecutor(workers) as pool:
            helpers = [pool.submit(work) for _ in range(workers)]
            work()
            for helper in helpers:
                helper.result()
    return out


def observe(source: ScenarioConfig | SubjectData,
            keep_y_after_dropout: bool = False) -> ObservedData:
    """Project to the assigned-arm view with monotone missingness.

    Visit k's intermediate is observed when the subject was still
    adherent after visit k-1 (the visit happens, then adherence right
    after it is decided), so the value at the dropout visit itself is
    seen.  The outcome is observed for adherers, or for everyone when
    ``keep_y_after_dropout`` is set.  A scenario's blocks are projected
    as they are made, into a table the first one sizes: the rows of
    ``observe(generate(config))``, without that table.
    """
    if isinstance(source, ScenarioConfig):
        return _fill(source,
                     lambda block: observe(block, keep_y_after_dropout))
    n = len(source)
    K = source.z.shape[2]
    arm = source.t.astype(np.int64)
    rows = np.arange(n)

    z_obs = source.z[rows, arm, :]  # a gather: already a new array
    a_seq_assigned = source.a_seq[rows, arm, :]
    for k in range(1, K):
        z_obs[a_seq_assigned[:, k - 1] == 0, k] = np.nan

    a_obs = source.a[rows, arm]
    y_obs = source.y[rows, arm]
    if not keep_y_after_dropout:
        y_obs[a_obs == 0] = np.nan
    return ObservedData(source.ids.copy(), source.x.copy(), source.t.copy(),
                        z_obs, a_obs, y_obs)


def write_table(path: str | Path, columns: list[tuple[str, object]]) -> None:
    """Write ``(header, values)`` pairs as a CSV table, one column each.

    The one owner of the cell format: the default ``csv`` dialect (CRLF
    line ends, quoting only where needed), integer and boolean columns as
    integers, other numbers at 17 significant digits, NaN as empty cell.
    Columns of unequal length raise ``ValueError``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([h for h, _ in columns])
        for lo in range(0, len(columns[0][1]), _TABLE_BLOCK):
            cells = [_cells(v[lo:lo + _TABLE_BLOCK]) for _, v in columns]
            w.writerows(zip(*cells, strict=True))


def _cells(values) -> list:
    col = np.asarray(values)
    if col.dtype.kind == "U":  # fixed-width numpy strings drop trailing NULs
        return list(values)
    if col.dtype.kind == "b":
        return col.astype(np.int64).tolist()
    if col.dtype.kind == "f":
        return ["%.17g" % v if v == v else "" for v in col.tolist()]
    return col.tolist()


def write_subjects_csv(data: SubjectData, path: str | Path) -> None:
    """Full potential-outcome table, one row per subject."""
    K = data.z.shape[2]
    visits = [(arm, k) for arm in (0, 1) for k in range(K)]
    write_table(path, [("id", data.ids), ("x", data.x), ("t", data.t)]
                + [(f"z{arm}_{k+1}", data.z[:, arm, k]) for arm, k in visits]
                + [("y0", data.y[:, 0]), ("y1", data.y[:, 1])]
                + [(f"a{arm}_{k+1}", data.a_seq[:, arm, k])
                   for arm, k in visits]
                + [("a0", data.a[:, 0]), ("a1", data.a[:, 1])])


def write_observed_csv(obs: ObservedData, path: str | Path) -> None:
    """Observed-data table; empty cell = missing."""
    write_table(path, [("id", obs.ids), ("x", obs.x), ("t", obs.t)]
                + [(f"z_{k+1}", obs.z[:, k]) for k in range(obs.K)]
                + [("a", obs.a), ("y", obs.y)])
