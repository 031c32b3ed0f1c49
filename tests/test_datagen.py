"""Generator laws: determinism, marginals, monotone dropout, observation."""

import csv
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

import stratabias.datagen as dg
from stratabias.datagen import (generate, generate_block, observe,
                                write_observed_csv, write_subjects_csv,
                                write_table)
from stratabias.params import ScenarioConfig, load_scenario
from stratabias.rng import uniform_matrix

BASE = {
    "mu_x": 0.2, "sigma_x": 1.0,
    "alpha0": [0.1, 0.0, -0.3], "alpha1": [0.5, 0.5, 0.5],
    "alpha2": [0.0, 0.0, 0.0],
    "beta0": 1.0, "beta1": 0.5, "beta2": 0.0, "beta3": [0.4, 0.4, 0.4],
    "sigma_eta": 1.0, "sigma_eps": 1.0,
    "gamma0": 1.0, "gamma1": 0.3, "gamma3": [0.5, 0.5, 0.5],
    "K": 3,
}


def config(n=1000, seed=7, **overrides):
    d = dict(BASE)
    d.update(overrides, n=n, seed=seed)
    return load_scenario(d)


def test_shapes_and_dtypes():
    data = generate(config(n=321))
    assert len(data) == 321
    assert data.z.shape == (321, 2, 3) and data.a_seq.shape == (321, 2, 3)
    assert data.a.dtype == np.int8 and data.t.dtype == np.int8
    assert (data.ids == np.arange(321)).all()


def test_generation_is_deterministic():
    cfg = config(n=2000)
    a, b = generate(cfg), generate(cfg)
    for field in ("x", "z", "y", "a_seq", "a", "t"):
        assert (getattr(a, field) == getattr(b, field)).all(), field


def test_partition_invariance():
    cfg = config(n=5000)
    whole = generate(cfg)
    ids = np.arange(5000, dtype=np.int64)
    lohalf = generate_block(cfg.params, cfg.seed, ids[:2100])
    hihalf = generate_block(cfg.params, cfg.seed, ids[2100:])
    assert (whole.y == np.vstack([lohalf.y, hihalf.y])).all()
    assert (whole.a_seq == np.concatenate([lohalf.a_seq, hihalf.a_seq])).all()


def test_chunk_size_is_invisible(monkeypatch):
    cfg = config(n=3000)
    whole = generate(cfg)
    monkeypatch.setattr(dg, "_CHUNK", 777)
    rechunked = generate(cfg)
    assert (whole.y == rechunked.y).all()
    assert (whole.a_seq == rechunked.a_seq).all()


def test_generate_fills_one_table_block_by_block(monkeypatch):
    """``generate`` makes its subjects through the block map, one block of
    at most ``_CHUNK`` ids per call, and holds no block beyond the one
    being copied: its peak above the table does not grow with n."""
    sizes, real_block = [], dg.generate_block

    def block(params, seed, ids):
        sizes.append(len(ids))
        return real_block(params, seed, ids)
    with monkeypatch.context() as m:
        m.setattr(dg, "_CHUNK", 777)
        m.setattr(dg, "generate_block", block)
        generate(config(n=3000))
    assert len(sizes) == math.ceil(3000 / 777) and max(sizes) <= 777

    def above_table(n):
        tracemalloc.start()
        try:
            data = generate(config(n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(getattr(data, col).nbytes
                          for col in ("ids", "x", "t", "z", "y", "a_seq"))
    assert above_table(1 << 19) < 1.01 * above_table(1 << 17)


def test_blocks_come_back_in_id_order_on_any_thread_count(monkeypatch):
    """More threads than cores and a 1 us switch interval: every block is
    made exactly once, the results keep id order, threads=1 starts no
    pool and a pool never gets more workers than there are blocks."""
    cfg = config(n=6000)
    whole = generate(cfg)
    pools, made = [], []
    real_pool, real_block = dg.ThreadPoolExecutor, dg.generate_block

    def pool(workers):
        pools.append(workers)
        return real_pool(workers)

    def block(params, seed, ids):
        made.append(int(ids[0]))
        return real_block(params, seed, ids)
    monkeypatch.setattr(dg, "ThreadPoolExecutor", pool)
    monkeypatch.setattr(dg, "generate_block", block)
    monkeypatch.setattr(dg, "_CHUNK", 50)  # 120 blocks
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (1, 8):
            made.clear()
            blocks = dg.generate_blocks(cfg, lambda b: b, threads)
            assert sorted(made) == list(range(0, cfg.n, 50))
            for col in ("ids", "x", "t", "z", "y", "a_seq"):
                assert np.array_equal(
                    np.concatenate([getattr(b, col) for b in blocks]),
                    getattr(whole, col))
    finally:
        sys.setswitchinterval(switch)
    monkeypatch.setattr(dg, "_CHUNK", 2500)
    assert dg.generate_blocks(cfg, len, 64) == [2500, 2500, 1000]
    assert pools == [7, 2]


def test_a_failed_block_stops_the_other_threads(monkeypatch):
    cfg = config(n=6000)
    monkeypatch.setattr(dg, "_CHUNK", 50)
    reduced = []

    def reduce(block):
        if block.ids[0] == 1000:
            raise KeyError("block 20")
        reduced.append(len(block))
    for threads in (1, 3):
        reduced.clear()
        with pytest.raises(KeyError, match="block 20"):
            dg.generate_blocks(cfg, reduce, threads)
        assert len(reduced) < 120 - 20  # nobody went on to the end
    with pytest.raises(ValueError, match="threads must be >= 1"):
        dg.generate_blocks(cfg, len, 0)


def test_outcome_reconstruction_exact():
    """y and z are the documented combinations of the draws' noises."""
    cfg = config(n=4000)
    p = cfg.params
    data = generate(cfg)
    # the noises are not stored: rebuild them from the whole draw layout
    u = uniform_matrix(cfg.seed, data.ids, 4 + 4 * p.K)
    eta = p.sigma_eta * ndtri(u[:, 2:2 + 2 * p.K]).reshape(-1, 2, p.K)
    eps = p.sigma_eps * ndtri(u[:, 2 + 2 * p.K:4 + 2 * p.K])
    beta3 = np.asarray(p.beta3)
    for arm in (0, 1):
        acc = beta3[0] * data.z[:, arm, 0]
        for k in range(1, p.K):
            acc = acc + beta3[k] * data.z[:, arm, k]
        expect = p.beta0 + p.beta1 * data.x + p.beta2 * arm \
            + acc + eps[:, arm]
        assert (expect == data.y[:, arm]).all()
    for arm in (0, 1):
        for k in range(p.K):
            expect = p.alpha0[k] + p.alpha1[k] * data.x \
                + p.alpha2[k] * arm + eta[:, arm, k]
            assert (expect == data.z[:, arm, k]).all()


def test_degenerate_noise_collapses():
    cfg = config(n=500, sigma_eta=0.0, sigma_eps=0.0)
    p = cfg.params
    data = generate(cfg)
    beta3 = np.asarray(p.beta3)
    for arm in (0, 1):
        for k in range(p.K):
            line = p.alpha0[k] + p.alpha1[k] * data.x + p.alpha2[k] * arm
            assert (data.z[:, arm, k] == line).all()
        acc = beta3[0] * data.z[:, arm, 0]
        for k in range(1, p.K):
            acc = acc + beta3[k] * data.z[:, arm, k]
        line = p.beta0 + p.beta1 * data.x + p.beta2 * arm + acc
        assert (data.y[:, arm] == line).all()
    # with the outcome pathway null, y(1) == y(0) exactly
    assert (data.y[:, 0] == data.y[:, 1]).all()


def test_extreme_gamma0_saturates_adherence():
    allin = generate(config(n=2000, gamma0=50.0))
    assert (allin.a_seq == 1).all() and (allin.a == 1).all()
    allout = generate(config(n=2000, gamma0=-50.0))
    assert (allout.a_seq == 0).all() and (allout.a == 0).all()


def test_dropout_is_absorbing():
    data = generate(config(n=20_000))
    aseq = data.a_seq
    assert ((aseq[:, :, 1:] <= aseq[:, :, :-1]).all())
    assert (data.a == aseq[:, :, -1]).all()


def test_raising_gamma0_only_adds_adherers():
    low = generate(config(n=30_000, gamma0=0.5))
    high = generate(config(n=30_000, gamma0=1.5))
    assert (high.a_seq >= low.a_seq).all()


def test_marginals_match_the_model():
    cfg = config(n=100_000, seed=11)
    p = cfg.params
    data = generate(cfg)
    assert stats.kstest(data.x, "norm", args=(p.mu_x, p.sigma_x)).pvalue > 1e-3
    # z_k(t) = alpha0 + alpha1*x + alpha2*t + eta is normal with known scale
    for k in range(p.K):
        sd = np.hypot(p.alpha1[k] * p.sigma_x, p.sigma_eta)
        mean = p.alpha0[k] + p.alpha1[k] * p.mu_x
        pv = stats.kstest(data.z[:, 0, k], "norm", args=(mean, sd)).pvalue
        assert pv > 1e-3, f"z_{k+1} marginal off (p={pv:g})"
    frac_treated = data.t.mean()
    assert abs(frac_treated - 0.5) < 3.5 * 0.5 / np.sqrt(len(data))


def test_full_null_arms_exchangeable():
    data = generate(config(n=50_000, seed=3))
    # identical marginals across arms (dependence only makes KS conservative)
    assert stats.ks_2samp(data.y[:, 0], data.y[:, 1]).pvalue > 1e-3
    rate0, rate1 = data.a[:, 0].mean(), data.a[:, 1].mean()
    assert abs(rate0 - rate1) < 3.5 * np.sqrt(0.5 / len(data))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       k=st.integers(min_value=1, max_value=4),
       gamma0=st.floats(min_value=-2, max_value=3),
       sigma_eta=st.floats(min_value=0, max_value=2))
def test_structural_invariants_hold(seed, k, gamma0, sigma_eta):
    cfg = load_scenario({
        "mu_x": 0.0, "sigma_x": 1.0,
        "alpha0": [0.0] * k, "alpha1": [0.4] * k, "alpha2": [0.0] * k,
        "beta0": 0.0, "beta1": 1.0, "beta2": 0.0, "beta3": [0.3] * k,
        "sigma_eta": sigma_eta, "sigma_eps": 0.5,
        "gamma0": gamma0, "gamma1": 0.2, "gamma3": [0.5] * k,
        "K": k, "n": 64, "seed": seed,
    })
    data = generate(cfg)
    assert (data.a_seq[:, :, 1:] <= data.a_seq[:, :, :-1]).all()
    assert (data.a == data.a_seq[:, :, -1]).all()
    assert np.isfinite(data.y).all() and np.isfinite(data.z).all()
    assert data.ids[0] == 0 and data.z[0].shape == (2, k)


def test_observe_masks_follow_dropout():
    cfg = config(n=5000)
    data = generate(cfg)
    obs = observe(data)
    arm = data.t.astype(int)
    rows = np.arange(len(data))
    a_assigned = data.a_seq[rows, arm, :]
    # visit 1 always happens; visit k+1 requires adherence through k
    assert not np.isnan(obs.z[:, 0]).any()
    for k in range(1, 3):
        assert (np.isnan(obs.z[:, k]) == (a_assigned[:, k - 1] == 0)).all()
    assert (obs.a == data.a[rows, arm]).all()
    # censored outcome: NaN exactly for non-adherers
    assert (np.isnan(obs.y) == (obs.a == 0)).all()
    seen = ~np.isnan(obs.z)
    assert (obs.z[seen] == data.z[rows, arm, :][seen]).all()

    kept = observe(data, keep_y_after_dropout=True)
    assert not np.isnan(kept.y).any()
    assert (kept.y == data.y[rows, arm]).all()


OBSERVED = ("ids", "x", "t", "z", "a", "y")


@pytest.mark.parametrize("n", [3000, 500])  # a ragged last block; one block
@pytest.mark.parametrize("keep", [True, False])
def test_observing_a_scenario_is_observing_its_table(monkeypatch, n, keep):
    cfg = config(n=n)
    whole = observe(generate(cfg), keep_y_after_dropout=keep)
    monkeypatch.setattr(dg, "_CHUNK", 777)
    streamed = observe(cfg, keep_y_after_dropout=keep)
    for col in OBSERVED:
        a, b = getattr(whole, col), getattr(streamed, col)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), col
        assert a.tobytes() == b.tobytes(), col


def test_observing_a_scenario_holds_one_block_beyond_its_table():
    """Its traced peak above the observed table does not grow with n and
    stays below the potential-outcome table it no longer builds."""
    def above_table(n):
        tracemalloc.start()
        try:
            obs = observe(config(n=n), keep_y_after_dropout=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(getattr(obs, col).nbytes for col in OBSERVED)
    n = 1 << 17
    table = sum(getattr(generate(config(n=n)), col).nbytes
                for col in ("ids", "x", "t", "z", "y", "a_seq"))
    assert above_table(1 << 19) < 1.01 * above_table(n) < table


def test_observed_record_view():
    data = generate(config(n=50, gamma0=-50.0))
    obs = observe(data)
    assert obs.a[7] == 0 and np.isnan(obs.y[7])
    assert not np.isnan(obs.z[7, 0]) and np.isnan(obs.z[7, 1])
    assert len(obs) == 50


def test_subjects_csv_layout(tmp_path):
    cfg = config(n=40)
    data = generate(cfg)
    path = tmp_path / "subjects.csv"
    write_subjects_csv(data, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "x", "t",
                       "z0_1", "z0_2", "z0_3", "z1_1", "z1_2", "z1_3",
                       "y0", "y1",
                       "a0_1", "a0_2", "a0_3", "a1_1", "a1_2", "a1_3",
                       "a0", "a1"]
    assert len(rows) == 41
    i = 13
    row = rows[1 + i]
    assert int(row[0]) == i
    assert float(row[1]) == data.x[i]          # 17 digits round-trip exactly
    assert float(row[3]) == data.z[i, 0, 0]
    assert float(row[10]) == data.y[i, 1]
    assert int(row[-1]) == data.a[i, 1]


def test_observed_csv_layout(tmp_path):
    cfg = config(n=60, gamma0=0.0)
    obs = observe(generate(cfg))
    path = tmp_path / "observed.csv"
    write_observed_csv(obs, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "x", "t", "z_1", "z_2", "z_3", "a", "y"]
    body = rows[1:]
    assert len(body) == 60
    for i, row in enumerate(body):
        for j, k in ((3, 0), (4, 1), (5, 2)):
            if np.isnan(obs.z[i, k]):
                assert row[j] == ""          # missing = empty cell
            else:
                assert float(row[j]) == obs.z[i, k]
        if np.isnan(obs.y[i]):
            assert row[7] == ""
        else:
            assert float(row[7]) == obs.y[i]


def test_table_cell_format(tmp_path, monkeypatch):
    """CRLF rows, ints as ints, %.17g floats, NaN empty, RFC 4180 quoting."""
    columns = [
        ("id", np.array([0, 7, -3, 12])),
        ("t", np.array([1, 0, 1, 0], dtype=np.int8)),
        ("v", np.array([0.1, -0.0, 1e-300, np.nan])),
        ("label", ["plain", "a,b", 'say "hi"', "x\0"]),
        ("ok", [True, False, True, False]),
    ]
    expected = (b"id,t,v,label,ok\r\n"
                b"0,1,0.10000000000000001,plain,1\r\n"
                b'7,0,-0,"a,b",0\r\n'
                b'-3,1,1e-300,"say ""hi""",1\r\n'
                b"12,0,,x\0,0\r\n")
    path = tmp_path / "table.csv"
    write_table(path, columns)
    assert path.read_bytes() == expected
    monkeypatch.setattr(dg, "_TABLE_BLOCK", 3)
    write_table(path, columns)
    assert path.read_bytes() == expected


def test_subset_and_relabel_views():
    obs = observe(generate(config(n=300)))
    controls = obs.subset(obs.t == 0)
    assert (controls.t == 0).all()
    flipped = controls.relabeled(np.ones(len(controls), dtype=np.int8))
    assert (flipped.t == 1).all()
    assert (flipped.y[~np.isnan(flipped.y)]
            == controls.y[~np.isnan(controls.y)]).all()
