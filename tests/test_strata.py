"""Stratum oracle: membership, exact means, and the order-free tower check."""

import dataclasses
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratabias import datagen, strata
from stratabias.cli import _oracles
from stratabias.datagen import SubjectData, generate, generate_blocks
from stratabias.params import load_bundled, load_scenario
from stratabias.strata import (EmptyStratumError, S_BOTH, S_CONTROL,
                               S_TREATED, StratumLabel, bias_decomposition,
                               exact_mean, members, oracle_effect,
                               tower_check, write_effects_csv)


def tiny_data(a0, a1, diff=None, x=None):
    """Hand-built SubjectData with prescribed adherence and differences."""
    n = len(a0)
    diff = np.zeros(n) if diff is None else np.asarray(diff, dtype=float)
    x = np.arange(n, dtype=float) if x is None else np.asarray(x, dtype=float)
    y = np.zeros((n, 2))
    y[:, 1] = diff
    a = np.column_stack([a0, a1]).astype(np.int8)
    a_seq = a[:, :, None].repeat(2, axis=2)
    return SubjectData(
        ids=np.arange(n, dtype=np.int64), x=x,
        t=np.zeros(n, dtype=np.int8), z=np.zeros((n, 2, 2)), y=y,
        a_seq=a_seq)


def test_membership_predicates():
    data = tiny_data(a0=[1, 1, 0, 0], a1=[1, 0, 1, 0])
    assert members(data, S_BOTH).tolist() == [True, False, False, False]
    assert members(data, S_TREATED).tolist() == [True, False, True, False]
    assert members(data, S_CONTROL).tolist() == [True, True, False, False]
    assert members(data, S_BOTH)[0] and not members(data, S_TREATED)[1]
    free = StratumLabel(None, None, "S_**")
    assert members(data, free).all()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_members_is_the_union_of_the_label_cells(seed):
    """members admits exactly the rows in a cell _cells gives the label,
    for every requirement pair in {None, 0, 1}^2."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 200))
    a0, a1 = rng.integers(0, 2, n), rng.integers(0, 2, n)
    data = tiny_data(a0=a0, a1=a1)
    for req0 in (None, 0, 1):
        for req1 in (None, 0, 1):
            label = StratumLabel(req0, req1, "S")
            cells = strata._cells((label,))
            assert len(cells) == (1 + (req0 is None)) * (1 + (req1 is None))
            want = np.zeros(n, dtype=bool)
            for i, j in cells:
                want |= (a0 == i) & (a1 == j)
            assert members(data, label).tolist() == want.tolist()


def test_stratum_nesting():
    data = generate(load_scenario(dict(
        mu_x=0, sigma_x=1, alpha0=[0], alpha1=[0.5], alpha2=[0],
        beta0=0, beta1=0, beta2=0, beta3=[0.4], sigma_eta=1, sigma_eps=1,
        gamma0=0.5, gamma1=0.3, gamma3=[0.5], K=1, n=20_000, seed=5)))
    both = members(data, S_BOTH)
    assert (both <= members(data, S_TREATED)).all()
    assert (both <= members(data, S_CONTROL)).all()


def test_oracle_effect_simple_values():
    data = tiny_data(a0=[1, 0, 1, 0], a1=[1, 1, 0, 1],
                     diff=[1.0, 2.0, 100.0, 6.0])
    est = oracle_effect(data, S_TREATED)
    assert est.value == 3.0 and est.n_members == 3
    # contrasts 1, 2, 6: squared deviations 4 + 1 + 9, over 2 and over 3
    assert abs(est.se - math.sqrt(7 / 3)) <= 1e-15 * math.sqrt(7 / 3)
    single = oracle_effect(data, S_BOTH)
    assert single.value == 1.0 and single.se == 0.0


def test_empty_stratum_raises():
    data = tiny_data(a0=[0, 0], a1=[1, 1])
    with pytest.raises(EmptyStratumError, match="S_\\+\\+"):
        oracle_effect(data, S_BOTH)
    with pytest.raises(EmptyStratumError, match="S_\\*\\+"):
        bias_decomposition(tiny_data(a0=[1, 1], a1=[0, 0]))


def test_permutation_invariance_bitwise():
    cfg = load_scenario(dict(
        mu_x=0, sigma_x=1, alpha0=[0, 0], alpha1=[.5, .5], alpha2=[0, 0],
        beta0=1, beta1=.5, beta2=0, beta3=[.4, .4], sigma_eta=1, sigma_eps=1,
        gamma0=1, gamma1=.3, gamma3=[.5, .5], K=2, n=30_001, seed=9))
    data = generate(cfg)
    perm = np.random.default_rng(0).permutation(len(data))
    shuffled = SubjectData(
        ids=data.ids[perm], x=data.x[perm], t=data.t[perm], z=data.z[perm],
        y=data.y[perm], a_seq=data.a_seq[perm])
    for label in (S_BOTH, S_TREATED, S_CONTROL):
        a = oracle_effect(data, label)
        b = oracle_effect(shuffled, label)
        assert a.value == b.value and a.se == b.se  # bit-for-bit
        lhs0, rhs0 = tower_check(data, label)
        lhs1, rhs1 = tower_check(shuffled, label)
        assert lhs0 == lhs1 == rhs0 == rhs1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=300),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_tower_identity_bitwise(n, seed):
    rng = np.random.default_rng(seed)
    data = tiny_data(a0=rng.integers(0, 2, n), a1=np.ones(n, dtype=int),
                     diff=rng.normal(size=n) * 10.0 ** rng.integers(-3, 4),
                     x=rng.choice([0.0, 1.0, 2.5], size=n))  # heavy x ties
    lhs, rhs = tower_check(data, S_TREATED)
    assert lhs == rhs
    assert lhs == oracle_effect(data, S_TREATED).value


def test_tower_argument_validation():
    with pytest.raises(EmptyStratumError):
        tower_check(tiny_data(a0=[1], a1=[0]), S_TREATED)


def test_bias_decomposition_identity():
    """shift difference == stratum effect - unconditional contrast."""
    cfg = load_scenario(dict(
        mu_x=0, sigma_x=1, alpha0=[0.2], alpha1=[0.5], alpha2=[0],
        beta0=1, beta1=0.5, beta2=0, beta3=[0.6], sigma_eta=1, sigma_eps=1,
        gamma0=0.8, gamma1=0.3, gamma3=[0.7], K=1, n=40_000, seed=2))
    data = generate(cfg)
    rep = bias_decomposition(data)
    est = oracle_effect(data, S_TREATED)
    lhs = rep.shift_treated - rep.shift_control
    rhs = est.value - (exact_mean(data.y[:, 1]) - exact_mean(data.y[:, 0]))
    assert abs(lhs - rhs) < 1e-12
    assert rep.n_members == est.n_members
    # under selection, the treated-arm shift should dominate
    assert rep.shift_treated > rep.shift_control > 0


def test_exact_mean_is_bitwise_one_fsum_over_the_whole_list():
    """Sums that cancel only across the accumulator's slice boundaries."""
    cancel = np.tile([1e16, 1.0, -1e16], (strata._SLICE * 2) // 3 + 5)
    rng = np.random.default_rng(7)
    for values in (cancel, rng.standard_normal(100_000),
                   np.concatenate([cancel, rng.standard_normal(100_000)]),
                   rng.standard_normal(3)):
        assert exact_mean(values) == math.fsum(values.tolist()) / len(values)
    assert exact_mean(cancel) == 1.0 / 3.0


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _summands(draw):
    """Finite doubles (signed zeros, subnormals, +-1e308 included), with
    some of them planted again negated, so that sums cancel."""
    values = draw(st.lists(st.one_of(
        _FINITE, st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308,
                                  -1e308, 2.2250738585072014e-308])),
        max_size=60))
    planted = draw(st.lists(st.sampled_from(values), max_size=len(values))
                   if values else st.just([]))
    return draw(st.permutations(values + [-v for v in planted]))


@settings(max_examples=300, deadline=None)
@given(values=_summands(), data=st.data())
def test_exact_sum_is_fsum_and_splits_into_any_parts(values, data):
    """The integer sum is the exact rational sum, rounds to math.fsum's
    bits (where fsum does not overflow in between), and is the same
    integer for every split of the values into parts."""
    total = strata._exact(np.array(values))
    exact = sum(map(Fraction, values), Fraction(0))
    assert Fraction(total, strata._ONE) == exact
    try:
        want = math.fsum(values)
    except OverflowError:  # fsum's partials overflow; the exact sum need not
        want = None
    if want is not None:
        assert (total / strata._ONE).hex() == want.hex()
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)),
                                     max_size=6)))
    parts = [np.array(values[lo:hi], dtype=float)
             for lo, hi in zip([0] + cuts, cuts + [len(values)])]
    assert strata._exact(*parts) == total
    assert sum(map(strata._exact, parts)) == total


_MODERATE = st.one_of(st.just(0.0), st.just(-0.0),
                      st.floats(min_value=1e-120, max_value=1e120),
                      st.floats(min_value=-1e120, max_value=-1e-120))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_MODERATE, max_size=60))
def test_cell_sums_of_squares_are_exact(values):
    """A cell's sum of d^2 (Veltkamp halves) is the exact rational one
    wherever the squares neither overflow nor underflow."""
    block = tiny_data([1] * len(values), [1] * len(values), values)
    m, s1, s2 = strata._block_sums(block, [(1, 1)])[1, 1]
    assert m == len(values)
    assert Fraction(s1, strata._ONE) == sum(map(Fraction, values), Fraction(0))
    assert Fraction(s2, strata._ONE) == sum(
        (Fraction(v) ** 2 for v in values), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3),
                       min_size=2, max_size=50),
       shift=st.sampled_from([0.0, 1e6, -1e9]))
def test_oracle_se_rounds_the_exact_sum_of_squares_once(values, shift):
    """The value is the once-rounded sum over m; the sum of squares
    sum(d^2) - sum(d)^2 / m is rounded once from the exact rational, so
    a shift that cancels most digits loses none."""
    d = np.array(values) + shift
    est = oracle_effect(tiny_data(a0=np.ones(len(d)), a1=np.ones(len(d)),
                                  diff=d), S_BOTH)
    exact = list(map(Fraction, d.tolist()))
    m, total = len(exact), sum(exact)
    ss = float(sum(v * v for v in exact) - total * total / m)
    assert est.value == float(total) / m
    assert est.se == math.sqrt(ss / (m - 1) / m)


def test_exact_sum_refuses_non_finite_values():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            strata._exact(np.array([1.0, bad]))


def test_effects_csv(tmp_path):
    data = tiny_data(a0=[1, 0, 1], a1=[1, 1, 1], diff=[1.0, 2.0, 3.0])
    est = oracle_effect(data, S_TREATED)
    path = tmp_path / "effects.csv"
    write_effects_csv([("demo", S_TREATED.code, est)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scenario_label,stratum,n_members,value,se"
    label, code, m, value, se = lines[1].split(",")
    assert (label, code, m) == ("demo", "S_*+", "3")
    assert float(value) == est.value and float(se) == est.se


# -- the streamed oracle ----------------------------------------------------

def _bits(est):
    return est.value.hex(), est.se.hex(), est.n_members


@pytest.mark.parametrize("chunk", [777, 1 << 20])
@pytest.mark.parametrize("name", ["full_null_demo", "partial_null_gamma2"])
def test_streamed_oracle_is_bitwise_the_whole_table_one(monkeypatch, name,
                                                         chunk):
    """``_oracles`` streams id blocks and keeps only their cells' exact
    sums; its estimates are bitwise those of the whole table, whatever
    the block and the thread count."""
    cfg = dataclasses.replace(load_bundled(name), n=20_011)
    data = generate(cfg)
    monkeypatch.setattr(datagen, "_CHUNK", chunk)
    assert len(generate_blocks(cfg, len)) == math.ceil(cfg.n / chunk)
    for threads in (1, 2, 8):
        _, both, treated, _ = _oracles(cfg, "mc", threads=threads)
        assert _bits(both) == _bits(oracle_effect(data, S_BOTH))
        assert _bits(treated) == _bits(oracle_effect(data, S_TREATED))


def test_streamed_oracle_empty_stratum_raises(monkeypatch):
    cfg = load_bundled("full_null_demo")
    cfg = dataclasses.replace(
        cfg, n=2_000, params=dataclasses.replace(cfg.params, gamma0=-60.0))
    monkeypatch.setattr(datagen, "_CHUNK", 777)
    with pytest.raises(EmptyStratumError, match="S_\\+\\+"):
        _oracles(cfg, "mc")


def test_streamed_bias_decomposition_is_bitwise_the_whole_table_one(
        monkeypatch):
    """A scenario streamed in blocks of 777 ids, the last one ragged,
    gives the whole table's ``BiasReport`` and per-cell sums bit for
    bit, on any thread count."""
    def bits(report):
        return [v.hex() if isinstance(v, float) else v
                for v in dataclasses.astuple(report)]
    cfg = dataclasses.replace(load_bundled("partial_null_gamma2"), n=5_000)
    data = generate(cfg)
    whole = bias_decomposition(data)
    labels = (S_BOTH, S_TREATED)
    monkeypatch.setattr(datagen, "_CHUNK", 777)
    assert cfg.n % 777 and len(generate_blocks(cfg, len)) == 7
    assert bits(bias_decomposition(cfg)) == bits(whole)
    for threads in (1, 2, 8):
        assert (strata.stratum_sums(cfg, labels, threads)
                == strata.stratum_sums(data, labels))
        assert bits(bias_decomposition(cfg, threads)) == bits(whole)


def test_bias_decomposition_empty_stratum_raises(monkeypatch):
    cfg = load_bundled("full_null_demo")
    cfg = dataclasses.replace(
        cfg, n=2_000, params=dataclasses.replace(cfg.params, gamma0=-60.0))
    monkeypatch.setattr(datagen, "_CHUNK", 777)
    for source in (cfg, generate(cfg)):
        with pytest.raises(EmptyStratumError, match="S_\\*\\+"):
            bias_decomposition(source)


def test_oracle_effect_holds_one_contrast_copy():
    """oracle_effect holds less than one copy of the selected contrasts:
    it reduces a whole table slice by slice to exact sums, so its traced
    peak is under half the contrasts' bytes."""
    data = generate(dataclasses.replace(load_bundled("full_null_demo"),
                                        n=1 << 20))
    m = int(members(data, S_TREATED).sum())
    assert m > 300_000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        est = oracle_effect(data, S_TREATED)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert est.n_members == m
    assert peak < 0.5 * 8 * m


_N_ORDER = 1000
_ORDER_DIFF = np.concatenate(
    [[1e9, -1e9], np.random.default_rng(0).uniform(-3, 3, _N_ORDER - 2)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       block=st.integers(min_value=1, max_value=_N_ORDER))
def test_oracle_effect_is_order_free_over_permuted_blocks(seed, block):
    """Contrasts whose np.std depends on their order: any permutation of
    the records, reduced to cell sums in blocks of any size whose sums
    are added in any order, gives the id-ordered estimate bit for bit."""
    diff = _ORDER_DIFF
    fixed = np.random.default_rng(0).permutation(_N_ORDER)
    assert np.std(diff[fixed], ddof=1) != np.std(diff, ddof=1)
    data = tiny_data(a0=np.arange(_N_ORDER) % 2, a1=np.ones(_N_ORDER),
                     diff=diff)  # S_*+ is everyone, S_++ every other id
    perm = np.random.default_rng(seed).permutation(_N_ORDER)
    shuffled = SubjectData(ids=data.ids[perm], x=data.x[perm],
                           t=data.t[perm], z=data.z[perm], y=data.y[perm],
                           a_seq=data.a_seq[perm])
    labels = (S_BOTH, S_TREATED)
    parts = [strata.stratum_sums(SubjectData(*(col[i:i + block] for col in (
        shuffled.ids, shuffled.x, shuffled.t, shuffled.z, shuffled.y,
        shuffled.a_seq))), labels) for i in range(0, _N_ORDER, block)]
    np.random.default_rng(seed).shuffle(parts)
    sums = {c: tuple(map(sum, zip(*(p[c] for p in parts)))) for c in parts[0]}
    assert sums == strata.stratum_sums(data, labels)
    assert sum(m for m, _, _ in sums.values()) == _N_ORDER
    for label in labels:
        want = _bits(oracle_effect(data, label))
        assert _bits(oracle_effect(shuffled, label)) == want
        assert _bits(oracle_effect(sums, label)) == want


def test_tower_check_catches_an_order_dependent_mean(monkeypatch):
    """tower_check's rhs reads the members in (x, id) order, a real
    permutation of them: with exact_mean lhs == rhs, and a pairwise
    np.sum mean, which depends on order, breaks the identity."""
    x = np.random.default_rng(0).permutation(_N_ORDER)
    assert np.any(np.argsort(x) != np.arange(_N_ORDER))
    data = tiny_data(a0=np.arange(_N_ORDER) % 3 != 2, a1=np.ones(_N_ORDER),
                     diff=_ORDER_DIFF, x=x)  # ids 0 and 1 in both strata
    labels = (S_TREATED, S_BOTH)
    for label in labels:
        lhs, rhs = tower_check(data, label)
        assert lhs == rhs
    monkeypatch.setattr(strata, "exact_mean",
                        lambda v: float(np.sum(v)) / len(v))
    for label in labels:
        lhs, rhs = tower_check(data, label)
        assert lhs != rhs


def test_streamed_oracle_peaks_below_half_the_whole_table():
    """numpy reports its buffers to tracemalloc, so the traced peak is
    the memory each path holds at once, free of RSS noise.  A second
    thread holds at most one more block in flight on its own thread than
    the serial pass, and the serial pass's peak does not grow with n."""
    cfg = dataclasses.replace(load_bundled("full_null_demo"), n=1 << 20)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def whole():
        data = generate(cfg)
        oracle_effect(data, S_BOTH)
        oracle_effect(data, S_TREATED)

    def one_block():  # in flight on a worker: its ids, arrays, sums, thread
        with ThreadPoolExecutor(1) as pool:
            pool.submit(lambda: strata.stratum_sums(datagen.generate_block(
                cfg.params, cfg.seed,
                np.arange(datagen._CHUNK, dtype=np.int64)),
                (S_BOTH, S_TREATED))).result()

    def serial_at(n):
        return peak(lambda: _oracles(dataclasses.replace(cfg, n=n), "mc"))

    block = peak(one_block)
    serial = peak(lambda: _oracles(cfg, "mc"))
    threaded = peak(lambda: _oracles(cfg, "mc", threads=2))
    assert threaded <= serial + block
    assert serial < threaded < peak(whole) / 2
    # only the blocks' integer sums, about 1 kB each, accumulate
    assert serial_at(1 << 21) < 1.01 * serial_at(1 << 19)
