"""Counter-based generator: known-answer vectors and addressing laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stratabias.rng import philox4x32, uniform_matrix

# Published test vectors for the Philox-4x32 bijection with 10 rounds:
# (counter words, key words) -> output words.
KNOWN_ANSWERS = [
    ((0x00000000, 0x00000000, 0x00000000, 0x00000000),
     (0x00000000, 0x00000000),
     (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
    ((0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff),
     (0xffffffff, 0xffffffff),
     (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
    ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344),
     (0xa4093822, 0x299f31d0),
     (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
]


@pytest.mark.parametrize("ctr,key,want", KNOWN_ANSWERS)
def test_known_answer_vectors(ctr, key, want):
    got = philox4x32(*ctr, *key)
    assert tuple(int(w) for w in got) == want


def test_known_answers_vectorized():
    """Batching the KAT inputs gives the same words as scalar calls."""
    ctrs = np.array([ka[0] for ka in KNOWN_ANSWERS], dtype=np.uint32)
    outs = [philox4x32(*ctrs[i], *KNOWN_ANSWERS[i][1])
            for i in range(len(KNOWN_ANSWERS))]
    for (_, _, want), got in zip(KNOWN_ANSWERS, outs):
        assert tuple(int(w) for w in got) == want


def test_entries_keyed_by_seed_id_draw():
    """Entry [i, d] depends only on (seed, ids[i], d) - not on the batch."""
    ids = np.array([0, 7, 3, 2**40, 12345], dtype=np.int64)
    full = uniform_matrix(99, ids, 9)
    for i, one_id in enumerate(ids):
        alone = uniform_matrix(99, np.array([one_id]), 9)
        assert (alone[0] == full[i]).all()


def test_partition_invariance():
    ids = np.arange(10_000, dtype=np.int64)
    whole = uniform_matrix(5, ids, 6)
    parts = np.vstack([uniform_matrix(5, ids[:1234], 6),
                       uniform_matrix(5, ids[1234:7777], 6),
                       uniform_matrix(5, ids[7777:], 6)])
    assert (whole == parts).all()


def test_draw_count_prefix_stable():
    """Asking for more draws never changes the earlier ones."""
    ids = np.arange(100, dtype=np.int64)
    few = uniform_matrix(11, ids, 5)
    many = uniform_matrix(11, ids, 12)
    assert (many[:, :5] == few).all()


def test_seeds_and_ids_decorrelate():
    ids = np.arange(2_000, dtype=np.int64)
    a = uniform_matrix(1, ids, 4)
    b = uniform_matrix(2, ids, 4)
    assert not np.any(a == b)  # distinct seeds colliding would be a bug
    c = uniform_matrix(1, ids + 1, 4)
    assert (a[1:] == c[:-1]).all()  # rows are addressed by id alone


def test_open_interval_and_uniformity():
    u = uniform_matrix(20260814, np.arange(50_000, dtype=np.int64), 4)
    assert u.min() > 0.0 and u.max() < 1.0
    # smoke-level KS on each draw column; alpha = 1e-3 per column
    for d in range(4):
        p = stats.kstest(u[:, d], "uniform").pvalue
        assert p > 1e-3, f"draw column {d} fails uniformity smoke (p={p:g})"


def test_bit_balance():
    """High mantissa bits should be ~fair; catches word-packing bugs.

    Bit 0 is excluded: recovering it from the float is lossy (the +0.5
    offset is below one ulp over the top half of the 53-bit range).
    """
    u = uniform_matrix(7, np.arange(20_000, dtype=np.int64), 2).ravel()
    bits = (u * (1 << 53)).astype(np.uint64)
    for shift in (1, 11, 21, 33, 52):
        frac = ((bits >> np.uint64(shift)) & np.uint64(1)).mean()
        assert abs(frac - 0.5) < 0.02, (shift, frac)


# -- the uint32 implementation, kept as the reference ----------------------
# The library runs the rounds on uint64 words and stores draws draw-major;
# this is the earlier all-uint32, row-major code, unchanged, so the
# property below pins every output bit to it.

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_LO32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10
_INV53 = float(np.ldexp(1.0, -53))


def _reference_philox4x32(c0, c1, c2, c3, k0, k1):
    c0 = np.asarray(c0, dtype=np.uint32)
    c1 = np.asarray(c1, dtype=np.uint32)
    c2 = np.asarray(c2, dtype=np.uint32)
    c3 = np.asarray(c3, dtype=np.uint32)
    k0 = int(k0)
    k1 = int(k1)
    for r in range(_ROUNDS):
        rk0 = np.uint32((k0 + r * _W0) & 0xFFFFFFFF)
        rk1 = np.uint32((k1 + r * _W1) & 0xFFFFFFFF)
        p0 = _M0 * c0.astype(np.uint64)
        p1 = _M1 * c2.astype(np.uint64)
        hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
        lo0 = (p0 & _LO32).astype(np.uint32)
        hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
        lo1 = (p1 & _LO32).astype(np.uint32)
        c0, c1, c2, c3 = hi1 ^ c1 ^ rk0, lo1, hi0 ^ c3 ^ rk1, lo0
    return c0, c1, c2, c3


def _reference_pair_to_unit(a, b):
    bits = (a.astype(np.uint64) << np.uint64(21)) | (b.astype(np.uint64) >> np.uint64(11))
    return (bits.astype(np.float64) + 0.5) * _INV53


def _reference_uniform_matrix(seed, ids, n_draws):
    ids = np.asarray(ids)
    n = ids.shape[0]
    seed = int(seed)
    k0 = np.uint32(seed & 0xFFFFFFFF)
    k1 = np.uint32((seed >> 32) & 0xFFFFFFFF)
    id_lo = (ids.astype(np.uint64) & _LO32).astype(np.uint32)
    id_hi = (ids.astype(np.uint64) >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros(n, dtype=np.uint32)

    out = np.empty((n, n_draws))
    n_blocks = (n_draws + 1) // 2
    for j in range(n_blocks):
        block = np.full(n, j, dtype=np.uint32)
        w0, w1, w2, w3 = _reference_philox4x32(block, id_lo, id_hi, zero, k0, k1)
        out[:, 2 * j] = _reference_pair_to_unit(w0, w1)
        if 2 * j + 1 < n_draws:
            out[:, 2 * j + 1] = _reference_pair_to_unit(w2, w3)
    return out


_SEEDS = st.one_of(st.integers(0, 2**32 - 1),          # high key word 0
                   st.integers(2**32, 2**64 - 1),      # high key word set
                   st.sampled_from([2**64 - 1, 2**40 + 7, 2**32]))
_IDS = st.lists(st.one_of(st.integers(0, 2**16),
                          st.integers(2**32 - 2, 2**32 + 2),
                          st.integers(2**32, 2**63 - 1)),
                max_size=40)  # unsorted, repeats likely, may be empty


def _assert_bitwise_reference(seed, ids, n_draws):
    got = uniform_matrix(seed, ids, n_draws)
    want = _reference_uniform_matrix(seed, ids, n_draws)
    assert got.shape == want.shape == (len(ids), n_draws)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for d in range(n_draws):
        assert got[:, d].flags.c_contiguous  # draw-major storage


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, ids=_IDS, n_draws=st.integers(0, 19))
def test_uniform_matrix_is_bitwise_the_uint32_reference(seed, ids, n_draws):
    _assert_bitwise_reference(seed, np.array(ids, dtype=np.int64), n_draws)


@pytest.mark.parametrize("n_draws", [0, 1, 8, 15, 16, 19])
@pytest.mark.parametrize("seed", [0, 1, 2**40 + 7, 2**64 - 1])
def test_chunk_sized_batches_match_the_reference(seed, n_draws):
    """Whole-chunk batches, from 12345 and from 2^33, and an empty one."""
    for ids in (np.arange(12345, 12345 + 5000, dtype=np.int64),
                np.arange(2**33, 2**33 + 5000, dtype=np.int64)[::-1],
                np.array([], dtype=np.int64)):
        _assert_bitwise_reference(seed, ids, n_draws)


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, ids=_IDS, offset=st.integers(0, 19),
       n_draws=st.integers(0, 19))
def test_offset_draws_are_the_matching_columns(seed, ids, offset, n_draws):
    """Draws ``offset`` .. ``offset + n_draws - 1`` are those columns of the
    whole layout, for even and odd offsets, on either id-word path."""
    ids = np.array(ids, dtype=np.int64)
    got = uniform_matrix(seed, ids, n_draws, offset)
    cols = slice(offset, offset + n_draws)
    assert got.shape == (len(ids), n_draws)
    full = uniform_matrix(seed, ids, offset + n_draws)
    want = _reference_uniform_matrix(seed, ids, offset + n_draws)
    assert np.array_equal(got.view(np.uint64), full[:, cols].view(np.uint64))
    assert np.array_equal(got.view(np.uint64), want[:, cols].view(np.uint64))
    for d in range(n_draws):
        assert got[:, d].flags.c_contiguous


@settings(max_examples=100, deadline=None)
@given(ctr=st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4),
       key=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
def test_philox_words_match_the_reference(ctr, key):
    got = philox4x32(*ctr, *key)
    want = _reference_philox4x32(*ctr, *key)
    assert [int(w) for w in got] == [int(w) for w in want]
    assert all(np.asarray(w).dtype == np.uint32 for w in got)
