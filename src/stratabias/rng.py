"""Counter-based random numbers for reproducible, partition-independent simulation.

Every random draw in a simulated trial is addressed by (seed, subject id,
draw index) and produced by the Philox-4x32-10 block cipher, so a subject's
draws never depend on how many subjects are generated around it, in what
order, or on how work is split across chunks or threads.  Generating subjects
0..n-1 in one call, in two halves, or one at a time gives bit-identical
output.

The implementation is vectorized numpy and round-for-round follows the
published Philox-4x32 construction (verified against its known-answer
vectors in tests/test_rng.py).  Each 32-bit word is held in a uint64
array, so a round's 32x32 -> 64-bit products and the hi/lo split need no
dtype conversion.  Each 128-bit block yields two 53-bit uniforms in the
open interval (0, 1); normals are obtained downstream by inverse-CDF so
that every draw is a monotone function of its uniform.

Draws are stored draw-major: ``uniform_matrix`` fills one contiguous row
per draw index and returns the transposed view, so ``u[:, d]`` is
contiguous and ``u`` itself is not C-contiguous.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_ROUNDS = 10

# 2^-53; uniforms are (bits53 + 0.5) * 2^-53, always inside (0, 1)
_INV53 = float(np.ldexp(1.0, -53))


def _rounds(c0, c1, c2, c3, k0: int, k1: int):
    """The Philox rounds on 32-bit words held as uint64 arrays or scalars.

    The round keys are bumped in exact integer arithmetic (mod 2^32).
    The caller's arrays are never written: the first round's products
    are new arrays, and every later in-place product, XOR and mask lands
    in a word this loop made.  A scalar word stays a scalar until it
    meets an array, so constant counter words cost no array operations
    in the first rounds.
    """
    for r in range(_ROUNDS):
        rk0 = np.uint64((k0 + r * _W0) & 0xFFFFFFFF)
        rk1 = np.uint64((k1 + r * _W1) & 0xFFFFFFFF)
        if r:  # words this loop made: multiply in place
            c0 *= _M0
            c2 *= _M1
            p0, p1 = c0, c2
        else:
            p0, p1 = c0 * _M0, c2 * _M1
        c0 = p1 >> _S32
        c0 ^= c1
        c0 ^= rk0
        c1 = p1
        c1 &= _LO32
        c2 = p0 >> _S32
        c2 ^= c3
        c2 ^= rk1
        c3 = p0
        c3 &= _LO32
    return c0, c1, c2, c3


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Run the Philox-4x32-10 bijection on vectors of counter words.

    The counter words are uint32 arrays (or scalars) of a common
    broadcast shape; the two key words are integer scalars.  Returns
    the four output words as uint32 arrays.
    """
    words = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint32)
                                  for c in (c0, c1, c2, c3)))
    out = _rounds(*(w.astype(np.uint64) for w in words), int(k0), int(k1))
    return tuple(w.astype(np.uint32) for w in out)


def _store_unit(a: np.ndarray, b: np.ndarray, row: np.ndarray) -> None:
    """Write (bits53 + 0.5) * 2^-53 into ``row``, where bits53 is the top
    32 bits of word ``a`` over the top 21 of word ``b``; consumes a and b."""
    a <<= np.uint64(21)
    b >>= np.uint64(11)
    a |= b
    np.add(a, 0.5, out=row)
    row *= _INV53


def uniform_matrix(seed: int, ids: np.ndarray, n_draws: int,
                   offset: int = 0) -> np.ndarray:
    """Uniform draws for a batch of subjects, addressed by (seed, id, draw).

    Parameters
    ----------
    seed : int
        64-bit stream seed (the Philox key).
    ids : array of int64
        Subject identifiers; any values in [0, 2^64), any order.
    n_draws : int
        Number of draws per subject.
    offset : int
        Index (>= 0) of the first draw: column d of the result is draw
        ``offset + d``, so a caller can draw a subject's layout in stages.

    Returns
    -------
    (len(ids), n_draws) float64 array with entries in the open interval
    (0, 1).  Entry [i, d] depends only on (seed, ids[i], offset + d).  The
    array is the transposed view of a draw-major (n_draws, len(ids))
    buffer: each column ``[:, d]`` is contiguous, and the result is not
    C-contiguous, so callers that need row-major memory must copy.
    """
    ids = np.asarray(ids).astype(np.uint64)
    seed = int(seed)
    k0, k1 = seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF
    id_hi = ids >> _S32
    if not id_hi.any():  # a scalar word saves 16 array ops in rounds 1-3
        id_hi = np.uint64(0)
    ids &= _LO32  # the low words, in this function's own copy

    stop = offset + n_draws
    out = np.empty((n_draws, ids.shape[0]))
    for j in range(offset // 2, (stop + 1) // 2):
        w0, w1, w2, w3 = _rounds(np.uint64(j), ids, id_hi, np.uint64(0),
                                 k0, k1)
        if 2 * j >= offset:
            _store_unit(w0, w1, out[2 * j - offset])
        if 2 * j + 1 < stop:
            _store_unit(w2, w3, out[2 * j + 1 - offset])
        del w0, w1, w2, w3  # free them before the next counter's rounds
    return out.T
