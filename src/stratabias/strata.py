"""Principal-stratum classification and oracle effect estimates.

A stratum is a predicate on the pair of potential adherence indicators
(A(0), A(1)); membership needs both potential outcomes and is therefore
only computable in simulation ("oracle" access).  Three strata matter
here: adherent under both arms, adherent under the experimental arm, and
adherent under control.

Every sum here is exact, an integer that rounds once, so stratum means
and the sums of squares behind their SEs do not depend on record order
or on how members are grouped: a stratum mean in record order equals
the mean in (x, id) order bit for bit (``tower_check``).

``stratum_sums`` and ``bias_decomposition`` reduce each block of the one
block map, ``datagen.generate_blocks`` (a table's row slices or a
scenario's id blocks), to exact sums, bitwise the same on any number of
threads; ``oracle_effect`` reads a table or those per-cell sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .datagen import SubjectData, generate_blocks, write_table
from .params import ScenarioConfig


# Values per accumulator pass: bounds its temporaries and (< 2^26) keeps
# its float64 bin sums of 27-bit mantissa halves exact.
_SLICE = 1 << 15
_ONE = 1 << 1126  # an exact sum S stands for S / _ONE


class EmptyStratumError(ValueError):
    """No subject belongs to the requested stratum."""


@dataclass(frozen=True)
class StratumLabel:
    """Membership predicate over (A(0), A(1)); None means 'any'."""

    req0: Optional[int]
    req1: Optional[int]
    code: str


S_BOTH = StratumLabel(1, 1, "S_++")         # adherent under both arms
S_TREATED = StratumLabel(None, 1, "S_*+")   # adherent under the experimental arm
S_CONTROL = StratumLabel(1, None, "S_+*")   # adherent under control


@dataclass(frozen=True)
class EffectEstimate:
    value: float
    se: float
    n_members: int


@dataclass(frozen=True)
class BiasReport:
    """Conditional vs unconditional outcome means for the treated-adherent stratum."""

    mean_y1_given_a1: float
    mean_y0_given_a1: float
    mean_y1: float
    mean_y0: float
    n_members: int

    @property
    def shift_treated(self) -> float:
        """Selection shift of the experimental-arm outcome."""
        return self.mean_y1_given_a1 - self.mean_y1

    @property
    def shift_control(self) -> float:
        """Selection shift of the control-arm outcome."""
        return self.mean_y0_given_a1 - self.mean_y0


def _exact(*arrays) -> int:
    """The exact sum of the finite values in ``arrays`` in units of 2^-1126:
    a value is m * 2^(e - 53) with m a signed 53-bit integer, and
    ``np.bincount`` sums m's 27- and 26-bit halves per e."""
    total = 0
    for values in arrays:
        for lo in range(0, len(values), _SLICE):
            frac, e = np.frexp(values[lo:lo + _SLICE])
            if not np.isfinite(frac).all():
                raise ValueError("an exact sum needs finite values")
            m = np.ldexp(frac, 53).astype(np.int64)
            for shift, half in ((26, m >> 26), (0, m & (1 << 26) - 1)):
                bins = np.bincount(e + 1073, half)
                total += sum(int(bins[k]) << k + shift
                             for k in np.flatnonzero(bins).tolist())
    return total


def _cells(labels: tuple[StratumLabel, ...]) -> list[tuple[int, int]]:
    """The (a(0), a(1)) cells that any of ``labels`` admits: the one
    membership rule, where a None requirement admits either arm."""
    return [(i, j) for i in (0, 1) for j in (0, 1)
            if any(label.req0 in (None, i) and label.req1 in (None, j)
                   for label in labels)]


def _block_sums(block: SubjectData, cells: list[tuple[int, int]]) -> dict:
    """Per cell of a block's adherence pairs (a scenario's id block or a
    table's row slice): the count and exact sums of the contrasts d and
    of d^2, as h^2 + 2h*low + low^2 (exact doubles, as d = h + low splits
    into 26-bit halves: Veltkamp)."""
    a, d = block.a, block.y[:, 1] - block.y[:, 0]
    sums = {}
    for i, j in cells:
        dc = d[(a[:, 0] == i) & (a[:, 1] == j)]
        h = 134217729.0 * dc
        h -= h - dc
        low = dc - h
        sums[i, j] = (len(dc), _exact(dc),
                      _exact(h * h, 2.0 * h * low, low * low))
    return sums


def stratum_sums(source: ScenarioConfig | SubjectData,
                 labels: tuple[StratumLabel, ...], threads: int = 1) -> dict:
    """{(a(0), a(1)): (members, sum of d, sum of d^2)} over the cells
    ``labels`` cover, each sum exact as an integer in units of 2^-1126:
    of the blocks of ``generate_blocks`` (a table's row slices or a
    scenario's id blocks), each reduced on one of ``threads`` threads."""
    cells = _cells(labels)
    parts = generate_blocks(source, lambda block: _block_sums(block, cells),
                            threads)
    return {c: tuple(map(sum, zip((0, 0, 0), *(p[c] for p in parts))))
            for c in cells}


def exact_mean(values: np.ndarray) -> float:
    """Exactly-rounded mean: independent of summation order and grouping."""
    return _exact(values) / _ONE / len(values)


def members(data: SubjectData, label: StratumLabel) -> np.ndarray:
    """Boolean mask of the subjects, of a table or of one block of
    ``generate_blocks``, whose (A(0), A(1)) cell ``label`` admits."""
    cell = 2 * data.a[:, 0] + data.a[:, 1]
    return np.isin(cell, [2 * i + j for i, j in _cells((label,))])


def oracle_effect(data: SubjectData | dict,
                  label: StratumLabel) -> EffectEstimate:
    """Mean and SE of y(1) - y(0) over the stratum's members.

    The SE is the paired-difference SE (sample SD of per-member
    differences over sqrt of member count); both potential outcomes are
    known per subject, so no two-sample variance enters.  The exact sum
    of d rounds once and is divided by m; the sum of squares
    sum(d^2) - sum(d)^2 / m rounds once from the exact rational.
    """
    if isinstance(data, SubjectData):
        data = stratum_sums(data, (label,))
    m, s1, s2 = map(sum, zip(*(data[c] for c in _cells((label,)))))
    if m == 0:
        raise EmptyStratumError(f"empty stratum {label.code}")
    ss = (m * s2 * _ONE - s1 * s1) / (m * _ONE * _ONE)
    se = math.sqrt(ss / (m - 1) / m) if m > 1 else 0.0
    return EffectEstimate(value=s1 / _ONE / m, se=se, n_members=m)


def tower_check(data: SubjectData,
                label: StratumLabel = S_TREATED) -> tuple[float, float]:
    """The stratum mean of y(1) - y(0) in record order and in (x, id) order.

    Both are exactly-rounded means, so they are equal bit for bit; as
    (x, id) order is not record order, a mean that depended on summation
    order would tell them apart.
    """
    mask = members(data, label)
    if not mask.any():
        raise EmptyStratumError(f"empty stratum {label.code}")
    d = data.y[mask, 1] - data.y[mask, 0]
    order = np.lexsort((data.ids[mask], data.x[mask]))
    return exact_mean(d), exact_mean(d[order])


def _bias_sums(block: SubjectData) -> tuple:
    """Of one block, a table's row slice or a scenario's id block: (S_*+
    members, subjects, exact sums of y(1) and y(0) over the members, and
    over all subjects)."""
    mask, y = members(block, S_TREATED), block.y
    return (int(mask.sum()), len(y), _exact(y[mask, 1]), _exact(y[mask, 0]),
            _exact(y[:, 1]), _exact(y[:, 0]))


def bias_decomposition(source: ScenarioConfig | SubjectData,
                       threads: int = 1) -> BiasReport:
    """Selection shifts of each arm's outcome under treated-adherent conditioning.

    The difference of the two shifts equals the treated-adherent stratum
    effect minus the unconditional mean contrast, an arithmetic identity
    on any dataset.  Each block of ``generate_blocks`` reduces to exact
    sums on one of ``threads`` threads, so a scenario's report is bitwise
    that of ``generate(config)`` at any thread count.
    """
    m, n, s1, s0, t1, t0 = map(sum, zip(*generate_blocks(source, _bias_sums,
                                                         threads)))
    if m == 0:
        raise EmptyStratumError(f"empty stratum {S_TREATED.code}")
    return BiasReport(s1 / _ONE / m, s0 / _ONE / m, t1 / _ONE / n,
                      t0 / _ONE / n, m)


def write_effects_csv(rows: list[tuple[str, str, EffectEstimate]],
                      path: str | Path) -> None:
    """Effects report; rows are (scenario_label, stratum_code, estimate)."""
    ests = [est for _, _, est in rows]
    write_table(path, [("scenario_label", [label for label, _, _ in rows]),
                       ("stratum", [code for _, code, _ in rows])]
                + [(name, [getattr(e, name) for e in ests])
                   for name in ("n_members", "value", "se")])
