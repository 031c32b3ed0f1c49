"""Principal-stratum classification and oracle effect estimates.

A stratum is a predicate on the pair of potential adherence indicators
(A(0), A(1)); membership needs both potential outcomes and is therefore
only computable in simulation ("oracle" access).  Three strata matter
here: adherent under both arms, adherent under the experimental arm, and
adherent under control.

All stratum means are computed with exactly-rounded summation
(math.fsum), so results are independent of record order and of how
members are grouped - the grouped-mean (tower) identity and permutation
invariance hold bit-for-bit, not just to rounding error.

``oracle_effect`` reads only ``ids``, ``a`` and ``diff``: a whole
``SubjectData`` and the ``MemberTable`` that ``stratum_members`` keeps
from a stream of id blocks give bitwise the same estimate.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .datagen import SubjectData, write_table


# Elements per tolist() slice in exact_mean: 1 MB of Python floats.
_FSUM_CHUNK = 1 << 15


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


@dataclass(frozen=True)
class MemberTable:
    """The stratum members of a dataset, in id order: their ids, their
    adherence pair ``a`` (m, 2) and their contrast ``diff`` y(1) - y(0),
    18 B per member."""

    ids: np.ndarray
    a: np.ndarray
    diff: np.ndarray


def stratum_members(blocks: Iterable[SubjectData],
                    labels: tuple[StratumLabel, ...]) -> MemberTable:
    """One pass over id-ordered blocks, keeping only the subjects in any
    of ``labels``; each block can be dropped once it has been read.  The
    columns are joined one at a time, each dropping its parts, so the
    table is never held twice."""
    parts = ([], [], [])
    for block in blocks:
        keep = np.zeros(len(block), dtype=bool)
        for label in labels:
            keep |= members(block, label)
        for col, values in zip(parts, (block.ids, block.a, block.diff)):
            col.append(values[keep])
        del block, keep  # free before the next block is generated
    columns = []
    for col in parts:
        columns.append(np.concatenate(col))
        col.clear()
    return MemberTable(*columns)


def exact_mean(values: np.ndarray) -> float:
    """Exactly-rounded mean: independent of summation order and grouping.
    fsum reads the floats lazily, 2^15 at a time, so no Python float list
    of the whole array is ever held."""
    chunks = (values[i:i + _FSUM_CHUNK].tolist()
              for i in range(0, len(values), _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks)) / len(values)


def members(data: SubjectData | MemberTable,
            label: StratumLabel) -> np.ndarray:
    """Boolean membership mask over a dataset or a member table."""
    ok = np.ones(len(data.a), dtype=bool)
    for arm, req in enumerate((label.req0, label.req1)):
        if req is not None:
            ok &= data.a[:, arm] == req
    return ok


def _nonempty(data: SubjectData | MemberTable,
              label: StratumLabel) -> tuple[np.ndarray, int]:
    """(membership mask, member count); an empty stratum raises."""
    mask = members(data, label)
    m = int(mask.sum())
    if m == 0:
        raise EmptyStratumError(f"empty stratum {label.code}")
    return mask, m


def oracle_effect(data: SubjectData | MemberTable,
                  label: StratumLabel) -> EffectEstimate:
    """Mean and SE of y(1) - y(0) over the stratum's members.

    The SE is the paired-difference SE (sample SD of per-member
    differences over sqrt of member count); both potential outcomes are
    known per subject, so no two-sample variance enters.
    """
    mask, m = _nonempty(data, label)
    d = data.diff[mask]
    ids = data.ids
    if not np.all(ids[1:] > ids[:-1]):  # id order: permutation-proof SE
        d = d[np.argsort(ids[mask])]
    value = exact_mean(d)
    se = float(np.std(d, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return EffectEstimate(value=value, se=se, n_members=m)


def tower_check(data: SubjectData, label: StratumLabel = S_TREATED,
                n_bins: int = 20) -> tuple[float, float]:
    """Compare the direct stratum mean against its grouped-mean form.

    lhs is the stratum mean of y(1) - y(0).  rhs regroups the members
    into ``n_bins`` equal-frequency bins on the baseline covariate (ties
    broken by id) and takes the membership-weighted average of within-bin
    means.  The weighted average of bin means is, in exact arithmetic,
    the mean over the concatenated partition, and both sides are reduced
    with exactly-rounded summation, so lhs == rhs bit-for-bit whenever
    the bins partition the members.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    mask, m = _nonempty(data, label)
    if n_bins > m:
        raise ValueError(f"n_bins={n_bins} exceeds stratum size {m}")

    d = data.diff[mask]
    lhs = exact_mean(d[np.argsort(data.ids[mask])])

    order = np.lexsort((data.ids[mask], data.x[mask]))
    bins = np.array_split(order, n_bins)
    rhs = exact_mean(d[np.concatenate(bins)])
    return lhs, rhs


def bias_decomposition(data: SubjectData) -> BiasReport:
    """Selection shifts of each arm's outcome under treated-adherent conditioning.

    The difference of the two shifts equals the treated-adherent stratum
    effect minus the unconditional mean contrast, an arithmetic identity
    on any dataset.
    """
    mask, m = _nonempty(data, S_TREATED)
    return BiasReport(
        mean_y1_given_a1=exact_mean(data.y[mask, 1]),
        mean_y0_given_a1=exact_mean(data.y[mask, 0]),
        mean_y1=exact_mean(data.y[:, 1]),
        mean_y0=exact_mean(data.y[:, 0]),
        n_members=m,
    )


def write_effects_csv(rows: list[tuple[str, str, EffectEstimate]],
                      path: str | Path) -> None:
    """Effects report; rows are (scenario_label, stratum_code, estimate)."""
    ests = [est for _, _, est in rows]
    write_table(path, [("scenario_label", [label for label, _, _ in rows]),
                       ("stratum", [code for _, code, _ in rows])]
                + [(name, [getattr(e, name) for e in ests])
                   for name in ("n_members", "value", "se")])
