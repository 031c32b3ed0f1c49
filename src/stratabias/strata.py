"""Principal-stratum classification and oracle effect estimates.

A stratum is a predicate on the pair of potential adherence indicators
(A(0), A(1)); membership needs both potential outcomes and is therefore
only computable in simulation ("oracle" access).  Three strata matter
here: adherent under both arms, adherent under the experimental arm, and
adherent under control.

Stratum means and the sums of squares of their SEs use exactly-rounded
summation (math.fsum), so results are independent of record order and
of how members are grouped - the grouped-mean (tower) identity and
permutation invariance hold bit-for-bit, and nothing is sorted.

``oracle_effect`` reads only ``a`` and ``diff``: a whole ``SubjectData``
and the ``MemberTable`` whose per-block parts ``stratum_members`` keeps
from the id blocks, on any number of threads, give bitwise the same
estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .datagen import SubjectData, generate_blocks, write_table
from .params import ScenarioConfig


# Elements per slice in _fsum: 1 MB of Python floats at a time.
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
    """The stratum members of a dataset, 10 B each, as one part per id
    block in id order: the part's adherence pairs ``a`` (m, 2) and
    contrasts ``diff`` y(1) - y(0).  The parts are never joined, which
    would allocate the whole table a second time."""

    parts: tuple[tuple[np.ndarray, np.ndarray], ...]


def block_members(block: SubjectData, labels: tuple[StratumLabel, ...]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """A block's part of the member table: (a, diff) of its subjects in
    any of ``labels``."""
    keep = np.zeros(len(block), dtype=bool)
    for label in labels:
        keep |= members(block, label)
    return block.a[keep], block.diff[keep]


def stratum_members(config: ScenarioConfig, labels: tuple[StratumLabel, ...],
                    threads: int = 1) -> MemberTable:
    """One pass over the scenario's id blocks on ``threads`` threads
    (``generate_blocks``), keeping only the subjects in any of
    ``labels``; each block is dropped once its part is taken."""
    return MemberTable(tuple(generate_blocks(
        config, lambda block: block_members(block, labels), threads)))


def _fsum(arrays, term=lambda v: v) -> float:
    """Exactly-rounded sum of ``term`` over the arrays, read lazily by
    slices."""
    chunks = (term(v[i:i + _FSUM_CHUNK]).tolist()
              for v in arrays for i in range(0, len(v), _FSUM_CHUNK))
    return math.fsum(itertools.chain.from_iterable(chunks))


def exact_mean(values: np.ndarray) -> float:
    """Exactly-rounded mean: independent of summation order and grouping."""
    return _fsum((values,)) / len(values)


def members(data: SubjectData | np.ndarray,
            label: StratumLabel) -> np.ndarray:
    """Boolean membership mask over a dataset or its adherence pairs."""
    a = data.a if isinstance(data, SubjectData) else data
    ok = np.ones(len(a), dtype=bool)
    for arm, req in enumerate((label.req0, label.req1)):
        if req is not None:
            ok &= a[:, arm] == req
    return ok


def _nonempty(data: SubjectData,
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
    parts = (data.parts if isinstance(data, MemberTable)
             else ((data.a, data.diff),))
    d = [diff[members(a, label)] for a, diff in parts]  # no mask held
    m = sum(map(len, d))
    if m == 0:
        raise EmptyStratumError(f"empty stratum {label.code}")
    value = _fsum(d) / m
    ss = _fsum(d, lambda v: (v - value) ** 2)
    se = math.sqrt(ss / (m - 1) / m) if m > 1 else 0.0
    return EffectEstimate(value=value, se=se, n_members=m)


def tower_check(data: SubjectData, label: StratumLabel = S_TREATED,
                n_bins: int = 20) -> tuple[float, float]:
    """Compare the direct stratum mean against its grouped-mean form.

    lhs is the stratum mean of y(1) - y(0).  rhs regroups the members
    into ``n_bins`` equal-frequency bins on the baseline covariate (ties
    broken by id) and takes the mean over the concatenated bins, in exact
    arithmetic the membership-weighted average of within-bin means.  Both
    sides are exactly-rounded sums, so lhs == rhs bit-for-bit whenever the
    bins partition the members; as (x, id) order is not record order, a
    mean that depended on summation order would break the identity.
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    mask, m = _nonempty(data, label)
    if n_bins > m:
        raise ValueError(f"n_bins={n_bins} exceeds stratum size {m}")

    d = data.diff[mask]
    lhs = exact_mean(d)

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
