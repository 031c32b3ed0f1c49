"""Model parameters and scenario configuration.

A trial simulation is driven by a single immutable :class:`ModelParams`
holding every coefficient of the generative model (baseline covariate,
intermediate outcomes, final outcome, sequential adherence) plus the
scenario-level knobs in :class:`ScenarioConfig` (sample size, seed,
label).

Scenario files are flat JSON objects whose keys are exactly the field
names below; unknown keys are rejected so a typo cannot silently fall
back to a default.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Mapping


class ParamError(ValueError):
    """A scenario document failed validation; the message names the key."""


_VECTOR = "tuple[float, ...]"  # the declared type of a per-visit field
# declared field type -> (accepted Python types, their name in messages)
_TYPES = {"int": (int, "an integer"), "str": (str, "a string"),
          "float": ((int, float), "a number"),
          _VECTOR: ((list, tuple), "an array")}


def _coerce(name: str, kind: str, value: Any) -> Any:
    """``value`` checked against its field's declared type ``kind`` and
    converted: a number to a finite float, an array to a tuple of them.
    The one owner of the type, float-range and finiteness messages."""
    if kind not in _TYPES:
        return value  # a nested dataclass, checked by its own __post_init__
    want, noun = _TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, want):
        raise ParamError(f"{name} must be {noun}, got {value!r}")
    if kind == _VECTOR:
        return tuple(_coerce(f"{name}[{i}]", "float", v)
                     for i, v in enumerate(value))
    if kind != "float":
        return value
    try:
        value = float(value)
    except OverflowError:  # float() of a JSON integer beyond float range
        raise ParamError(f"{name} is beyond float range") from None
    if not math.isfinite(value):
        raise ParamError(f"{name} must be finite, got {value!r}")
    return value


def _coerce_fields(obj) -> None:
    """Coerce every field of a frozen dataclass by its declared type."""
    for f in fields(obj):
        object.__setattr__(obj, f.name,
                           _coerce(f.name, f.type, getattr(obj, f.name)))


@dataclass(frozen=True)
class ModelParams:
    """All coefficients of the generative model.

    Vectors are indexed by intermediate visit ``k = 1..K`` and stored as
    tuples so instances are hashable and safe to share across threads.

    mu_x, sigma_x            mean / SD of the baseline covariate
    alpha0, alpha1, alpha2   intermediate-outcome intercepts, baseline
                             slopes, and treatment effects (length K)
    beta0, beta1, beta2      outcome intercept, baseline slope, direct
                             treatment effect
    beta3                    outcome loadings on the intermediates (length K)
    sigma_eta, sigma_eps     SDs of the intermediate / outcome noise
    gamma0, gamma1           adherence-logit intercept and baseline slope
    gamma2                   direct treatment shift of the adherence logit
                             (extension knob, default 0: the base model has
                             no such term; nonzero realizes a partial null
                             where treatment moves adherence but not outcome)
    gamma3                   adherence-logit loadings on the intermediates
    K                        number of intermediate visits
    p_treat                  treatment-assignment probability
    """

    mu_x: float
    sigma_x: float
    alpha0: tuple[float, ...]
    alpha1: tuple[float, ...]
    alpha2: tuple[float, ...]
    beta0: float
    beta1: float
    beta2: float
    beta3: tuple[float, ...]
    sigma_eta: float
    sigma_eps: float
    gamma0: float
    gamma1: float
    gamma3: tuple[float, ...]
    gamma2: float = 0.0
    K: int = 3
    p_treat: float = 0.5

    def __post_init__(self):
        _coerce_fields(self)
        if self.K < 1:
            raise ParamError("K must be >= 1")
        if not self.sigma_x > 0:
            raise ParamError("sigma_x must be > 0")
        if self.sigma_eta < 0:
            raise ParamError("sigma_eta must be >= 0")
        if self.sigma_eps < 0:
            raise ParamError("sigma_eps must be >= 0")
        if not 0.0 < self.p_treat < 1.0:
            raise ParamError("p_treat must be in (0, 1)")
        for f in fields(self):
            vec = getattr(self, f.name)
            if f.type == _VECTOR and len(vec) != self.K:
                raise ParamError(f"{f.name} length {len(vec)} != K={self.K}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A ModelParams plus the run-level knobs of one scenario."""

    params: ModelParams
    n: int
    seed: int
    label: str = "unnamed"

    def __post_init__(self):
        _coerce_fields(self)
        if self.n < 2:
            raise ParamError("n must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise ParamError("seed must be a 64-bit unsigned integer")

    def to_dict(self) -> dict[str, Any]:
        """The flat scenario document, ModelParams keys first."""
        doc = asdict(self)
        return {**doc.pop("params"), **doc}


def _fill(raw: Mapping[str, Any], schema) -> dict[str, Any]:
    """``raw`` with the defaults of the fields ``schema`` filled in; an
    unknown or a missing key raises ParamError naming it."""
    known = {f.name for f in schema}
    unknown = set(raw) - known
    if unknown:
        raise ParamError(f"unknown key(s): {', '.join(sorted(unknown))}")
    doc = {f.name: f.default for f in schema if f.default is not MISSING}
    doc.update(raw)
    missing = known - set(doc)
    if missing:
        raise ParamError(f"missing required key(s): {', '.join(sorted(missing))}")
    return doc


def validate(raw: Mapping[str, Any]) -> ModelParams:
    """Validate a parsed key-value document into a ModelParams.

    The keys are the field names; a field with a default may be left
    out.  A missing or unknown key, a wrong type or length, or an
    out-of-range value raises :class:`ParamError` naming the key.
    """
    return ModelParams(**_fill(raw, fields(ModelParams)))


def load_scenario(source: str | Path | Mapping[str, Any]) -> ScenarioConfig:
    """Load a scenario from a JSON file path or an already-parsed mapping.

    The document is one flat object holding the ModelParams fields and
    the run-level ScenarioConfig fields, checked as in :func:`validate`.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ParamError("scenario file must contain a JSON object")
    else:
        raw = dict(source)

    run_fields = [f for f in fields(ScenarioConfig) if f.name != "params"]
    doc = _fill(raw, [*fields(ModelParams), *run_fields])
    run = {f.name: doc.pop(f.name) for f in run_fields}
    return ScenarioConfig(params=ModelParams(**doc), **run)


def dump_scenario(config: ScenarioConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2)
        fh.write("\n")


def bundled_scenario_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files("stratabias") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir()
                  if p.name.endswith(".json"))


def load_bundled(name: str) -> ScenarioConfig:
    """Load one of the bundled scenarios by name (without .json)."""
    path = resources.files("stratabias") / "scenarios" / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ParamError(
            f"no bundled scenario {name!r}; "
            f"available: {bundled_scenario_names()}") from None
    return load_scenario(json.loads(text))


def is_outcome_null(params: ModelParams) -> bool:
    """True iff treatment has no effect on the outcome pathway.

    alpha2 = 0 and beta2 = 0; gamma2 may be nonzero (adherence-only
    treatment effect).  There the patient-level effect is 0, so the
    stratum effect is the null reference that split calibration is
    judged against (``cli._calibration``'s verdict).
    """
    return all(a == 0.0 for a in params.alpha2) and params.beta2 == 0.0
