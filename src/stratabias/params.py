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
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Mapping


class ParamError(ValueError):
    """A scenario document failed validation; the message names the key."""


_VECTOR_KEYS = ("alpha0", "alpha1", "alpha2", "beta3", "gamma3")

_SCALAR_KEYS = (
    "mu_x", "sigma_x", "beta0", "beta1", "beta2",
    "sigma_eta", "sigma_eps", "gamma0", "gamma1", "gamma2", "p_treat",
)


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
        for f in fields(self):
            v = getattr(self, f.name)
            vals = v if f.name in _VECTOR_KEYS else (v,)
            if not all(map(math.isfinite, vals)):
                raise ParamError(f"{f.name} must be finite, got {v!r}")
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
        for name in _VECTOR_KEYS:
            vec = getattr(self, name)
            if len(vec) != self.K:
                raise ParamError(f"{name} length {len(vec)} != K={self.K}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class ScenarioConfig:
    """A ModelParams plus the run-level knobs of one scenario."""

    params: ModelParams
    n: int
    seed: int
    label: str = "unnamed"

    def __post_init__(self):
        if self.n < 2:
            raise ParamError("n must be >= 2")
        if not 0 <= self.seed < 2**64:
            raise ParamError("seed must be a 64-bit unsigned integer")
        if not isinstance(self.label, str):
            raise ParamError(f"label must be a string, got {self.label!r}")

    def to_dict(self) -> dict[str, Any]:
        out = self.params.to_dict()
        out.update(n=self.n, seed=self.seed, label=self.label)
        return out


def _require_number(raw: Mapping[str, Any], key: str) -> float:
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParamError(f"{key} must be a number, got {v!r}")
    return float(v)


def _require_vector(raw: Mapping[str, Any], key: str, k: int) -> tuple[float, ...]:
    v = raw[key]
    if not isinstance(v, (list, tuple)):
        raise ParamError(f"{key} must be an array of length K={k}")
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
        raise ParamError(f"{key} entries must be numbers, got {v!r}")
    return tuple(float(x) for x in v)


def validate(raw: Mapping[str, Any]) -> ModelParams:
    """Validate a parsed key-value document into a ModelParams.

    Optional keys (gamma2, K, p_treat) take their documented defaults.
    Raises :class:`ParamError` naming the offending key for a missing
    required key, a wrong-length vector, an out-of-range value, or an
    unknown key.
    """
    known = {f.name for f in fields(ModelParams)}
    unknown = set(raw) - known
    if unknown:
        raise ParamError(f"unknown key(s): {', '.join(sorted(unknown))}")

    doc = {f.name: f.default for f in fields(ModelParams)
           if f.default is not MISSING}
    doc.update(raw)

    missing = known - set(doc)
    if missing:
        raise ParamError(f"missing required key(s): {', '.join(sorted(missing))}")

    k = doc["K"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise ParamError(f"K must be an integer, got {k!r}")

    kwargs: dict[str, Any] = {"K": k}
    for key in _SCALAR_KEYS:
        kwargs[key] = _require_number(doc, key)
    for key in _VECTOR_KEYS:
        kwargs[key] = _require_vector(doc, key, k)
    return ModelParams(**kwargs)


def load_scenario(source: str | Path | Mapping[str, Any]) -> ScenarioConfig:
    """Load a scenario from a JSON file path or an already-parsed mapping.

    The document holds the ModelParams keys plus n, seed and optionally
    label.  Unknown keys fail validation.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ParamError("scenario file must contain a JSON object")
    else:
        raw = dict(source)

    scenario_keys = {"n", "seed", "label"}
    param_doc = {k: v for k, v in raw.items() if k not in scenario_keys}
    params = validate(param_doc)

    for key in ("n", "seed"):
        if key not in raw:
            raise ParamError(f"missing required key(s): {key}")
    n = raw["n"]
    seed = raw["seed"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParamError(f"n must be an integer, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParamError(f"seed must be an integer, got {seed!r}")
    label = {"label": raw["label"]} if "label" in raw else {}
    return ScenarioConfig(params=params, n=n, seed=seed, **label)


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


def is_full_null(params: ModelParams) -> bool:
    """True iff treatment has no effect on any generated variable.

    Requires every treatment coefficient to vanish: the intermediate
    effects alpha2, the direct outcome effect beta2, and the adherence
    shift gamma2.
    """
    return (all(a == 0.0 for a in params.alpha2)
            and params.beta2 == 0.0
            and params.gamma2 == 0.0)


def is_outcome_null(params: ModelParams) -> bool:
    """True iff treatment has no effect on the outcome pathway.

    alpha2 = 0 and beta2 = 0; gamma2 may be nonzero (adherence-only
    treatment effect).  This is the validity domain of the closed-form
    stratum-effect integral.
    """
    return all(a == 0.0 for a in params.alpha2) and params.beta2 == 0.0


def sufficient_condition_holds(params: ModelParams) -> bool:
    """Structural check that selection cannot bias the stratum effect.

    True iff the outcome does not load on the intermediates (beta3 = 0),
    or adherence does not (gamma3 = 0), or the intermediate noise is
    degenerate (sigma_eta = 0).  Any of these makes the treatment
    contrast conditionally independent of adherence given baseline, which
    forces a zero stratum effect under the null.
    """
    return (all(b == 0.0 for b in params.beta3)
            or all(g == 0.0 for g in params.gamma3)
            or params.sigma_eta == 0.0)
