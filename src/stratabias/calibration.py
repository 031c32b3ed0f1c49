"""Observed-data estimators and random-split null calibration.

Two estimators of the treated-adherent stratum effect work from observed
data only (one arm per subject):

* ``estimate_naive`` - adherers-vs-adherers mean difference.  It does
  not target the stratum effect; it is the baseline comparator whose
  expectation stays 0 under a full null.
* ``estimate_plugin`` - term1 - term2 with term1 the experimental-arm
  adherer mean and term2 a marginal-adherence-weighted average of a
  fitted control-arm outcome model over all subjects.  The adherence
  weight pi(x) marginalizes the fitted sequential-logistic visit model
  over simulated intermediate paths, staying consistent with the
  generative factorization.

``split_calibrate`` implements the null-calibration idea: repeatedly
split the control arm at random into two pseudo-arms, run an estimator
on each pseudo-trial, and average.  Under a full null the pseudo-trial
is distributed exactly like a real trial of the same size, so the mean
offset recovers the estimator's null-scenario value.  The procedure
reads only control-arm data, so anything that changes adherence under
the experimental arm without touching the outcome pathway (gamma2 != 0)
is invisible to it - that regime is where the calibrated reference
stops matching the true stratum effect.

The split rounds and the plug-in estimator's bootstrap resamples run
through one replicate loop: per-replicate RNG streams, skipped failures,
and a single 10% failure limit.

The control-arm outcome model in the plug-in estimator wants outcomes
recorded regardless of adherence; when outcomes are censored at dropout
the model is fit on adherers only and inherits their selection tilt.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np
from scipy.special import expit

from .datagen import ObservedData, write_table
from .strata import S_TREATED, EffectEstimate, exact_mean

_MAX_ITER = 50
_GRAD_TOL = 1e-8
_LL_SLACK = 1e-8
_COEF_CAP = 30.0
_MIN_AT_RISK = 10
_M_PATHS = 200   # simulated intermediate paths per x-grid point
_N_GRID = 512    # x-grid points for the marginal adherence weight


class FitError(RuntimeError):
    """A working-model fit could not be completed."""


class SeparationError(FitError):
    """Quasi-separation: the likelihood has no finite maximizer."""


class EstimatorError(RuntimeError):
    """An effect estimator could not produce a value."""


class CalibrationError(RuntimeError):
    """Too many splits failed to calibrate against."""


@dataclass(frozen=True)
class VisitFit:
    """One visit's logistic fit: logit Pr(adhere) = g0 + g1*x + g3*z."""

    visit: int
    coef: tuple[float, float, float]
    se: tuple[float, float, float]
    n_at_risk: int
    loglik: float
    loglik_path: tuple[float, ...]
    iterations: int
    converged: bool


@dataclass(frozen=True)
class LogisticFit:
    """Sequential per-visit logistic fits for one arm."""

    visits: tuple[VisitFit, ...]

    @property
    def converged(self) -> bool:
        return all(v.converged for v in self.visits)


@dataclass(frozen=True)
class OutcomeFit:
    """Least-squares line for the control-arm outcome given baseline x."""

    intercept: float
    slope_x: float
    n: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope_x * x


@dataclass(frozen=True)
class SplitCalibration:
    """Null-reference offsets from repeated control-arm splits."""

    estimator: str
    R: int
    offsets: tuple[float, ...]
    mean_offset: float
    se_offset: float
    n_failed: int


def _loglik(eta: np.ndarray, r: np.ndarray) -> float:
    softplus = np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0)
    return float((r * eta).sum() - softplus.sum())


def _irls(x: np.ndarray, z: np.ndarray, r: np.ndarray, what: str):
    """Newton/IRLS fit of logit Pr(r = 1) = b0 + b1*x + b2*z.

    Returns (beta, se, loglik_path, iterations, converged).  Updates are
    accepted only when the log-likelihood does not decrease beyond
    summation roundoff (slack 1e-8 on a sum of thousands of terms), so
    the reported path is non-decreasing at float resolution; without the
    slack the line search stalls in the endgame, where full Newton steps
    still shrink the gradient but move the log-likelihood by under an ulp.
    """
    beta = np.zeros(3)
    eta = np.zeros_like(x)
    ll = _loglik(eta, r)
    path = [ll]
    converged = False
    for it in range(_MAX_ITER + 1):
        # the information at the final beta also gives the SEs
        mu = expit(eta)
        w = mu * (1.0 - mu)
        res = r - mu
        sx, sz, sxz = (w * x).sum(), (w * z).sum(), (w * x * z).sum()
        info = np.array([[w.sum(), sx, sz], [sx, (w * x * x).sum(), sxz],
                         [sz, sxz, (w * z * z).sum()]])
        grad = np.array([res.sum(), (res * x).sum(), (res * z).sum()])
        if it == _MAX_ITER or float(np.max(np.abs(grad))) <= _GRAD_TOL:
            converged = it < _MAX_ITER
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise SeparationError(
                f"quasi-separation while fitting {what}: "
                "singular information matrix") from None
        del mu, w, res  # free three columns before the line search
        for _ in range(40):
            cand = beta + step
            eta_new = cand[0] + cand[1] * x + cand[2] * z
            ll_new = _loglik(eta_new, r)
            if ll_new >= ll - _LL_SLACK:
                break
            step = 0.5 * step
        else:
            break  # no ascent direction left at float resolution
        beta, eta, ll = cand, eta_new, ll_new
        path.append(ll)
        if float(np.max(np.abs(beta))) > _COEF_CAP:
            raise SeparationError(
                f"quasi-separation while fitting {what}: "
                f"|coefficient| exceeded {_COEF_CAP:g}")
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SeparationError(
            f"quasi-separation while fitting {what}: "
            "singular information matrix at the fit") from None
    se = np.sqrt(np.diag(cov))
    return beta, se, tuple(path), len(path) - 1, converged


def fit_sequential_logistic(observed: ObservedData, arm: int) -> LogisticFit:
    """Per-visit adherence model for one arm, by maximum likelihood.

    The at-risk set for visit k is everyone still adherent after visit
    k-1, i.e. everyone whose z_k was recorded; the response is survival
    through visit k (z_{k+1} recorded, or final adherence at the last
    visit).  Within an arm any arm-level intercept shift is absorbed
    into g0.
    """
    return _fit_rows(observed, observed.t == arm, arm)[0]


def _fit_rows(observed: ObservedData, rows: np.ndarray, arm: int):
    """fit_sequential_logistic and _fit_visit_linear on the masked rows."""
    # integer gathers: several times faster than by a scattered bool mask
    idx = np.flatnonzero(rows)
    x, z, a = observed.x[idx], observed.z.take(idx, axis=0), observed.a[idx]
    visits, columns = [], []
    for k in range(observed.K):
        at_risk = np.flatnonzero(~np.isnan(z[:, k]))
        m = at_risk.size
        if m < _MIN_AT_RISK:
            raise FitError(
                f"visit {k + 1} in arm {arm}: only {m} at-risk subjects "
                f"(need >= {_MIN_AT_RISK})")
        resp = (~np.isnan(z[:, k + 1][at_risk]) if k + 1 < observed.K
                else a[at_risk] == 1)
        columns.append((x[at_risk], z[:, k][at_risk]))
        beta, se, path, iters, conv = _irls(
            *columns[-1], resp, f"visit {k + 1} in arm {arm}")
        visits.append(VisitFit(
            visit=k + 1, coef=tuple(map(float, beta)),
            se=tuple(map(float, se)), n_at_risk=m, loglik=path[-1],
            loglik_path=path, iterations=iters, converged=conv))
    return LogisticFit(visits=tuple(visits)), _fit_visit_linear(columns, arm)


def _line(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ a + b*x in centred closed form: (a, b, resid)."""
    xm, ym = float(x.mean()), float(y.mean())
    dx, dy = x - xm, y - ym
    b = float((dx * dy).sum() / (dx * dx).sum())
    dy -= b * dx
    return ym - b * xm, b, dy


def fit_outcome_baseline(observed: ObservedData, arm: int = 0) -> OutcomeFit:
    """Least squares of the observed outcome on baseline x within an arm."""
    idx = np.flatnonzero((observed.t == arm) & ~np.isnan(observed.y))
    m = idx.size
    if m < 3:
        raise FitError(f"arm {arm}: only {m} subjects with observed outcome")
    a, b, _ = _line(observed.x[idx], observed.y[idx])
    return OutcomeFit(intercept=a, slope_x=b, n=m)


def _fit_visit_linear(columns, arm: int):
    """Per-visit least-squares models z_k ~ x on the at-risk subjects."""
    models = []
    for k, (x, z) in enumerate(columns):
        m = x.shape[0]
        if m < 3:
            raise FitError(
                f"visit {k + 1} in arm {arm}: only {m} at-risk subjects")
        a, b, resid = _line(x, z)
        models.append((a, b, math.sqrt((resid * resid).sum() / (m - 2))))
    return models


def _marginal_pi(x_eval: np.ndarray, fit: LogisticFit, z_models,
                 rng: np.random.Generator) -> np.ndarray:
    """Marginal adherence probability under arm 1, as a function of x.

    The sequential model is conditional on each visit's intermediate, so
    the marginal over intermediates is not logistic; it is computed by
    simulating _M_PATHS intermediate paths from the fitted visit-level
    linear models and averaging the product of visit probabilities.  The
    average is evaluated on an x-grid spanning the data and interpolated
    to the subjects; the function is smooth in x, so grid error is
    negligible next to the path-simulation noise.
    """
    lo, hi = float(x_eval.min()), float(x_eval.max())
    grid = np.linspace(lo, hi, _N_GRID) if hi > lo else np.array([lo])
    acc = np.ones((grid.size, _M_PATHS))
    for vf, (az, bz, sz) in zip(fit.visits, z_models):
        zsim = az + bz * grid[:, None] \
            + sz * rng.standard_normal((grid.size, _M_PATHS))
        g0, g1, g3 = vf.coef
        acc *= expit(g0 + g1 * grid[:, None] + g3 * zsim)
    pi_grid = acc.mean(axis=1)
    if grid.size == 1:
        return np.full_like(x_eval, pi_grid[0])
    u = (x_eval - lo) * ((grid.size - 1) / (hi - lo))
    i = np.minimum(u.astype(np.intp), grid.size - 2)
    u -= i  # in place: x_eval can hold every subject
    u *= np.diff(pi_grid)[i]
    return np.add(u, pi_grid[i], out=u)


def _plugin_point(observed: ObservedData, rng: np.random.Generator) -> float:
    arm1_adherers = (observed.t == 1) & (observed.a == 1) \
        & ~np.isnan(observed.y)
    if not arm1_adherers.any():
        raise EstimatorError("no adherers with observed outcome in arm 1")
    term1 = exact_mean(observed.y[arm1_adherers])

    m0 = fit_outcome_baseline(observed, arm=0)
    fit, z_models = _fit_rows(observed, observed.t == 1, arm=1)
    pi = _marginal_pi(observed.x, fit, z_models, rng)
    total = float(pi.sum())
    if total <= 0.0:
        raise EstimatorError("estimated adherence probabilities sum to zero")
    term2 = float((pi * m0.predict(observed.x)).sum()) / total
    return term1 - term2


def _replicate(one: Callable[[np.random.Generator], float], seed: int,
               first: int, count: int, threads: int, name: str,
               error: type[Exception]) -> tuple[np.ndarray, int]:
    """Run ``one`` on ``count`` replicates; return (values, failed count).

    Replicate i gets the RNG stream [seed, first + i], so its value does
    not depend on ``threads``, the size of the worker pool.  Replicates
    raising FitError or EstimatorError are skipped; more than 10% of
    them failing raises ``error``.  ``name`` is the caller's parameter
    holding ``count``, for messages.
    """
    if count < 2:
        raise ValueError(f"{name} must be >= 2, got {count}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def run(i: int):
        try:
            return one(np.random.default_rng([seed, first + i])), None
        except (FitError, EstimatorError) as exc:
            return None, f"replicate {i}: {exc}"

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(run, range(count)))
    failures = [msg for _, msg in results if msg is not None]
    if len(failures) * 10 > count:
        raise error(f"{len(failures)} of {name}={count} replicates failed "
                    f"(limit 10%); first: {failures[0]}")
    return np.asarray([v for v, _ in results if v is not None]), len(failures)


def estimate_naive(observed: ObservedData) -> EffectEstimate:
    """Adherers-vs-adherers mean difference with a two-sample SE.

    Exchangeable arms make its expectation 0 regardless of selection, so
    it does not target the treated-adherent stratum effect; it is the
    comparator the calibration procedure is meant to out-perform.
    """
    sides = []
    for arm in (0, 1):
        mask = (observed.t == arm) & (observed.a == 1) \
            & ~np.isnan(observed.y)
        m = int(mask.sum())
        if m == 0:
            raise EstimatorError(
                f"no adherers with observed outcome in arm {arm}")
        y = observed.y[mask]
        sides.append((exact_mean(y), float(np.var(y, ddof=1)) if m > 1
                      else 0.0, m))
    (mean0, var0, n0), (mean1, var1, n1) = sides
    return EffectEstimate(value=mean1 - mean0,
                          se=math.sqrt(var1 / n1 + var0 / n0),
                          n_members=n0 + n1, stratum=None)


def estimate_plugin(observed: ObservedData, *, seed: int = 0,
                    n_boot: int = 200,
                    compute_se: bool = True) -> EffectEstimate:
    """Plug-in estimate of the treated-adherent stratum effect.

    term1 is the experimental-arm adherer mean.  term2 averages the
    fitted control-arm outcome line over ALL subjects, weighted by each
    subject's marginal adherence probability under arm 1 - the
    observed-data counterpart of conditioning the control response on
    adherence under the other arm.  The SE is a subject-level bootstrap
    (n_boot >= 2 resamples, run on one thread); pass compute_se=False for
    the point value alone (se is then NaN).  Resamples that fail to fit
    are skipped, raising EstimatorError when more than 10% fail.
    """
    value = _plugin_point(observed, np.random.default_rng([seed, 0]))
    se = float("nan")
    if compute_se:
        n = len(observed)

        def resample(rng: np.random.Generator) -> float:
            return _plugin_point(observed.subset(rng.integers(0, n, n)), rng)

        vals, _ = _replicate(resample, seed, 1, n_boot, 1, "n_boot",
                             EstimatorError)
        se = float(np.std(vals, ddof=1))
    return EffectEstimate(value=value, se=se, n_members=len(observed),
                          stratum=S_TREATED)


ESTIMATORS: dict[str, Callable[[ObservedData, int], float]] = {
    "naive": lambda obs, seed: estimate_naive(obs).value,
    "plugin": lambda obs, seed: estimate_plugin(
        obs, seed=seed, compute_se=False).value,
}


def split_calibrate(observed_control: ObservedData,
                    estimator: Union[str, Callable[[ObservedData, int], float]]
                    = "plugin",
                    R: int = 200, seed: int = 0,
                    threads: int = 1) -> SplitCalibration:
    """Null-calibrate an estimator by repeated control-arm splitting.

    Each of the R rounds shuffles the control subjects (id-keyed, so
    record order is irrelevant), relabels floor(n/2) of them as a
    pseudo experimental arm (the extra subject on odd counts stays
    control), and runs the estimator on the pseudo-trial.  Offsets are
    collected over rounds (R >= 2); failed rounds are recorded and
    skipped, and more than 10% failures raises CalibrationError.  Every
    round derives its RNG stream and estimator seed from (seed, round),
    so results do not depend on scheduling; rounds run on ``threads``
    (>= 1) worker threads.
    """
    if isinstance(estimator, str):
        try:
            fn = ESTIMATORS[estimator]
        except KeyError:
            raise ValueError(
                f"unknown estimator {estimator!r}; "
                f"choices: {sorted(ESTIMATORS)}") from None
        name = estimator
    else:
        fn, name = estimator, getattr(estimator, "__name__", "custom")
    if np.any(observed_control.t != 0):
        raise ValueError("split_calibrate expects control-arm records only")
    n = len(observed_control)
    if n < 4:
        raise ValueError(f"need at least 4 control subjects, got {n}")

    canon = observed_control.subset(np.argsort(observed_control.ids))
    half = n // 2

    def one(rng: np.random.Generator) -> float:
        t_new = np.zeros(n, dtype=np.int8)
        t_new[rng.permutation(n)[:half]] = 1
        est_seed = int(rng.integers(np.iinfo(np.int64).max))
        return fn(canon.relabeled(t_new), est_seed)

    arr, n_failed = _replicate(one, seed, 0, R, threads, "R",
                               CalibrationError)
    return SplitCalibration(
        estimator=name, R=R, offsets=tuple(map(float, arr)),
        mean_offset=exact_mean(arr),
        se_offset=float(np.std(arr, ddof=1)) / math.sqrt(len(arr)),
        n_failed=n_failed)


def write_calibration_csv(rows: list[tuple[str, SplitCalibration]],
                          path: str | Path) -> None:
    """Calibration report; rows are (scenario_label, calibration)."""
    cals = [cal for _, cal in rows]
    write_table(path, [("scenario_label", [label for label, _ in rows])]
                + [(name, [getattr(c, name) for c in cals])
                   for name in ("estimator", "R", "mean_offset", "se_offset")]
                + [("n_failed_splits", [c.n_failed for c in cals])])


def write_fit_csv(fit: LogisticFit, path: str | Path) -> None:
    """Per-visit coefficient dump for a sequential logistic fit."""
    vs = fit.visits
    coef, se = np.array([v.coef for v in vs]), np.array([v.se for v in vs])
    write_table(path, [("visit", [v.visit for v in vs])]
                + [(f"g{j}", coef[:, i]) for i, j in enumerate("013")]
                + [(f"se_g{j}", se[:, i]) for i, j in enumerate("013")]
                + [(name, [getattr(v, name) for v in vs]) for name in
                   ("n_at_risk", "loglik", "iterations", "converged")])
