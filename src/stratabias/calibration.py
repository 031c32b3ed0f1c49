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
  over the intermediates by Gauss-Hermite quadrature, so the point
  value is a deterministic function of the data.

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
from typing import Callable

import numpy as np
from scipy.special import expit

from .datagen import ObservedData, write_table
from .quadrature import gauss_hermite_normal
from .strata import S_TREATED, EffectEstimate, exact_mean

_MAX_ITER = 50
_GRAD_TOL = 1e-8
_LL_SLACK = 1e-8
_COEF_CAP = 30.0
_MIN_AT_RISK = 10
_PI_NODES = 64   # Gauss-Hermite nodes per visit factor of pi(x)
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
    """One visit's logistic fit: logit Pr(adhere) = g0 + g1*x + g3*z,
    and the least-squares line z ~ x on the same at-risk subjects."""

    visit: int
    coef: tuple[float, float, float]
    se: tuple[float, float, float]
    n_at_risk: int
    loglik_path: tuple[float, ...]
    converged: bool
    z_line: tuple[float, float, float]  # (intercept, slope_x, residual_sd)

    @property
    def loglik(self) -> float:
        return self.loglik_path[-1]

    @property
    def iterations(self) -> int:
        return len(self.loglik_path) - 1


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
    into g0.  Each visit's ``z_line`` is fitted on the same at-risk
    subjects.
    """
    # integer gathers: several times faster than by a scattered bool mask
    idx = np.flatnonzero(observed.t == arm)
    x, z, a = observed.x[idx], observed.z.take(idx, axis=0), observed.a[idx]
    visits = []
    for k in range(observed.K):
        what = f"visit {k + 1} in arm {arm}"
        at_risk = np.flatnonzero(~np.isnan(z[:, k]))
        m = at_risk.size
        if m < _MIN_AT_RISK:
            raise FitError(f"{what}: only {m} at-risk subjects "
                           f"(need >= {_MIN_AT_RISK})")
        resp = (~np.isnan(z[:, k + 1][at_risk]) if k + 1 < observed.K
                else a[at_risk] == 1)
        xk, zk = x[at_risk], z[:, k][at_risk]
        beta, se, path, _, conv = _irls(xk, zk, resp, what)
        visits.append(VisitFit(
            visit=k + 1, coef=tuple(map(float, beta)),
            se=tuple(map(float, se)), n_at_risk=m, loglik_path=path,
            converged=conv, z_line=_line(xk, zk, f"z line of {what}")))
    return LogisticFit(visits=tuple(visits))


def _line(x: np.ndarray, y: np.ndarray, what: str):
    """Least-squares line y ~ a + b*x in centred closed form:
    (a, b, residual SD).  x with no spread raises FitError for ``what``."""
    if x.min() == x.max():
        raise FitError(f"{what}: every x equals {float(x[0])!r}, "
                       "so the slope is undefined")
    xm, ym = float(x.mean()), float(y.mean())
    dx, dy = x - xm, y - ym
    b = float((dx * dy).sum() / (dx * dx).sum())
    dy -= b * dx
    return ym - b * xm, b, math.sqrt((dy * dy).sum() / (len(x) - 2))


def fit_outcome_baseline(observed: ObservedData, arm: int = 0) -> OutcomeFit:
    """Least squares of the observed outcome on baseline x within an arm."""
    idx = np.flatnonzero((observed.t == arm) & ~np.isnan(observed.y))
    m = idx.size
    if m < 3:
        raise FitError(f"arm {arm}: only {m} subjects with observed outcome")
    a, b, _ = _line(observed.x[idx], observed.y[idx],
                    f"outcome line in arm {arm}")
    return OutcomeFit(intercept=a, slope_x=b, n=m)


def _marginal_pi(x_eval: np.ndarray, fit: LogisticFit) -> np.ndarray:
    """Marginal adherence probability under arm 1, as a function of x.

    The fitted model draws visit k's intermediate independently given x,
    Z_k ~ N(az + bz*x, sz^2) from its ``z_line``, so pi(x) is
    prod_k E[expit(g0 + g1*x + g3*Z_k)]: one Gaussian integral per
    visit, each by a _PI_NODES-node Gauss-Hermite rule.  A factor's
    absolute error is below 1e-15 for |g3*sz| <= 1, 1e-10 at 2 and 6e-6
    at 4 (intercepts in [-12, 12], against adaptive quadrature).  pi is
    evaluated on an x-grid spanning the data and interpolated linearly
    to the subjects.  ``x_eval`` always has spread: ``_plugin_point``
    fits the arm-0 outcome line on a subset of it first, and ``_line``
    raises FitError when every x is equal.
    """
    lo, hi = float(x_eval.min()), float(x_eval.max())
    grid = np.linspace(lo, hi, _N_GRID)
    xi, w = gauss_hermite_normal(0.0, 1.0, _PI_NODES)
    pi_grid = np.ones(grid.size)
    for vf in fit.visits:
        (g0, g1, g3), (az, bz, sz) = vf.coef, vf.z_line
        eta = (g0 + g3 * az) + (g1 + g3 * bz) * grid[:, None] + g3 * sz * xi
        # a numpy sum, not ``@``: BLAS would tie pi to its thread count
        pi_grid *= (expit(eta) * w).sum(axis=1)
    u = (x_eval - lo) * ((grid.size - 1) / (hi - lo))
    i = np.minimum(u.astype(np.intp), grid.size - 2)
    u -= i  # in place: x_eval can hold every subject
    u *= np.diff(pi_grid)[i]
    return np.add(u, pi_grid[i], out=u)


def _adherer_outcomes(observed: ObservedData, arm: int) -> np.ndarray:
    """Observed outcomes of ``arm``'s adherers; none is an EstimatorError."""
    y = observed.y[(observed.t == arm) & (observed.a == 1)
                   & ~np.isnan(observed.y)]
    if y.size == 0:
        raise EstimatorError(f"no adherers with observed outcome in arm {arm}")
    return y


def _plugin_point(observed: ObservedData) -> float:
    term1 = exact_mean(_adherer_outcomes(observed, 1))

    m0 = fit_outcome_baseline(observed, arm=0)
    fit = fit_sequential_logistic(observed, arm=1)
    pi = _marginal_pi(observed.x, fit)
    total = float(pi.sum())
    if total <= 0.0:
        raise EstimatorError("estimated adherence probabilities sum to zero")
    term2 = float((pi * m0.predict(observed.x)).sum()) / total
    return term1 - term2


def _replicate(one: Callable[[np.random.Generator], float], seed: int,
               count: int, threads: int, name: str,
               error: type[Exception]) -> tuple[np.ndarray, int]:
    """Run ``one`` on ``count`` replicates; return (values, failed count).

    Replicate i gets the RNG stream [seed, i], so its value does not
    depend on ``threads``, the size of the worker pool.  Replicates
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
            return one(np.random.default_rng([seed, i])), None
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
        y = _adherer_outcomes(observed, arm)
        sides.append((exact_mean(y), float(np.var(y, ddof=1)) if y.size > 1
                      else 0.0, y.size))
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
    subject's marginal adherence probability under arm 1 (by quadrature,
    see ``_marginal_pi``) - the observed-data counterpart of conditioning
    the control response on adherence under the other arm.  ``seed``
    drives only the SE, a subject-level bootstrap whose resample b draws
    from the RNG stream [seed, b] (n_boot >= 2 resamples, one thread);
    compute_se=False gives the point value alone (se is NaN).  Resamples
    that fail to fit are skipped; more than 10% raises EstimatorError.
    """
    value = _plugin_point(observed)
    se = float("nan")
    if compute_se:
        n = len(observed)
        vals, _ = _replicate(
            lambda rng: _plugin_point(observed.subset(rng.integers(0, n, n))),
            seed, n_boot, 1, "n_boot", EstimatorError)
        se = float(np.std(vals, ddof=1))
    return EffectEstimate(value=value, se=se, n_members=len(observed),
                          stratum=S_TREATED)


# "plugin" looks up ``_plugin_point`` per call, so a patched one is what runs
ESTIMATORS: dict[str, Callable[[ObservedData], float]] = {
    "naive": lambda obs: estimate_naive(obs).value,
    "plugin": lambda obs: _plugin_point(obs),
}


def split_calibrate(observed_control: ObservedData,
                    estimator: str | Callable[[ObservedData], float]
                    = "plugin",
                    R: int = 200, seed: int = 0,
                    threads: int = 1) -> SplitCalibration:
    """Null-calibrate an estimator by repeated control-arm splitting.

    Each of the R rounds shuffles the control subjects (id-keyed, so
    record order is irrelevant), relabels floor(n/2) of them as a
    pseudo experimental arm (the extra subject on odd counts stays
    control), and runs the estimator ``(obs) -> float`` on the
    pseudo-trial.  Offsets are collected over rounds (R >= 2); failed
    rounds are recorded and skipped, and more than 10% failures raises
    CalibrationError.  A round's one random draw is its split, from the
    RNG stream [seed, round] (the plug-in's pi(x) is a Gauss-Hermite
    quadrature), so results do not depend on scheduling; rounds run on
    ``threads`` (>= 1) worker threads.
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
        return fn(canon.relabeled(t_new))

    arr, n_failed = _replicate(one, seed, R, threads, "R", CalibrationError)
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
