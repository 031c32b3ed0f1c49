"""Observed-data estimators and random-split null calibration.

Two estimators of the treated-adherent stratum effect work from observed
data only (one arm per subject):

* ``estimate_naive`` - adherers-vs-adherers mean difference.  It does
  not target the stratum effect; it is the baseline comparator whose
  expectation stays 0 under a full null.
* ``estimate_plugin`` - term1 - term2: the arm-1 adherer mean minus the
  outcome line fitted on arm 0 at xbar_pi, the mean of x over all
  subjects with weight pi(x), adherence under the visit model fitted on
  arm 1 with the intermediates marginalized by Gauss-Hermite quadrature.
  Its SE is an influence-function sandwich: both are deterministic.

``split_calibrate`` implements the null-calibration idea: repeatedly
split the control arm at random into two pseudo-arms, run an estimator
on each pseudo-trial, and average.  Under a full null the pseudo-trial
is distributed exactly like a real trial of the same size, so the mean
offset recovers the estimator's null-scenario value.  The procedure
reads only control-arm data, so anything that changes adherence under
the experimental arm without touching the outcome pathway (gamma2 != 0)
is invisible to it - that regime is where the calibrated reference
stops matching the true stratum effect.

The arm-0 outcome line wants outcomes recorded regardless of adherence;
when outcomes are censored at dropout it is fit on adherers only and
inherits their selection tilt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .datagen import ObservedData, thread_map, write_table
from .quadrature import gauss_hermite_normal, visit_product
from .strata import EffectEstimate, exact_mean

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


@dataclass(frozen=True, eq=False)
class LogisticFit:
    """Sequential per-visit fits of arm 1, one row or entry per visit.

    ``model`` holds ``visit_product``'s rows (g0, g1, g3, az, bz, sz):
    logit Pr(adhere) = g0 + g1*x + g3*z, and the least-squares line
    z ~ az + bz*x with residual SD sz on the same at-risk subjects.
    ``se`` holds the SEs of (g0, g1, g3).  Both arrays are read-only,
    as the split rounds share one fit."""

    model: np.ndarray  # (K, 6)
    se: np.ndarray  # (K, 3)
    n_at_risk: tuple[int, ...]
    loglik_paths: tuple[tuple[float, ...], ...]
    converged: tuple[bool, ...]


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
    # softplus(eta) = log1p(exp(-|eta|)) + max(eta, 0), built in place
    softplus = np.abs(eta)
    np.negative(softplus, out=softplus)
    np.exp(softplus, out=softplus)
    np.log1p(softplus, out=softplus)
    softplus += np.maximum(eta, 0.0)
    return float((r * eta).sum() - softplus.sum())


def _irls(x: np.ndarray, z: np.ndarray, r: np.ndarray, what: str,
          start=None):
    """Newton/IRLS fit of logit Pr(r = 1) = b0 + b1*x + b2*z.

    Returns (beta, se, loglik_path, iterations, converged).  Newton starts
    from ``start`` (b0, b1, b2) when given, else from 0, and the path from
    the log-likelihood there.  Updates are accepted only when the
    log-likelihood does not decrease beyond summation roundoff (slack
    1e-8 on a sum of thousands of terms), so the reported path is
    non-decreasing at float resolution; without the slack the line search
    stalls in the endgame, where full Newton steps still shrink the
    gradient but move the log-likelihood by under an ulp.
    """
    if r.all() or not r.any():
        raise SeparationError(f"quasi-separation while fitting {what}: "
                              "every response is the same")
    # imported here, not at module level, so import stratabias loads no scipy
    from scipy.special import expit
    beta = np.zeros(3) if start is None else np.array(start, dtype=float)
    eta = beta[0] + beta[1] * x + beta[2] * z  # +0.0 throughout at beta = 0
    ll = _loglik(eta, r)
    path = [ll]
    converged = False
    for it in range(_MAX_ITER + 1):
        # the information at the final beta also gives the SEs
        mu = expit(eta)
        w = 1.0 - mu
        w *= mu
        res = np.subtract(r, mu, out=mu)
        wx = w * x  # numpy forms w*x*x as (w*x)*x: the same bits
        sx, sxx, sxz = wx.sum(), (wx * x).sum(), (wx * z).sum()
        del wx
        wz = w * z
        sz, szz = wz.sum(), (wz * z).sum()
        del wz
        info = np.array([[w.sum(), sx, sz], [sx, sxx, sxz],
                         [sz, sxz, szz]])
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
        del mu, w, res  # free two columns before the line search
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


def fit_sequential_logistic(observed: ObservedData,
                            start: LogisticFit | None = None) -> LogisticFit:
    """Per-visit adherence model of arm 1 by maximum likelihood: the
    plug-in's visit model (its outcome line is fitted on arm 0).

    The at-risk set for visit k is everyone still adherent after visit
    k-1, i.e. everyone whose z_k was recorded; the response is survival
    through visit k (z_{k+1} recorded, or final adherence at the last
    visit).  The arm's intercept shift is absorbed into g0.  Each
    visit's z line is fitted on the same at-risk subjects.
    ``start``, a fit with the same visits, gives each visit's Newton
    starting point; without it Newton starts from 0.
    """
    visits = []
    for k, (what, at_risk, xk, zk, resp) in enumerate(_visits(observed)):
        guess = None if start is None else start.model[k, :3]
        beta, se, path, _, conv = _irls(xk, zk, resp, what, guess)
        visits.append(((*beta, *_line(xk, zk, f"z line of {what}")), se,
                       at_risk.size, path, conv))
    model, se, n_at_risk, paths, converged = zip(*visits)
    model, se = np.array(model), np.array(se)
    model.setflags(write=False)
    se.setflags(write=False)
    return LogisticFit(model, se, n_at_risk, paths, converged)


def _visits(observed: ObservedData):
    """Yield (what, at_risk, x, z_k, response) per visit of arm 1."""
    # integer gathers: several times faster than by a scattered bool mask
    idx = np.flatnonzero(observed.t == 1)
    x, z, a = observed.x[idx], observed.z.take(idx, axis=0), observed.a[idx]
    for k in range(observed.K):
        what = f"visit {k + 1} in arm 1"
        at_risk = np.flatnonzero(~np.isnan(z[:, k]))
        if at_risk.size < _MIN_AT_RISK:
            raise FitError(f"{what}: only {at_risk.size} at-risk subjects "
                           f"(need >= {_MIN_AT_RISK})")
        resp = (~np.isnan(z[:, k + 1][at_risk]) if k + 1 < observed.K
                else a[at_risk] == 1)
        yield what, at_risk, x[at_risk], z[:, k][at_risk], resp


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


def _marginal_pi(x_eval: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Marginal adherence probability under arm 1, as a function of x.

    ``params`` is the fitted arm-1 visit model in ``visit_product``'s
    rows, ``LogisticFit.model``, and pi(x) is their ``visit_product`` on
    a _PI_NODES-node rule.  A factor's absolute error is below 1e-15 for
    |g3*sz| <= 1, 1e-10 at 2 and 6e-6 at 4 (intercepts in [-12, 12],
    against adaptive quadrature).  pi is
    evaluated on an x-grid spanning the data and interpolated linearly
    to the subjects.  ``x_eval`` always has spread: ``_plugin_fit``
    fits the arm-0 outcome line on a subset of it first, and ``_line``
    raises FitError when every x is equal.
    """
    lo, hi = float(x_eval.min()), float(x_eval.max())
    grid = np.linspace(lo, hi, _N_GRID)
    xi, w = gauss_hermite_normal(0.0, 1.0, _PI_NODES)
    pi_grid = visit_product(params, grid, xi, w)
    u = (x_eval - lo) * ((grid.size - 1) / (hi - lo))
    i = np.minimum(u.astype(np.intp), grid.size - 2)
    u -= i  # in place: x_eval can hold every subject
    u *= np.diff(pi_grid)[i]
    return np.add(u, pi_grid[i], out=u)


def _adherers(observed: ObservedData, arm: int) -> np.ndarray:
    """Mask of ``arm``'s adherers with an outcome; none is an EstimatorError."""
    rows = (observed.t == arm) & (observed.a == 1) & ~np.isnan(observed.y)
    if not rows.any():
        raise EstimatorError(f"no adherers with observed outcome in arm {arm}")
    return rows


def _outcome_rows(observed: ObservedData) -> np.ndarray:
    """Arm-0 rows with an observed outcome; fewer than 3 is a FitError."""
    rows = np.flatnonzero((observed.t == 0) & ~np.isnan(observed.y))
    if rows.size < 3:
        raise FitError(f"arm 0: only {rows.size} subjects with observed outcome")
    return rows


def _plugin_fit(observed: ObservedData, start: LogisticFit | None = None):
    """One fitting pass of the plug-in: (term1, a0, b0, xbar, pi, params).
    term2 is the arm-0 line a0 + b0*x (``_outcome_rows``) at xbar, the
    mean x under the marginal adherence weights pi of ``_marginal_pi``'s
    arm-1 visit model params; ``start`` warm-starts that fit."""
    term1 = exact_mean(observed.y[_adherers(observed, 1)])

    x, y = observed.x, observed.y
    rows0 = _outcome_rows(observed)
    a0, b0, _ = _line(x[rows0], y[rows0], "outcome line in arm 0")
    del rows0  # not held through the fits, which set a round's peak memory
    params = fit_sequential_logistic(observed, start=start).model
    pi = _marginal_pi(x, params)
    total = float(pi.sum())
    if total <= 0.0:
        raise EstimatorError("estimated adherence probabilities sum to zero")
    return term1, a0, b0, float((pi * x).sum()) / total, pi, params


def _plugin_point(observed: ObservedData,
                  start: LogisticFit | None = None) -> float:
    """The plug-in point value; ``start`` warm-starts the arm-1 fit."""
    term1, a0, b0, xbar, *_ = _plugin_fit(observed, start)
    return term1 - (a0 + b0 * xbar)


def estimate_naive(observed: ObservedData) -> EffectEstimate:
    """Adherers-vs-adherers mean difference with a two-sample SE.

    Exchangeable arms make its expectation 0 regardless of selection, so
    it does not target the treated-adherent stratum effect; it is the
    comparator the calibration procedure is meant to out-perform.
    """
    sides = []
    for arm in (0, 1):
        y = observed.y[_adherers(observed, arm)]
        sides.append((exact_mean(y), float(np.var(y, ddof=1)) if y.size > 1
                      else 0.0, y.size))
    (mean0, var0, n0), (mean1, var1, n1) = sides
    return EffectEstimate(value=mean1 - mean0,
                          se=math.sqrt(var1 / n1 + var0 / n0),
                          n_members=n0 + n1)


def estimate_plugin(observed: ObservedData) -> EffectEstimate:
    """Plug-in estimate of the treated-adherent stratum effect.

    term1 is the arm-1 adherer mean.  term2 is the fitted arm-0 outcome
    line a0 + b0*x at xbar, the mean x of ALL subjects weighted by each
    one's marginal adherence probability under arm 1 (by quadrature, see
    ``_marginal_pi``) - the observed-data counterpart of conditioning
    the control response on adherence under the other arm.  The SE is
    sqrt(sum psi_i^2)/n, psi_i subject i's influence: term1's and xbar's
    ratio terms, and each fit's influence times term2's gradient in it.
    """
    from scipy.special import expit  # here for the reason given in _irls
    term1, a0, b0, xbar, pi, params = _plugin_fit(observed)
    x, y = observed.x, observed.y
    rows1, rows0 = _adherers(observed, 1), _outcome_rows(observed)
    infl = np.where(rows1, y - term1, 0.0) / rows1.sum()  # psi/n

    def xbar_at(j: int, h: float) -> float:  # xbar at params[j] + h
        p = params.copy()
        p.flat[j] += h
        pi_h = _marginal_pi(x, p)
        return float((pi_h * x).sum()) / float(pi_h.sum())

    def fitted(rows, cols, res, w, grad) -> None:
        """infl -= grad . info^-1 x score, for the fit sum(col * res) = 0."""
        info = np.array([[(w * u * v).sum() for v in cols] for u in cols])
        c = np.linalg.solve(info, grad)
        infl[rows] -= res * sum(ci * u for ci, u in zip(c, cols))

    infl -= b0 * pi * (x - xbar) / float(pi.sum())
    # d term2 / d(a0, b0) = (1, xbar); d term2 / d params = b0 d xbar
    fitted(rows0, (np.ones(rows0.size), x[rows0]),
           y[rows0] - (a0 + b0 * x[rows0]), 1.0, (1.0, xbar))
    steps = 1e-5 * np.maximum(1.0, np.abs(params.ravel()))  # central diffs
    grad = b0 * np.reshape([(xbar_at(j, h) - xbar_at(j, -h)) / (2.0 * h)
                            for j, h in enumerate(steps)], params.shape)
    arm1 = np.flatnonzero(observed.t == 1)
    for (_, at_risk, xk, zk, resp), p, g in zip(_visits(observed), params,
                                                grad):
        rows, cols = arm1[at_risk], (np.ones(at_risk.size), xk, zk)
        mu = expit(p[0] + p[1] * xk + p[2] * zk)
        fitted(rows, cols, resp - mu, mu * (1.0 - mu), g[:3])
        e = zk - (p[3] + p[4] * xk)  # the z line: OLS, then its SD
        fitted(rows, cols[:2], e, 1.0, g[3:5])
        infl[rows] -= g[5] * (e * e - p[5] ** 2) / (2 * p[5] * (rows.size - 2))
    return EffectEstimate(value=term1 - (a0 + b0 * xbar),
                          se=math.sqrt((infl * infl).sum()),
                          n_members=len(observed))


# "plugin" looks up ``_plugin_point`` per call, so a patched one is what
# runs; it also takes the warm start that ``split_calibrate`` passes it
ESTIMATORS: dict[str, Callable[..., float]] = {
    "naive": lambda obs: estimate_naive(obs).value,
    "plugin": lambda obs, start=None: _plugin_point(obs, start),
}


def _split_start(canon: ObservedData) -> LogisticFit:
    """The plug-in split rounds' warm start: the arm-1 visit fit with the
    even id ranks of the id-ordered control arm ``canon`` as pseudo arm 1,
    about half the arm like a round.  It draws nothing, so offsets do not
    depend on threads or record order; warm and cold fits reach the same
    maximum to the gradient tolerance, so they differ in the last digits."""
    t_start = np.zeros(len(canon), dtype=np.int8)
    t_start[::2] = 1
    return fit_sequential_logistic(canon.relabeled(t_start))


def check_rounds(R: int) -> None:
    """Refuse a ``split_calibrate`` round count that needs no data to
    refuse: R < 2.  ``thread_map`` refuses threads < 1."""
    if R < 2:
        raise ValueError(f"R must be >= 2, got {R}")


def split_calibrate(observed_control: ObservedData,
                    estimator: str = "plugin",
                    R: int = 200, seed: int = 0,
                    threads: int = 1) -> SplitCalibration:
    """Null-calibrate an estimator by repeated control-arm splitting.

    Each of the R (>= 2) rounds shuffles the control subjects (id-keyed,
    so record order is irrelevant), relabels floor(n/2) of them as a
    pseudo experimental arm (the extra subject on odd counts stays
    control), and runs the ``ESTIMATORS`` entry ``estimator`` on the
    pseudo-trial.  Round i's one random draw is its split, from the RNG
    stream [seed, i], so offsets do not depend on the ``threads`` (>= 1)
    of ``thread_map``.  Over 10% failed rounds raise CalibrationError.
    "plugin" rounds start from ``_split_start``; its FitError propagates
    before any round runs, as each round fits the same design on a half.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; "
                         f"choices: {sorted(ESTIMATORS)}")
    fn = ESTIMATORS[estimator]
    if np.any(observed_control.t != 0):
        raise ValueError("split_calibrate expects control-arm records only")
    n = len(observed_control)
    if n < 4:
        raise ValueError(f"need at least 4 control subjects, got {n}")
    check_rounds(R)

    ids = observed_control.ids
    canon = (observed_control if np.all(ids[1:] > ids[:-1])
             else observed_control.subset(np.argsort(ids)))
    half = n // 2
    if estimator == "plugin":
        fn = functools.partial(fn, start=_split_start(canon))

    def one(i: int):
        t_new = np.zeros(n, dtype=np.int8)
        t_new[np.random.default_rng([seed, i]).permutation(n)[:half]] = 1
        try:
            return fn(canon.relabeled(t_new)), None
        except (FitError, EstimatorError) as exc:
            return None, f"replicate {i}: {exc}"

    results = thread_map(one, R, threads)
    failures = [msg for _, msg in results if msg is not None]
    if len(failures) * 10 > R:
        raise CalibrationError(f"{len(failures)} of R={R} replicates failed "
                               f"(limit 10%); first: {failures[0]}")
    arr = np.asarray([v for v, _ in results if v is not None])
    return SplitCalibration(
        estimator=estimator, R=R, offsets=tuple(map(float, arr)),
        mean_offset=exact_mean(arr),
        se_offset=float(np.std(arr, ddof=1)) / math.sqrt(len(arr)),
        n_failed=len(failures))


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
    paths = fit.loglik_paths
    write_table(path, [("visit", range(1, len(paths) + 1))]
                + [(f"g{j}", fit.model[:, i]) for i, j in enumerate("013")]
                + [(f"se_g{j}", fit.se[:, i]) for i, j in enumerate("013")]
                + [("n_at_risk", fit.n_at_risk),
                   ("loglik", [p[-1] for p in paths]),
                   ("iterations", [len(p) - 1 for p in paths]),
                   ("converged", fit.converged)])
