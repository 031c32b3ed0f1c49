"""Fitting, plug-in estimation, and split-based null calibration."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from stratabias import calibration, datagen
from stratabias.calibration import (ESTIMATORS, CalibrationError,
                                    EstimatorError, FitError,
                                    SeparationError, estimate_naive,
                                    estimate_plugin, fit_sequential_logistic,
                                    split_calibrate, write_calibration_csv,
                                    write_fit_csv)
from stratabias.cli import main as cli_main
from stratabias.datagen import ObservedData, generate, observe
from stratabias.params import ScenarioConfig, load_bundled
from stratabias.quadrature import null_stratum_effect
from stratabias.strata import exact_mean

DEMO = load_bundled("full_null_demo").params


def trial(n, seed, keep_y=True, **over):
    cfg = ScenarioConfig(params=dataclasses.replace(DEMO, **over),
                         n=n, seed=seed)
    return observe(generate(cfg), keep_y_after_dropout=keep_y)


# ---------------------------------------------------------------- fits


def test_logistic_recovers_generating_coefficients():
    obs = trial(100_000, seed=31)
    fit = fit_sequential_logistic(obs)
    assert all(fit.converged)
    truth = (DEMO.gamma0, DEMO.gamma1)  # gamma2 = 0 here
    assert fit.model.shape == (DEMO.K, 6) and fit.se.shape == (DEMO.K, 3)
    for k, (coef, se_k) in enumerate(zip(fit.model[:, :3], fit.se)):
        for got, se, want in zip(coef, se_k, truth + (DEMO.gamma3[k],)):
            assert abs(got - want) <= 3.5 * se
    at_risk = list(fit.n_at_risk)
    assert at_risk == sorted(at_risk, reverse=True)


def test_logistic_nulls_are_recovered_as_zero():
    obs = trial(50_000, seed=32, gamma1=0.0, gamma3=[0.0, 0.0, 0.0])
    fit = fit_sequential_logistic(obs)
    for coef, se in zip(fit.model[:, :3], fit.se):
        assert abs(coef[1]) <= 3.5 * se[1]
        assert abs(coef[2]) <= 3.5 * se[2]


def test_near_deterministic_adherence_is_separation():
    # a loading of 50 makes adherence almost an indicator of z's sign,
    # so the MLE walk crosses the quasi-separation cap on its way out
    obs = trial(2_000, seed=33, gamma0=0.0, gamma3=[50.0, 50.0, 50.0])
    with pytest.raises(SeparationError):
        fit_sequential_logistic(obs)


def test_sparse_later_visit_is_a_fit_error():
    obs = trial(60, seed=34, gamma0=-2.5)
    with pytest.raises(FitError, match="at-risk"):
        fit_sequential_logistic(obs)


def test_loglik_path_and_stationarity():
    """Monotone-to-slack likelihood path, and a truly stationary MLE."""
    obs = trial(20_000, seed=35)
    fit = fit_sequential_logistic(obs)
    rows = obs.t == 1
    x, z, a = obs.x[rows], obs.z[rows], obs.a[rows]
    for k, path in enumerate(fit.loglik_paths):
        steps = np.diff(np.asarray(path))
        assert steps.min() >= -1e-8
        assert fit.converged[k]

        at_risk = ~np.isnan(z[:, k])
        if k + 1 < obs.K:
            r = (~np.isnan(z[at_risk, k + 1])).astype(float)
        else:
            r = (a[at_risk] == 1).astype(float)
        X = np.column_stack([np.ones(at_risk.sum()), x[at_risk],
                             z[at_risk, k]])
        grad = X.T @ (r - expit(X @ fit.model[k, :3]))
        assert np.abs(grad).max() <= 1e-8


def test_irls_matches_dense_newton():
    """The column-vector IRLS against a textbook dense Newton fit."""
    obs = trial(20_000, seed=50)
    rows = obs.t == 1  # visit 1: every arm-1 subject is at risk
    x, z = obs.x[rows], obs.z[rows, 0]
    r = (~np.isnan(obs.z[rows, 1])).astype(float)
    beta, se, path, iters, converged = calibration._irls(x, z, r, "visit 1")

    X = np.column_stack([np.ones(x.size), x, z])
    ref = np.zeros(3)
    ref_path = []
    for _ in range(50):
        eta = X @ ref
        ref_path.append(np.sum(r * eta) - np.sum(np.logaddexp(0.0, eta)))
        mu = expit(eta)
        info = X.T @ (X * (mu * (1.0 - mu))[:, None])
        grad = X.T @ (r - mu)
        if np.abs(grad).max() <= 1e-8:
            break
        ref = ref + np.linalg.solve(info, grad)
    else:
        pytest.fail("the dense reference fit did not converge")
    assert converged and iters == len(ref_path) - 1 == len(path) - 1
    np.testing.assert_allclose(beta, ref, rtol=1e-10)
    np.testing.assert_allclose(se, np.sqrt(np.diag(np.linalg.inv(info))),
                               rtol=1e-10)
    np.testing.assert_allclose(path, ref_path, rtol=1e-12)


def _reference_loglik(eta, r):
    softplus = np.log1p(np.exp(-np.abs(eta))) + np.maximum(eta, 0.0)
    return float((r * eta).sum() - softplus.sum())


def _reference_irls(x, z, r, what):
    """The Newton/IRLS fit as it was before its step was trimmed."""
    beta = np.zeros(3)
    eta = np.zeros_like(x)
    ll = _reference_loglik(eta, r)
    path = [ll]
    converged = False
    for it in range(calibration._MAX_ITER + 1):
        mu = expit(eta)
        w = mu * (1.0 - mu)
        res = r - mu
        sx, sz, sxz = (w * x).sum(), (w * z).sum(), (w * x * z).sum()
        info = np.array([[w.sum(), sx, sz], [sx, (w * x * x).sum(), sxz],
                         [sz, sxz, (w * z * z).sum()]])
        grad = np.array([res.sum(), (res * x).sum(), (res * z).sum()])
        if it == calibration._MAX_ITER \
                or float(np.max(np.abs(grad))) <= calibration._GRAD_TOL:
            converged = it < calibration._MAX_ITER
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise SeparationError(
                f"quasi-separation while fitting {what}: "
                "singular information matrix") from None
        del mu, w, res
        for _ in range(40):
            cand = beta + step
            eta_new = cand[0] + cand[1] * x + cand[2] * z
            ll_new = _reference_loglik(eta_new, r)
            if ll_new >= ll - calibration._LL_SLACK:
                break
            step = 0.5 * step
        else:
            break
        beta, eta, ll = cand, eta_new, ll_new
        path.append(ll)
        if float(np.max(np.abs(beta))) > calibration._COEF_CAP:
            raise SeparationError(
                f"quasi-separation while fitting {what}: "
                f"|coefficient| exceeded {calibration._COEF_CAP:g}")
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise SeparationError(
            f"quasi-separation while fitting {what}: "
            "singular information matrix at the fit") from None
    se = np.sqrt(np.diag(cov))
    return beta, se, tuple(path), len(path) - 1, converged


def _outcome(fit, *args):
    """A fit's result, or the type and message of the error it raised."""
    try:
        return fit(*args)
    except SeparationError as exc:
        return type(exc), str(exc)


def _assert_same_fit(got, want):
    assert type(got) is type(want)
    if isinstance(want, tuple) and len(want) == 2:  # (error type, message)
        assert got == want
        return
    beta, se, path, iters, conv = got
    assert beta.tobytes() == want[0].tobytes()
    assert se.tobytes() == want[1].tobytes()
    assert np.asarray(path).tobytes() == np.asarray(want[2]).tobytes()
    assert (iters, conv) == (want[3], want[4])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(10, 5_000), seed=st.integers(0, 2**32 - 1),
       coef=st.tuples(st.floats(-3, 3), st.floats(-2, 2), st.floats(-4, 4)),
       scale=st.sampled_from([0.1, 1.0, 3.0]),
       as_bool=st.booleans())
def test_irls_is_bitwise_the_reference(m, seed, coef, scale, as_bool):
    """The trimmed Newton step forms the same products in the same order:
    beta, SEs, log-likelihood path and step count keep every bit."""
    rng = np.random.default_rng(seed)
    x, z = rng.normal(size=m), scale * rng.normal(size=m)
    r = rng.random(m) < expit(coef[0] + coef[1] * x + coef[2] * z)
    if not as_bool:
        r = r.astype(float)
    _assert_same_fit(_outcome(calibration._irls, x, z, r, "v"),
                     _outcome(_reference_irls, x, z, r, "v"))


def test_irls_near_separation_raises_as_the_reference():
    rng = np.random.default_rng(7)
    x, z = rng.normal(size=500), rng.normal(size=500)
    r = z > 0  # separated by z's sign: the MLE walks out to infinity
    got = _outcome(calibration._irls, x, z, r, "visit 2 in arm 1")
    assert got[0] is SeparationError
    assert got == _outcome(_reference_irls, x, z, r, "visit 2 in arm 1")


def test_irls_from_a_start_reaches_the_same_maximum():
    obs = trial(20_000, seed=54)
    rows = obs.t == 1
    x, z = obs.x[rows], obs.z[rows, 0]
    r = ~np.isnan(obs.z[rows, 1])
    cold = calibration._irls(x, z, r, "visit 1")
    half = calibration._irls(x[::2], z[::2], r[::2], "half of visit 1")[0]
    warm = calibration._irls(x, z, r, "visit 1", start=half)
    assert warm[4] and warm[3] < cold[3]
    np.testing.assert_allclose(warm[0], cold[0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(warm[1], cold[1], rtol=1e-7)
    # from the maximum itself: no step, and the cold fit's exact bits
    again = calibration._irls(x, z, r, "visit 1", start=cold[0])
    assert again[3] == 0 and again[0].tobytes() == cold[0].tobytes()
    assert again[1].tobytes() == cold[1].tobytes()


def test_outcome_baseline_satisfies_normal_equations():
    """The plug-in's arm-0 line a0 + b0*x is least squares on the arm-0
    rows with an observed outcome."""
    obs = trial(20_000, seed=36)
    _, a0, b0, *_ = calibration._plugin_fit(obs)
    rows = (obs.t == 0) & ~np.isnan(obs.y)
    assert calibration._outcome_rows(obs).tolist() \
        == np.flatnonzero(rows).tolist()
    resid = obs.y[rows] - (a0 + b0 * obs.x[rows])
    scale = np.abs(obs.y[rows]).sum()
    assert abs(resid.sum()) <= 1e-10 * scale
    assert abs(resid @ obs.x[rows]) <= 1e-10 * scale * \
        np.abs(obs.x[rows]).max()


def _two_arm_trial(x0, y0):
    """Four arm-1 adherers with outcomes, then arm-0 subjects with
    outcomes y0 (NaN: none); every x is x0, and there is one visit."""
    y = np.concatenate([np.arange(4.0), y0])
    n = y.size
    return ObservedData(ids=np.arange(n), x=np.full(n, x0),
                        t=np.repeat(np.int8([1, 0]), [4, n - 4]),
                        z=np.zeros((n, 1)), a=np.ones(n, dtype=np.int8),
                        y=y)


@pytest.mark.parametrize("x0", [0.5, 0.1])
def test_outcome_baseline_without_x_spread_is_a_fit_error(x0):
    """Equal x leave the slope undefined: a FitError, not a NaN line."""
    obs = _two_arm_trial(x0, np.arange(10.0))
    with pytest.raises(FitError, match="outcome line in arm 0: every x "
                       f"equals {x0!r}"):
        calibration._plugin_point(obs)


def test_outcome_baseline_needs_three_outcomes():
    obs = _two_arm_trial(0.5, np.array([1.0, 2.0, np.nan, np.nan]))
    with pytest.raises(FitError, match="^arm 0: only 2 subjects with "
                       "observed outcome$"):
        calibration._plugin_point(obs)


def test_visit_z_lines_are_least_squares_on_the_at_risk_set():
    obs = trial(20_000, seed=51)
    rows = obs.t == 1
    x, z = obs.x[rows], obs.z[rows]
    fit = fit_sequential_logistic(obs)
    for k, n_at_risk in enumerate(fit.n_at_risk):
        at_risk = ~np.isnan(z[:, k])
        X = np.column_stack([np.ones(at_risk.sum()), x[at_risk]])
        coef, ss, _, _ = np.linalg.lstsq(X, z[at_risk, k], rcond=None)
        sd = math.sqrt(ss[0] / (n_at_risk - 2))
        np.testing.assert_allclose(fit.model[k, 3:], (*coef, sd), rtol=1e-9)


def test_fit_model_is_the_plugin_params_and_read_only():
    """The plug-in reads the fit's (K, 6) model as it is, and the record's
    arrays, shared by the split rounds, cannot be written."""
    obs = trial(20_000, seed=55)
    fit = fit_sequential_logistic(obs)
    params = calibration._plugin_fit(obs)[5]
    assert params.shape == fit.model.shape == (obs.K, 6)
    assert params.tobytes() == fit.model.tobytes()
    for arr in (fit.model, fit.se):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


# ----------------------------------------------------------- estimators


def test_naive_is_null_under_exchangeable_arms():
    est = estimate_naive(trial(200_000, seed=37))
    assert abs(est.value) <= 3.5 * est.se


def test_naive_with_universal_adherence_is_arm_difference():
    obs = trial(5_000, seed=38, gamma0=50.0)
    est = estimate_naive(obs)
    assert est.n_members == len(obs)
    diff = exact_mean(obs.y[obs.t == 1]) - exact_mean(obs.y[obs.t == 0])
    assert est.value == diff


def test_plugin_tracks_closed_form():
    truth = null_stratum_effect(DEMO)
    est = estimate_plugin(trial(200_000, seed=39))
    assert math.isfinite(est.se) and est.se > 0
    assert abs(est.value - truth) <= 0.02


def test_marginal_pi_matches_adaptive_quadrature():
    """pi(x) at grid x-values against scipy's adaptive quadrature of the
    per-visit product of E[expit(g0 + g1*x + g3*Z_k)], Z_k = az + bz*x +
    sz*T with T ~ N(0, 1)."""
    fit = fit_sequential_logistic(trial(20_000, seed=52))
    x_eval = np.linspace(-3.0, 3.0, calibration._N_GRID)
    pi = calibration._marginal_pi(x_eval, fit.model)
    for i in np.linspace(0, x_eval.size - 1, 20).astype(int):
        x = x_eval[i]
        want = 1.0
        for g0, g1, g3, az, bz, sz in fit.model:
            def f(t):
                return expit(g0 + g1 * x + g3 * (az + bz * x + sz * t)) \
                    * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
            want *= quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(pi[i] - want) <= 1e-10


def test_plugin_zero_regimes_report_zero():
    for over in ({"beta3": [0.0, 0.0, 0.0]}, {"gamma3": [0.0, 0.0, 0.0]}):
        est = estimate_plugin(trial(50_000, seed=40, **over))
        assert est.se > 0
        assert abs(est.value) <= 3.5 * est.se


def test_plugin_with_flat_weights_is_unweighted_difference():
    """gamma1 = gamma3 = 0 makes the weighting inert up to fit noise."""
    obs = trial(40_000, seed=41, gamma1=0.0, gamma3=[0.0, 0.0, 0.0])
    est = estimate_plugin(obs)
    rows1 = (obs.t == 1) & (obs.a == 1)
    _, a0, b0, *_ = calibration._plugin_fit(obs)
    flat = exact_mean(obs.y[rows1]) - (a0 + b0 * obs.x.mean())
    assert abs(est.value - flat) <= 0.01


def test_plugin_value_is_the_point():
    obs = trial(20_000, seed=53)
    assert estimate_plugin(obs).value == calibration._plugin_point(obs)


def test_plugin_se_reuses_the_point_fits(monkeypatch):
    """One estimate_plugin call runs one fitting pass, which fits the visit
    model once and builds pi once at the fit, plus the central
    differences' 2 per visit parameter."""
    obs = trial(20_000, seed=54)
    calls = dict.fromkeys(("fit_sequential_logistic", "_plugin_fit",
                           "_marginal_pi"), 0)

    def counted(name):
        real = getattr(calibration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(calibration, name, counted(name))
    estimate_plugin(obs)
    assert calls == {"fit_sequential_logistic": 1, "_plugin_fit": 1,
                     "_marginal_pi": 1 + 2 * 6 * obs.K}


def test_plugin_se_is_calibrated():
    """The sandwich SE matches the spread of the plug-in over independent
    trials of the partial null."""
    cfg = load_bundled("partial_null_gamma2")
    ests = [estimate_plugin(observe(generate(dataclasses.replace(
        cfg, n=20_000, seed=5_300 + b)), keep_y_after_dropout=True))
        for b in range(100)]
    sd = np.std([e.value for e in ests], ddof=1)
    assert 0.8 <= np.mean([e.se for e in ests]) / sd <= 1.25


def test_plugin_se_is_the_jackknife():
    """The sandwich SE and the delete-one jackknife SE agree to first
    order.  On one small trial they agree to 1%, which checks the
    influence terms far more tightly than the spread over trials can."""
    cfg = dataclasses.replace(load_bundled("full_null_demo"), n=1_000, seed=3)
    obs = observe(generate(cfg), keep_y_after_dropout=True)
    n, start = len(obs), fit_sequential_logistic(obs)
    keep, values = np.ones(n, dtype=bool), []
    for i in range(n):
        keep[i] = False
        values.append(calibration._plugin_point(obs.subset(keep), start))
        keep[i] = True
    jack = math.sqrt((n - 1) / n * np.sum((values - np.mean(values)) ** 2))
    assert abs(jack / estimate_plugin(obs).se - 1.0) <= 0.01


# ------------------------------------------------------ split calibration


def control_arm(n, seed, **over):
    obs = trial(n, seed, **over)
    return obs.subset(obs.t == 0)


def test_split_is_deterministic_order_free_and_thread_free():
    ctrl = control_arm(60_000, seed=43)
    base = split_calibrate(ctrl, "naive", R=10, seed=5)
    again = split_calibrate(ctrl, "naive", R=10, seed=5)
    assert base.offsets == again.offsets

    rng = np.random.default_rng(0)
    shuffled = ctrl.subset(rng.permutation(len(ctrl)))
    assert split_calibrate(shuffled, "naive", R=10, seed=5).offsets \
        == base.offsets

    for threads in (4, 8):
        threaded = split_calibrate(ctrl, "naive", R=10, seed=5,
                                   threads=threads)
        assert threaded.offsets == base.offsets

    assert base.mean_offset == exact_mean(np.asarray(base.offsets))
    assert base.se_offset == pytest.approx(
        np.std(base.offsets, ddof=1) / math.sqrt(len(base.offsets)))


def test_split_plugin_offsets_are_order_free():
    ctrl = control_arm(20_000, seed=44)
    base = split_calibrate(ctrl, "plugin", R=4, seed=9)
    rng = np.random.default_rng(1)
    shuffled = ctrl.subset(rng.permutation(len(ctrl)))
    assert split_calibrate(shuffled, "plugin", R=4, seed=9).offsets \
        == base.offsets
    # and thread-free: each round's arithmetic is the same on any worker
    assert split_calibrate(ctrl, "plugin", R=4, seed=9, threads=2).offsets \
        == base.offsets


def _cold_plugin(obs):
    """The plug-in point with its fits started at 0: registered under any
    name but "plugin", it gets no warm start."""
    return calibration._plugin_point(obs)


@pytest.mark.parametrize("name", ["full_null_demo", "partial_null_gamma2"])
def test_split_warm_rounds_match_cold_rounds(name, monkeypatch):
    """Each warm-started round lands on its cold round's offset to 1e-12,
    in fewer Newton steps summed over the rounds' visit fits."""
    cfg = dataclasses.replace(load_bundled(name), n=42_000, seed=61)
    obs = observe(generate(cfg))
    ctrl = obs.subset(obs.t == 0)
    assert len(ctrl) >= 20_000

    real_fit = calibration.fit_sequential_logistic
    steps = {True: 0, False: 0}

    def counting_fit(observed, start=None):
        fit = real_fit(observed, start=start)
        steps[start is not None] += sum(len(p) - 1
                                        for p in fit.loglik_paths)
        return fit

    monkeypatch.setattr(calibration, "fit_sequential_logistic", counting_fit)
    monkeypatch.setitem(ESTIMATORS, "cold_plugin", _cold_plugin)
    warm = split_calibrate(ctrl, "plugin", R=8, seed=3)
    warm_steps, steps[True], steps[False] = steps[True], 0, 0
    cold = split_calibrate(ctrl, "cold_plugin", R=8, seed=3)
    assert steps[True] == 0 and 0 < warm_steps < steps[False]
    assert warm.n_failed == cold.n_failed == 0
    np.testing.assert_allclose(warm.offsets, cold.offsets, rtol=0,
                               atol=1e-12)


def test_split_start_failure_is_raised_before_any_round(monkeypatch):
    """Every plug-in round fits the start fit's design on a same-size
    half of the arm, so its FitError ends the calibration at once."""
    ctrl = control_arm(20_000, seed=62)
    rounds = []
    real_point = calibration._plugin_point

    def counted_point(obs, start=None):
        rounds.append(start)
        return real_point(obs, start)

    def no_start(canon):
        raise FitError("synthetic start failure")

    monkeypatch.setattr(calibration, "_plugin_point", counted_point)
    monkeypatch.setattr(calibration, "_split_start", no_start)
    with pytest.raises(FitError, match="synthetic start failure"):
        split_calibrate(ctrl, "plugin", R=4, seed=4)
    assert rounds == []
    # sigma_eta = 0: the singular start fit itself, not 20 failed rounds
    monkeypatch.undo()
    with pytest.raises(SeparationError, match="singular information"):
        split_calibrate(control_arm(20_000, seed=62, sigma_eta=0.0),
                        "plugin", R=20, seed=4)


def test_calibrate_fit_csv_is_the_cold_fit(tmp_path, capsys):
    """The CLI's own arm-1 fit, written to fit.csv, is never warm-started:
    it is the cold fit of the whole trial."""
    cfg = dataclasses.replace(load_bundled("partial_null_gamma2"), n=20_000,
                              seed=8)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert cli_main(["calibrate", str(path), "--R", "4",
                     "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    obs = observe(generate(cfg), keep_y_after_dropout=True)
    write_fit_csv(fit_sequential_logistic(obs), tmp_path / "cold.csv")
    assert (tmp_path / "run" / "fit.csv").read_bytes() \
        == (tmp_path / "cold.csv").read_bytes()


def test_split_failure_accounting(monkeypatch):
    ctrl = control_arm(4_000, seed=45)
    calls = {"n": 0}

    def flaky(obs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise EstimatorError("synthetic failure")
        return ESTIMATORS["naive"](obs)

    monkeypatch.setitem(ESTIMATORS, "flaky", flaky)
    cal = split_calibrate(ctrl, "flaky", R=20, seed=1)
    assert cal.estimator == "flaky"
    assert cal.n_failed == 1
    assert len(cal.offsets) == 19

    def broken(obs):
        raise FitError("always down")

    monkeypatch.setitem(ESTIMATORS, "broken", broken)
    with pytest.raises(CalibrationError, match="limit 10%"):
        split_calibrate(ctrl, "broken", R=10, seed=1)


def test_split_rounds_run_on_the_block_map_loop(monkeypatch):
    """The rounds run on ``datagen.thread_map``: threads=1 starts no pool,
    and a pool never gets more workers than there are rounds beside the
    calling thread."""
    ctrl = control_arm(4_000, seed=47)
    pools = []
    real_pool = datagen.ThreadPoolExecutor

    def pool(workers):
        pools.append(workers)
        return real_pool(workers)
    monkeypatch.setattr(datagen, "ThreadPoolExecutor", pool)
    base = split_calibrate(ctrl, "naive", R=3, seed=2, threads=1)
    assert pools == []
    assert split_calibrate(ctrl, "naive", R=3, seed=2,
                           threads=8).offsets == base.offsets
    assert pools == [2]


def test_an_untyped_round_error_stops_the_rounds(monkeypatch):
    """An error that is not a FitError or EstimatorError propagates from
    round 20 of 200, and the other threads stop taking rounds."""
    ctrl = control_arm(4_000, seed=48)
    n = len(ctrl)
    t20 = np.zeros(n, dtype=np.int8)
    t20[np.random.default_rng([1, 20]).permutation(n)[:n // 2]] = 1
    ran = []

    def breaks_at_20(obs):
        ran.append(1)
        if np.array_equal(obs.t, t20):
            raise KeyError("round 20")
        return ESTIMATORS["naive"](obs)

    monkeypatch.setitem(ESTIMATORS, "breaks", breaks_at_20)
    for threads in (1, 3):
        ran.clear()
        with pytest.raises(KeyError, match="round 20"):
            split_calibrate(ctrl, "breaks", R=200, seed=1, threads=threads)
        assert len(ran) < 180


def test_split_input_validation():
    obs = trial(1_000, seed=46)
    with pytest.raises(ValueError, match="control"):
        split_calibrate(obs, "naive", R=4)
    ctrl = obs.subset(obs.t == 0)
    with pytest.raises(ValueError, match="R"):
        split_calibrate(ctrl, "naive", R=1)
    with pytest.raises(ValueError, match="unknown estimator"):
        split_calibrate(ctrl, "oracle", R=4)
    # estimators are registry names only, never callables
    with pytest.raises(ValueError, match=r"choices: \['naive', 'plugin'\]"):
        split_calibrate(ctrl, ESTIMATORS["naive"], R=4)
    with pytest.raises(ValueError, match="at least 4"):
        split_calibrate(ctrl.subset(np.arange(3)), "naive", R=4)


def test_split_threads_must_be_positive(tmp_path, capsys):
    ctrl = control_arm(1_000, seed=46)
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            split_calibrate(ctrl, "naive", R=4, threads=threads)

    path = tmp_path / "scenario.json"
    doc = load_bundled("full_null_demo").to_dict()
    doc.update(n=2_000, seed=3)
    path.write_text(json.dumps(doc))
    rc = cli_main(["calibrate", str(path), "--estimator", "naive",
                   "--R", "4", "--threads", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "threads must be >= 1" in capsys.readouterr().err


def test_split_offsets_match_real_trial_spread():
    """Pseudo-trials from control splits mimic genuinely re-randomized
    trials: under the full null the two offset distributions share a
    variance (checked as a ratio, which is scale-free)."""
    ctrl = control_arm(100_000, seed=47)
    cal = split_calibrate(ctrl, "naive", R=500, seed=11)
    assert cal.n_failed == 0
    var_split = np.var(cal.offsets, ddof=1)

    n_c = len(ctrl)
    reals = [estimate_naive(trial(n_c, seed=1_000 + b)).value
             for b in range(400)]
    var_real = np.var(reals, ddof=1)
    assert 0.7 <= var_split / var_real <= 1.4


# ------------------------------------------------------------- outputs


def test_csv_writers_round_trip(tmp_path):
    ctrl = control_arm(4_000, seed=48)
    cal = split_calibrate(ctrl, "naive", R=5, seed=2)
    path = tmp_path / "calibration.csv"
    write_calibration_csv([("demo", cal)], path)
    header, row = path.read_text().splitlines()
    assert header == \
        "scenario_label,estimator,R,mean_offset,se_offset,n_failed_splits"
    cells = row.split(",")
    assert cells[:3] == ["demo", "naive", "5"]
    assert float(cells[3]) == cal.mean_offset

    fit = fit_sequential_logistic(trial(20_000, seed=49))
    fit_path = tmp_path / "fit.csv"
    write_fit_csv(fit, fit_path)
    lines = fit_path.read_text().splitlines()
    assert lines[0] == ("visit,g0,g1,g3,se_g0,se_g1,se_g3,"
                        "n_at_risk,loglik,iterations,converged")
    K = len(fit.n_at_risk)
    assert len(lines) == 1 + K
    with fit_path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["visit"]) for r in rows] == list(range(1, K + 1))
    for k, r in enumerate(rows):  # 17 significant digits read back exactly
        for i, j in enumerate("013"):
            assert float(r[f"g{j}"]) == fit.model[k, i]
            assert float(r[f"se_g{j}"]) == fit.se[k, i]
        path = fit.loglik_paths[k]
        assert int(r["n_at_risk"]) == fit.n_at_risk[k]
        assert float(r["loglik"]) == path[-1]
        assert int(r["iterations"]) == len(path) - 1
        assert r["converged"] == str(int(fit.converged[k]))
