"""Fitting, plug-in estimation, and split-based null calibration."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit

from stratabias import calibration
from stratabias.calibration import (ESTIMATORS, CalibrationError,
                                    EstimatorError, FitError,
                                    SeparationError, estimate_naive,
                                    estimate_plugin, fit_outcome_baseline,
                                    fit_sequential_logistic, split_calibrate,
                                    write_calibration_csv, write_fit_csv)
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
    fit = fit_sequential_logistic(obs, arm=1)
    assert fit.converged
    truth = (DEMO.gamma0, DEMO.gamma1)  # gamma2 = 0 here
    for k, vf in enumerate(fit.visits):
        assert vf.visit == k + 1
        for got, se, want in zip(vf.coef, vf.se,
                                 truth + (DEMO.gamma3[k],)):
            assert abs(got - want) <= 3.5 * se
    at_risk = [vf.n_at_risk for vf in fit.visits]
    assert at_risk == sorted(at_risk, reverse=True)


def test_logistic_nulls_are_recovered_as_zero():
    obs = trial(50_000, seed=32, gamma1=0.0, gamma3=[0.0, 0.0, 0.0])
    for vf in fit_sequential_logistic(obs, arm=1).visits:
        assert abs(vf.coef[1]) <= 3.5 * vf.se[1]
        assert abs(vf.coef[2]) <= 3.5 * vf.se[2]


def test_near_deterministic_adherence_is_separation():
    # a loading of 50 makes adherence almost an indicator of z's sign,
    # so the MLE walk crosses the quasi-separation cap on its way out
    obs = trial(2_000, seed=33, gamma0=0.0, gamma3=[50.0, 50.0, 50.0])
    with pytest.raises(SeparationError):
        fit_sequential_logistic(obs, arm=1)


def test_sparse_later_visit_is_a_fit_error():
    obs = trial(60, seed=34, gamma0=-2.5)
    with pytest.raises(FitError, match="at-risk"):
        fit_sequential_logistic(obs, arm=1)


def test_loglik_path_and_stationarity():
    """Monotone-to-slack likelihood path, and a truly stationary MLE."""
    obs = trial(20_000, seed=35)
    fit = fit_sequential_logistic(obs, arm=1)
    rows = obs.t == 1
    x, z, a = obs.x[rows], obs.z[rows], obs.a[rows]
    for k, vf in enumerate(fit.visits):
        steps = np.diff(np.asarray(vf.loglik_path))
        assert steps.min() >= -1e-8
        assert vf.loglik == vf.loglik_path[-1]
        assert vf.converged and vf.iterations == len(vf.loglik_path) - 1

        at_risk = ~np.isnan(z[:, k])
        if k + 1 < obs.K:
            r = (~np.isnan(z[at_risk, k + 1])).astype(float)
        else:
            r = (a[at_risk] == 1).astype(float)
        X = np.column_stack([np.ones(at_risk.sum()), x[at_risk],
                             z[at_risk, k]])
        grad = X.T @ (r - expit(X @ np.asarray(vf.coef)))
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


def test_outcome_baseline_satisfies_normal_equations():
    obs = trial(20_000, seed=36)
    m0 = fit_outcome_baseline(obs, arm=0)
    rows = (obs.t == 0) & ~np.isnan(obs.y)
    resid = obs.y[rows] - m0.predict(obs.x[rows])
    scale = np.abs(obs.y[rows]).sum()
    assert abs(resid.sum()) <= 1e-10 * scale
    assert abs(resid @ obs.x[rows]) <= 1e-10 * scale * \
        np.abs(obs.x[rows]).max()
    assert m0.n == rows.sum()
    assert m0.predict(np.array([0.0]))[0] == m0.intercept


@pytest.mark.parametrize("x0", [0.5, 0.1])
def test_outcome_baseline_without_x_spread_is_a_fit_error(x0):
    """Equal x leave the slope undefined: a FitError, not a NaN line."""
    n = 10
    obs = ObservedData(ids=np.arange(n), x=np.full(n, x0),
                       t=np.zeros(n, dtype=np.int8), z=np.zeros((n, 1)),
                       a=np.ones(n, dtype=np.int8),
                       y=np.arange(n, dtype=float))
    with pytest.raises(FitError, match="arm 0"):
        fit_outcome_baseline(obs, arm=0)


def test_visit_z_lines_are_least_squares_on_the_at_risk_set():
    obs = trial(20_000, seed=51)
    rows = obs.t == 1
    x, z = obs.x[rows], obs.z[rows]
    for k, vf in enumerate(fit_sequential_logistic(obs, arm=1).visits):
        at_risk = ~np.isnan(z[:, k])
        X = np.column_stack([np.ones(at_risk.sum()), x[at_risk]])
        coef, ss, _, _ = np.linalg.lstsq(X, z[at_risk, k], rcond=None)
        sd = math.sqrt(ss[0] / (vf.n_at_risk - 2))
        np.testing.assert_allclose(vf.z_line, (*coef, sd), rtol=1e-9)


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
    est = estimate_plugin(trial(200_000, seed=39), compute_se=False)
    assert math.isnan(est.se)
    assert abs(est.value - truth) <= 0.02


def test_marginal_pi_matches_adaptive_quadrature():
    """pi(x) at grid x-values against scipy's adaptive quadrature of the
    per-visit product of E[expit(g0 + g1*x + g3*Z_k)]."""
    fit = fit_sequential_logistic(trial(20_000, seed=52), arm=1)
    x_eval = np.linspace(-3.0, 3.0, calibration._N_GRID)
    pi = calibration._marginal_pi(x_eval, fit)
    for i in np.linspace(0, x_eval.size - 1, 20).astype(int):
        x = x_eval[i]
        want = 1.0
        for vf in fit.visits:
            (g0, g1, g3), (az, bz, sz) = vf.coef, vf.z_line

            def f(t):
                return expit(g0 + g1 * x + g3 * (az + bz * x + sz * t)) \
                    * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
            want *= quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(pi[i] - want) <= 1e-10


def test_plugin_point_does_not_depend_on_the_seed():
    obs = trial(20_000, seed=53)
    values = [estimate_plugin(obs, seed=s, compute_se=False).value
              for s in (1, 2)]
    assert values[0] == values[1]


def test_plugin_zero_regimes_report_zero():
    for over in ({"beta3": [0.0, 0.0, 0.0]}, {"gamma3": [0.0, 0.0, 0.0]}):
        est = estimate_plugin(trial(50_000, seed=40, **over),
                              seed=7, n_boot=80)
        assert est.se > 0
        assert abs(est.value) <= 3.5 * est.se


def test_plugin_with_flat_weights_is_unweighted_difference():
    """gamma1 = gamma3 = 0 makes the weighting inert up to fit noise."""
    obs = trial(40_000, seed=41, gamma1=0.0, gamma3=[0.0, 0.0, 0.0])
    est = estimate_plugin(obs, compute_se=False)
    rows1 = (obs.t == 1) & (obs.a == 1)
    m0 = fit_outcome_baseline(obs, arm=0)
    flat = exact_mean(obs.y[rows1]) - m0.predict(obs.x).mean()
    assert abs(est.value - flat) <= 0.01


def test_plugin_bootstrap_needs_two_resamples():
    obs = trial(4_000, seed=42)
    for n_boot in (1, 0):
        with pytest.raises(ValueError, match="n_boot must be >= 2"):
            estimate_plugin(obs, n_boot=n_boot)


def test_plugin_bootstrap_failure_limit(monkeypatch):
    """Failed resamples are skipped up to 10% of n_boot, then fatal."""
    obs = trial(4_000, seed=42)
    real_point = calibration._plugin_point

    def failing_resamples(bad):
        calls = {"n": 0}

        def point(sub):
            calls["n"] += 1  # call 1 is the point value, then resamples
            if calls["n"] - 2 in bad:
                raise FitError("synthetic failure")
            return real_point(sub)
        return point

    monkeypatch.setattr(calibration, "_plugin_point",
                        failing_resamples({3, 11}))
    est = estimate_plugin(obs, seed=3, n_boot=20)
    assert math.isfinite(est.se) and est.se > 0

    monkeypatch.setattr(calibration, "_plugin_point",
                        failing_resamples({3, 11, 17}))
    with pytest.raises(EstimatorError, match="3 of n_boot=20") as err:
        estimate_plugin(obs, seed=3, n_boot=20)
    assert "replicate 3: synthetic failure" in str(err.value)


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

    threaded = split_calibrate(ctrl, "naive", R=10, seed=5, threads=4)
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


def test_split_failure_accounting():
    ctrl = control_arm(4_000, seed=45)
    calls = {"n": 0}

    def flaky(obs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise EstimatorError("synthetic failure")
        return ESTIMATORS["naive"](obs)

    cal = split_calibrate(ctrl, flaky, R=20, seed=1)
    assert cal.estimator == "flaky"
    assert cal.n_failed == 1
    assert len(cal.offsets) == 19

    def broken(obs):
        raise FitError("always down")

    with pytest.raises(CalibrationError, match="limit 10%"):
        split_calibrate(ctrl, broken, R=10, seed=1)


def test_split_input_validation():
    obs = trial(1_000, seed=46)
    with pytest.raises(ValueError, match="control"):
        split_calibrate(obs, "naive", R=4)
    ctrl = obs.subset(obs.t == 0)
    with pytest.raises(ValueError, match="R"):
        split_calibrate(ctrl, "naive", R=1)
    with pytest.raises(ValueError, match="unknown estimator"):
        split_calibrate(ctrl, "oracle", R=4)
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

    fit = fit_sequential_logistic(trial(20_000, seed=49), arm=1)
    fit_path = tmp_path / "fit.csv"
    write_fit_csv(fit, fit_path)
    lines = fit_path.read_text().splitlines()
    assert lines[0] == ("visit,g0,g1,g3,se_g0,se_g1,se_g3,"
                        "n_at_risk,loglik,iterations,converged")
    assert len(lines) == 1 + len(fit.visits)
