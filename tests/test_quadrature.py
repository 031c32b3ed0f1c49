"""Closed-form oracle: exact zero regimes, identities, and cross-checks."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import expit

from stratabias import quadrature
from stratabias.datagen import generate
from stratabias.params import ScenarioConfig, load_bundled, validate
from stratabias.quadrature import (QuadratureError, RefinementError,
                                   gauss_hermite_normal, null_stratum_effect)
from stratabias.strata import S_TREATED, oracle_effect

DEMO = load_bundled("full_null_demo").params


def params(**overrides):
    d = dict(
        mu_x=0.0, sigma_x=1.0, alpha0=[0.0, 0.0, 0.0],
        alpha1=[0.5, 0.5, 0.5], alpha2=[0.0, 0.0, 0.0],
        beta0=1.0, beta1=0.5, beta2=0.0, beta3=[0.4, 0.4, 0.4],
        sigma_eta=1.0, sigma_eps=1.0, gamma0=1.0, gamma1=0.3,
        gamma3=[0.5, 0.5, 0.5], K=3)
    d.update(overrides)
    return validate(d)


def test_spec_validation():
    for nodes in (1, 0, -4):
        with pytest.raises(ValueError, match="node count"):
            null_stratum_effect(DEMO, nodes=nodes)


def test_non_finite_rule_is_an_error():
    """numpy's hermgauss has NaN weights from 372 nodes up, so the
    refinement at 2 * 186 nodes must raise, not return NaN."""
    with pytest.raises(QuadratureError, match="186 or 372 nodes"):
        null_stratum_effect(DEMO, nodes=186)


def test_gauss_hermite_helper_integrates_moments():
    pts, wts = gauss_hermite_normal(1.5, 2.0, 32)
    assert abs(wts.sum() - 1.0) < 1e-14
    assert abs(wts @ pts - 1.5) < 1e-12
    assert abs(wts @ (pts - 1.5) ** 2 - 4.0) < 1e-11


def test_outcome_pathway_precondition():
    with pytest.raises(QuadratureError, match="beta2"):
        null_stratum_effect(params(beta2=0.3))
    with pytest.raises(QuadratureError, match="Monte Carlo"):
        null_stratum_effect(params(alpha2=[0.1, 0.0, 0.0]))
    # gamma2 only moves adherence: still in the closed form's domain
    assert null_stratum_effect(params(gamma2=2.0)) > 0.0


def test_zero_regimes_are_numerically_zero():
    assert null_stratum_effect(params(beta3=[0.0, 0.0, 0.0])) == 0.0
    assert abs(null_stratum_effect(params(gamma3=[0.0, 0.0, 0.0]))) <= 1e-12
    assert null_stratum_effect(params(sigma_eta=0.0)) == 0.0


def test_stein_identity_single_case():
    """x-free, single-visit reduction against an independent integrator.

    With gamma0=gamma1=0 and alpha=0 the effect reduces to
    2*b*g*E[sigmoid'(g*xi)] for xi ~ N(0,1).
    """
    b, g = 2.0, 0.5
    p = params(K=1, alpha0=[0.0], alpha1=[0.0], alpha2=[0.0],
               beta3=[b], gamma0=0.0, gamma1=0.0, gamma3=[g])
    got = null_stratum_effect(p)
    phi = lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    sig_deriv = lambda u: expit(g * u) * (1.0 - expit(g * u))
    expected = 2.0 * b * g * integrate.quad(
        lambda u: sig_deriv(u) * phi(u), -np.inf, np.inf)[0]
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_linearity_in_outcome_loadings():
    base = null_stratum_effect(DEMO)
    for c in (-1.0, 0.5, 3.0):
        scaled = dataclasses.replace(
            DEMO, beta3=tuple(c * b for b in DEMO.beta3))
        got = null_stratum_effect(scaled)
        assert abs(got - c * base) <= 1e-10 * abs(c * base)


def test_nuisance_parameters_bit_identical():
    base = null_stratum_effect(DEMO)
    for overrides in ({"beta0": 77.0}, {"beta1": -3.0},
                      {"sigma_eps": 9.0},
                      {"beta0": -1.0, "beta1": 0.0, "sigma_eps": 0.0}):
        moved = dataclasses.replace(DEMO, **overrides)
        assert null_stratum_effect(moved) == base


def test_mirror_symmetry_in_x():
    """Flipping the sign of every x coefficient mirrors the integral."""
    p = params(mu_x=0.7, alpha0=[0.1, -0.2, 0.3], gamma1=0.4)
    mirrored = dataclasses.replace(
        p, mu_x=-p.mu_x, gamma1=-p.gamma1,
        alpha1=tuple(-a for a in p.alpha1))
    a, b = null_stratum_effect(p), null_stratum_effect(mirrored)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_sign_follows_loading_products():
    rng = np.random.default_rng(42)
    for _ in range(10):
        mag_b = rng.uniform(0.1, 1.0, 3)
        mag_g = rng.uniform(0.1, 1.0, 3)
        signs = rng.choice([-1.0, 1.0], 3)
        p = params(beta3=list(signs * mag_b), gamma3=list(signs * mag_g),
                   gamma0=rng.uniform(-1, 2), gamma1=rng.uniform(-1, 1),
                   alpha0=list(rng.uniform(-1, 1, 3)),
                   alpha1=list(rng.uniform(-1, 1, 3)),
                   sigma_eta=rng.uniform(0.3, 2.0))
        assert null_stratum_effect(p) > 0.0


def test_node_refinement_is_stable_and_reported():
    coarse_only = quadrature._evaluate(DEMO, 32, 32)
    refined = null_stratum_effect(DEMO)
    assert abs(coarse_only - refined) <= 1e-9 * abs(refined)

    # 2 nodes against 4 differ by about 1.1e-3 relative
    with pytest.raises(RefinementError) as err:
        null_stratum_effect(DEMO, nodes=2)
    assert err.value.coarse != err.value.fine
    assert "nodes" in str(err.value)


def test_adherence_shift_weakens_selection_here():
    # gamma2 pushes per-visit adherence toward 1, shrinking the tilt
    assert null_stratum_effect(params(gamma2=2.0)) \
        < null_stratum_effect(params())


def test_mc_cross_check_general_configuration():
    """Intercepts, slopes and the arm shift all exercised at once."""
    p = params(mu_x=0.4, alpha0=[0.3, -0.2, 0.1], gamma1=-0.25,
               gamma2=0.8, beta3=[0.5, 0.3, 0.6], gamma3=[0.6, 0.4, 0.7])
    quad = null_stratum_effect(p)
    est = oracle_effect(
        generate(ScenarioConfig(params=p, n=300_000, seed=1234)), S_TREATED)
    assert est.n_members > 50_000
    assert abs(quad - est.value) <= 3.5 * est.se
