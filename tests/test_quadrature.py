"""Closed-form oracle: exact zero regimes, identities, and cross-checks."""

import dataclasses
import math
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import expit

from stratabias import calibration, quadrature
from stratabias.datagen import generate
from stratabias.params import ScenarioConfig, load_bundled, validate
from stratabias.quadrature import (QuadratureError, RefinementError,
                                   gauss_hermite_normal, null_stratum_effect,
                                   visit_product)
from stratabias.strata import S_TREATED, oracle_effect, stratum_sums

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


# -- the shared Gauss-Hermite rule ------------------------------------------

@pytest.fixture
def cold_rules():
    quadrature._rule.cache_clear()
    yield
    quadrature._rule.cache_clear()


def test_each_rule_is_built_once_per_node_count(cold_rules, monkeypatch):
    calls = Counter()
    hermgauss = np.polynomial.hermite.hermgauss

    def counted(nodes):
        calls[nodes] += 1
        return hermgauss(nodes)

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
    null_stratum_effect(DEMO)  # 64 nodes refined at 128
    visit = (0.5, 0.2, 0.3, 0.0, 0.5, 1.0)  # (g0, g1, g3, az, bz, sz)
    calibration._marginal_pi(np.linspace(-2.0, 2.0, 50),
                             np.array([visit, visit]))
    assert calibration._PI_NODES == 64
    assert calls == {64: 1, 128: 1}


def test_shared_rule_is_read_only(cold_rules):
    pts, wts = gauss_hermite_normal(0.0, 1.0, 64)
    with pytest.raises(ValueError, match="read-only"):
        wts[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        wts *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        quadrature._rule(64)[0][0] = 0.0
    pts[0] = 0.0  # the shifted nodes are the caller's own array


def test_too_many_nodes_are_refused_before_any_rule(cold_rules, monkeypatch):
    """numpy's rule has NaN weights from 372 nodes, and building one takes
    nodes^2 memory, so such counts raise before any rule is built."""
    def refused(nodes):
        raise AssertionError(f"built a {nodes}-node rule")

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refused)
    for nodes in (186, 10**6):
        with pytest.raises(QuadratureError, match=f"^non-finite value at "
                           f"{nodes} or {2 * nodes} nodes$"):
            null_stratum_effect(DEMO, nodes=nodes)


@pytest.mark.parametrize("nodes", [2, 64, 128, 185])
def test_cached_rule_is_bitwise_the_uncached_one(cold_rules, nodes):
    h, w = np.polynomial.hermite.hermgauss(nodes)
    for mu, sigma in ((0.0, 1.0), (1.5, 2.0), (-0.3, 0.7)):
        for _ in range(2):  # cold, then cached
            pts, wts = gauss_hermite_normal(mu, sigma, nodes)
            assert pts.tobytes() == (mu + math.sqrt(2.0) * sigma * h).tobytes()
            assert wts.tobytes() == (w / math.sqrt(math.pi)).tobytes()


def test_threads_on_a_cold_cache_get_equal_rules(cold_rules):
    start = threading.Barrier(8, timeout=30)

    def take(_):
        start.wait()
        return gauss_hermite_normal(0.0, 1.0, 128)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rules = [f.result(timeout=60)
                     for f in [pool.submit(take, i) for i in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for pts, wts in rules:
        assert pts.tobytes() == rules[0][0].tobytes()
        assert wts.tobytes() == rules[0][1].tobytes()


# -- the visit-product kernel -----------------------------------------------

def _reference_visit_factor(c0, c1, s, x, xi, w, tilted=False):
    """The one-visit integral as written before ``visit_product``."""
    p = expit(c0 + c1 * x[:, None] + s * xi)
    p *= w
    d = p.sum(axis=1)
    return (d, (p * xi).sum(axis=1)) if tilted else d


def _reference_product(model, x, xi, w, beta3=None):
    """The visit loops as written before ``visit_product``: the closed
    form's product rule with ``beta3``, the plug-in's pi(x) without, on
    the (c0, c1, s) rows the model rows give."""
    c = [(g0 + g3 * az, g1 + g3 * bz, g3 * sz)
         for g0, g1, g3, az, bz, sz in model]
    if beta3 is None:
        pi = np.ones(x.size)
        for c0, c1, s in c:
            pi *= _reference_visit_factor(c0, c1, s, x, xi, w)
        return pi
    den = np.ones(x.size)
    num = np.zeros(x.size)
    for k, (c0, c1, s) in enumerate(c):
        d, n = _reference_visit_factor(c0, c1, s, x, xi, w, tilted=True)
        num = num * d + beta3[k] * n * den
        den = den * d
    return den, num


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=5),
       nodes_x=st.integers(min_value=2, max_value=185),
       nodes_xi=st.integers(min_value=2, max_value=185),
       tilted=st.booleans())
def test_visit_product_agrees_with_the_visit_loops(data, k, nodes_x,
                                                   nodes_xi, tilted):
    """The factored logistic against the per-cell expit loops: products
    to 1e-13 relative, the tilted sum to 1e-13 of den * sum|beta3| (it
    can cancel to near 0, where a relative bound means nothing).  Each
    drawn (c0, c1, s) is the model row (c0, c1, s, 0, 0, 1)."""
    def num(lo, hi):
        return data.draw(st.floats(min_value=lo, max_value=hi))

    model = [(num(-6.0, 6.0), num(-2.0, 2.0), num(-3.0, 3.0), 0.0, 0.0, 1.0)
             for _ in range(k)]
    beta3 = [num(-2.0, 2.0) for _ in range(k)] if tilted else None
    x, _ = gauss_hermite_normal(num(-1.0, 1.0), num(0.1, 2.0), nodes_x)
    xi, w = gauss_hermite_normal(0.0, 1.0, nodes_xi)
    want = _reference_product(model, x, xi, w, beta3)
    got = visit_product(model, x, xi, w, beta3)
    # as _evaluate and _marginal_pi pass them: a list of rows, an array
    again = visit_product(np.array(model), x, xi, w, beta3)
    if tilted:
        assert all(g.tobytes() == a.tobytes() for g, a in zip(got, again))
        den, want_den = got[0], want[0]
        scale = 1e-13 * want_den * sum(abs(b) for b in beta3)
        assert np.all(np.abs(got[1] - want[1]) <= scale)
    else:
        assert got.tobytes() == again.tobytes()
        den, want_den = got, want
    assert np.all(np.abs(den - want_den) <= 1e-13 * want_den)


def _normal_moment(c0, c1, s, x, power):
    """E[T^power * expit(c0 + c1*x + s*T)], T ~ N(0, 1), adaptively."""
    def f(t):
        return t ** power * expit(c0 + c1 * x + s * t) \
            * math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
    return integrate.quad(f, -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)[0]


def test_visit_product_matches_adaptive_quadrature():
    """Each visit's D and tilted N on the plug-in's 64-node rule, and
    their product over visits, against scipy's adaptive quadrature; each
    (c0, c1, s) is the model row (c0, c1, s, 0, 0, 1)."""
    c = [(1.2, 0.3, 0.5), (-0.8, -0.4, 0.9), (2.5, 0.6, -0.7)]
    model = [row + (0.0, 0.0, 1.0) for row in c]
    x = np.linspace(-3.0, 3.0, 13)
    xi, w = gauss_hermite_normal(0.0, 1.0, calibration._PI_NODES)
    want = np.ones(x.size)
    for row, visit in zip(c, model):
        d, n = visit_product([visit], x, xi, w, beta3=[1.0])
        for i, xv in enumerate(x):
            assert abs(d[i] - _normal_moment(*row, xv, 0)) <= 1e-10
            assert abs(n[i] - _normal_moment(*row, xv, 1)) <= 1e-10
        want *= [_normal_moment(*row, xv, 0) for xv in x]
    assert np.max(np.abs(visit_product(model, x, xi, w) - want)) <= 1e-10


def _outcome(p):
    """null_stratum_effect's value, or its refusal as (type, message)."""
    try:
        return null_stratum_effect(p)
    except QuadratureError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("overrides", [
    dict(gamma0=-800.0),
    dict(gamma3=[40.0, 40.0, 40.0]),
    dict(gamma0=-700.0, gamma3=[60.0, 60.0, 60.0])])
def test_rows_past_the_exp_guard_keep_the_per_cell_logistic(overrides,
                                                            monkeypatch):
    """Exponents beyond +-700 on the 128-node rule: no warning,
    the per-cell bits, and the same refusal as the per-cell kernel."""
    p = params(**overrides)
    xs, _ = gauss_hermite_normal(p.mu_x, p.sigma_x, 128)
    xi, w = gauss_hermite_normal(0.0, 1.0, 128)
    model = [(p.gamma0 + p.gamma2, p.gamma1, g3, a0 + a2, a1, p.sigma_eta)
             for g3, a0, a1, a2 in zip(p.gamma3, p.alpha0, p.alpha1,
                                       p.alpha2)]
    with monkeypatch.context() as m:
        m.setattr(quadrature, "visit_product", _reference_product)
        want = _outcome(p)
    assert not isinstance(want, float)  # each of these is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(p) == want
        for beta3 in (None, p.beta3):
            got = visit_product(model, xs, xi, w, beta3)
            ref = _reference_product(model, xs, xi, w, beta3)
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def _outcome_null_points(seed, count):
    """Outcome-null models drawn uniformly from the quad-sweep box:
    alpha2 = beta2 = 0, |gamma2| in [0.25, 2] with a random sign."""
    rng = np.random.default_rng(seed)

    def u(lo, hi, size=None):
        return np.asarray(rng.uniform(lo, hi, size)).tolist()

    for _ in range(count):
        k = int(rng.integers(1, 6))
        yield validate(dict(
            K=k, mu_x=u(-1.0, 1.0), sigma_x=u(0.5, 2.0),
            alpha0=u(-1.0, 1.0, k), alpha1=u(-1.0, 1.0, k),
            alpha2=[0.0] * k, beta0=u(-1.0, 1.0), beta1=u(-1.0, 1.0),
            beta2=0.0, beta3=u(-1.0, 1.0, k), sigma_eta=u(0.25, 2.0),
            sigma_eps=1.0, gamma0=u(-2.0, 3.0), gamma1=u(-1.0, 1.0),
            gamma2=float(rng.choice((-1.0, 1.0))) * u(0.25, 2.0),
            gamma3=u(-2.0, 2.0, k)))


def test_sweep_points_keep_their_outcome(monkeypatch):
    """Over 200 outcome-null models each point keeps the per-cell
    kernel's outcome: the same refusal, or a value within 1e-14."""
    kinds = Counter()
    for p in _outcome_null_points(7, 200):
        got = _outcome(p)
        with monkeypatch.context() as m:
            m.setattr(quadrature, "visit_product", _reference_product)
            want = _outcome(p)
        if isinstance(want, float):
            assert isinstance(got, float) and abs(got - want) <= 1e-14
        else:
            assert not isinstance(got, float) and got[0] is want[0]
        kinds["value" if isinstance(want, float) else want[0].__name__] += 1
    assert kinds["value"] > 0 and kinds["RefinementError"] > 0


def test_outcome_pathway_adds_the_patient_level_effect():
    """delta = beta2 + sum_k beta3_k alpha2_k adds to the selection term,
    and alpha2 moves arm 1's adherence intercepts by gamma3_k alpha2_k."""
    base = null_stratum_effect(params())
    assert null_stratum_effect(params(beta2=0.3)) == 0.3 + base
    # alpha2 = a and alpha0 = a give arm 1 the same adherence; only the
    # first adds sum_k beta3_k a_k to the contrast
    a = [0.2, -0.1, 0.3]
    delta = sum(0.4 * ak for ak in a)
    shifted = null_stratum_effect(params(alpha2=a))
    assert abs(shifted - (delta + null_stratum_effect(params(alpha0=a)))) \
        <= 1e-15
    # gamma2 only moves adherence: the selection term alone
    assert null_stratum_effect(params(gamma2=2.0)) > 0.0


def test_degenerate_intermediates_return_delta():
    assert null_stratum_effect(params(sigma_eta=0.0, beta2=0.3)) == 0.3
    p = params(sigma_eta=0.0, beta2=0.3, alpha2=[0.5, 0.0, 0.0])
    assert null_stratum_effect(p) == 0.3 + 0.4 * 0.5


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
    # delta = 0: the refined integral itself, bit for bit
    assert refined == quadrature._evaluate(DEMO, 128, 128)

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


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=4))
def test_mc_cross_check_whole_model(data, k):
    """The closed form against the streamed Monte Carlo oracle with every
    treatment pathway open: alpha2, beta2, gamma2 and signed loadings."""
    def num(lo, hi):
        return data.draw(st.floats(min_value=lo, max_value=hi))

    def vec(lo, hi):
        return [num(lo, hi) for _ in range(k)]

    p = params(K=k, alpha0=vec(-0.5, 0.5), alpha1=vec(-0.5, 0.5),
               alpha2=vec(-0.5, 0.5), beta2=num(-0.5, 0.5),
               beta3=vec(-1.0, 1.0), sigma_eta=num(0.3, 1.5),
               sigma_eps=0.5, gamma0=num(0.0, 2.0), gamma1=num(-0.5, 0.5),
               gamma2=num(-1.5, 1.5), gamma3=vec(-1.0, 1.0))
    cfg = ScenarioConfig(params=p, n=200_000,
                         seed=data.draw(st.integers(0, 2**64 - 1)))
    quad = null_stratum_effect(p)
    est = oracle_effect(stratum_sums(cfg, (S_TREATED,)), S_TREATED)
    assert abs(quad - est.value) <= 4.0 * est.se
