"""Closed-form treated-adherent stratum effect, by quadrature.

The outcome contrast is

    y(1) - y(0) = delta + sum_k beta3_k * (eta_k(1) - eta_k(0))
                  + eps(1) - eps(0)

with delta = beta2 + sum_k beta3_k * alpha2_k, the patient-level average
effect.  Adherence under the experimental arm reads only x and eta(1),
so given x the eta(0) and eps terms are independent of it and average
to 0 in the stratum.  Conditioning on that adherence tilts each noise
eta_k(1) by the adherence weights, and the treated-adherent stratum
effect is delta plus a selection term, a ratio of Gaussian expectations:

    effect = delta + E_x[ sum_k beta3_k * N_k(x) * prod_{k' != k} D_k'(x) ]
                     / E_x[ prod_k D_k(x) ]

with, for xi ~ N(0, sigma_eta^2),

    D_k(x) = E_xi[ w_k(x, xi) ]        (adherence weight at visit k)
    N_k(x) = E_xi[ xi * w_k(x, xi) ]   (noise tilted by that weight)

and w_k(x, xi) the adherence weight of arm 1's visit model at
eta_k = xi, whose ``visit_product`` row for visit k is (gamma0 + gamma2,
gamma1, gamma3_k, alpha0_k + alpha2_k, alpha1_k, sigma_eta).  The eta_k
are independent across visits, so the expectation factors visit by
visit, and ``visit_product`` evaluates each factor by Gauss-Hermite
quadrature and forms both the product over visits and the sum above;
the plug-in estimator's marginal adherence weight is that product too,
from the fitted rows.  gamma2 and alpha2 enter the row because
adherence is evaluated under the experimental arm.  With alpha2 = 0 and
beta2 = 0 (an outcome null) a nonzero gamma2 changes who adheres but
not the outcome, which is exactly the regime where control-arm
calibration stops matching this quantity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .params import ModelParams

# Relative agreement required between the result at n nodes and at 2n.
_REL_TOL = 1e-9
# Absolute slack for the refinement check: regimes whose exact value is 0
# produce node-level noise around 1e-17 where a relative test is meaningless.
_ABS_FLOOR = 1e-12
# Largest |exponent| at which visit_product's factored logistic runs:
# e^700 and e^-700 are finite and nonzero (the limits are near 709 and
# -745), so no inf * 0 can form in the outer product.
_EXP_MAX = 700.0
# numpy's Gauss-Hermite rule has NaN weights from this many nodes up.
_NAN_NODES = 372


class QuadratureError(ValueError):
    """The closed form's evaluation degenerated."""


class RefinementError(QuadratureError):
    """Doubling the node count moved the result more than allowed."""

    def __init__(self, coarse: float, fine: float):
        self.coarse = coarse
        self.fine = fine
        super().__init__(
            "quadrature did not stabilize under node doubling: "
            f"{coarse!r} vs {fine!r} (rel_tol={_REL_TOL:g}); "
            "increase nodes"
        )


@functools.lru_cache(maxsize=None)
def _rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Hermite rule at ``nodes`` nodes, weights divided by
    sqrt(pi): built once per process and shared, so both arrays are
    read-only."""
    # NaN weights from _NAN_NODES: null_stratum_effect asks for none of them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / math.sqrt(math.pi)
    h.setflags(write=False)
    w.setflags(write=False)
    return h, w


def gauss_hermite_normal(mu: float, sigma: float, nodes: int):
    """Nodes and weights turning sum(w * f(p)) into E[f(N(mu, sigma^2))];
    the weights are the shared read-only array of ``_rule``."""
    h, w = _rule(nodes)
    return mu + math.sqrt(2.0) * sigma * h, w


def visit_product(model, x: np.ndarray, xi: np.ndarray, w: np.ndarray,
                  beta3=None):
    """prod_k D_k(x) at each x for arm 1's visit model ``model``, one row
    (g0, g1, g3, az, bz, sz) per visit: logit Pr(adhere at k) = g0 + g1*x
    + g3*Z_k with Z_k ~ N(az + bz*x, sz^2) given x.  So visit k's factor
    is D_k(x) = E[expit(c0 + c1*x + s*Xi)] for Xi ~ N(0, 1), with
    c0 = g0 + g3*az, c1 = g1 + g3*bz and s = g3*sz, from the
    standard-normal rule (xi, w) of ``gauss_hermite_normal``.  With
    ``beta3``, (prod_k D_k, sum_k beta3_k N_k prod_{k' != k} D_k') where
    N_k(x) = E[Xi * expit(c0 + c1*x + s*Xi)].  Reduced by numpy sums, not
    a matrix product: BLAS would tie the result to its thread count.

    The logistic factors over the grid: with a = c0 + c1*x and b = s*xi,
    expit(a_i + b_j) = 1 / (1 + e^-a_i * e^-b_j), so a visit takes
    x.size + xi.size exps instead of one per cell.  That form is used
    only when every |a| and |b| is at most _EXP_MAX, where both exps are
    finite and nonzero: their product can overflow to inf (giving the
    correct 0) but never forms inf * 0.  Any other row is evaluated
    cell by cell with scipy's expit."""
    # product rule: after visit k, den = prod D and num = sum_k beta3_k
    # N_k * prod_{k' != k} D_k', both over the visits so far
    den = np.ones(x.size)
    num = np.zeros(x.size)
    # one grid array for all visits, filled in place: a fresh 128 KiB
    # grid per visit and its product with xi made glibc trim and re-fault
    # the heap top, about 50 page faults per null_stratum_effect call,
    # unless an import had raised malloc's trim threshold (scipy's does)
    p = np.empty((x.size, xi.size))
    for k, (g0, g1, g3, az, bz, sz) in enumerate(model):
        a = (g0 + g3 * az) + (g1 + g3 * bz) * x
        b = (g3 * sz) * xi
        if np.abs(a).max() <= _EXP_MAX and np.abs(b).max() <= _EXP_MAX:
            with np.errstate(over="ignore"):
                np.multiply(np.exp(-a)[:, None], np.exp(-b), out=p)
            p += 1.0
            np.divide(w, p, out=p)
        else:
            # imported here, not at module level, so import stratabias
            # and the factored path load no scipy
            from scipy.special import expit
            expit(np.add(a[:, None], b, out=p), out=p)
            p *= w
        d = p.sum(axis=1)
        if beta3 is not None:
            p *= xi
            num = num * d + beta3[k] * p.sum(axis=1) * den
        den *= d
    return den if beta3 is None else (den, num)


def _evaluate(p: ModelParams, nodes_x: int, nodes_xi: int) -> float:
    """The selection term of the module docstring on a rule of nodes_x
    by nodes_xi nodes."""
    xs, wx = gauss_hermite_normal(p.mu_x, p.sigma_x, nodes_x)
    xi, wxi = gauss_hermite_normal(0.0, 1.0, nodes_xi)
    model = [(p.gamma0 + p.gamma2, p.gamma1, g3, a0 + a2, a1, p.sigma_eta)
             for g3, a0, a1, a2 in zip(p.gamma3, p.alpha0, p.alpha1,
                                       p.alpha2)]
    den, num = visit_product(model, xs, xi, wxi, p.beta3)
    total = float((wx * den).sum())
    if total <= 0.0:
        raise QuadratureError("adherence probability underflowed to zero")
    return p.sigma_eta * float((wx * num).sum()) / total


def null_stratum_effect(params: ModelParams, nodes: int = 64) -> float:
    """Treated-adherent stratum effect on y: delta plus the selection term.

    delta = beta2 + sum_k beta3_k * alpha2_k is the patient-level average
    effect.  The selection term at ``nodes`` nodes per dimension is
    re-evaluated at twice as many and the refined value is kept; a
    relative gap above 1e-9 raises RefinementError carrying both values.
    delta is added after that check, so the tolerance applies to the
    integral alone, and with delta = 0 the result is the integral.
    """
    if nodes < 2:
        raise ValueError("node count must be >= 2")
    delta = params.beta2 + sum(b * a for b, a in zip(params.beta3,
                                                     params.alpha2))
    if params.sigma_eta == 0.0:
        # degenerate intermediates: nothing to tilt, no selection term
        return delta

    # refused counts build no rule: each needs nodes^2 memory, then fails
    finite = 2 * nodes < _NAN_NODES
    if finite:
        coarse = _evaluate(params, nodes, nodes)
        fine = _evaluate(params, 2 * nodes, 2 * nodes)
        finite = math.isfinite(coarse + fine)
    if not finite:
        raise QuadratureError(f"non-finite value at {nodes} or {2 * nodes} nodes")
    if abs(fine - coarse) > max(_REL_TOL * max(abs(fine), abs(coarse)),
                                _ABS_FLOOR):
        raise RefinementError(coarse, fine)
    return delta + fine
