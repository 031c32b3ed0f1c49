"""Closed-form stratum effect under an outcome-null model, by quadrature.

When the experimental assignment moves neither the intermediates' means
(alpha2 = 0) nor the outcome directly (beta2 = 0), the outcome contrast
y(1) - y(0) reduces to the intermediate-noise terms weighted by beta3
plus exchangeable residual noise.  Conditioning on adherence under the
experimental arm then tilts each intermediate's noise eta_k by the
adherence weights, and the treated-adherent stratum effect becomes a
ratio of Gaussian expectations:

    effect = E_x[ sum_k beta3_k * N_k(x) * prod_{k' != k} D_k'(x) ]
             / E_x[ prod_k D_k(x) ]

with, for xi ~ N(0, sigma_eta^2),

    D_k(x) = E_xi[ w_k(x, xi) ]        (adherence weight at visit k)
    N_k(x) = E_xi[ xi * w_k(x, xi) ]   (noise tilted by that weight)
    w_k(x, xi) = expit((gamma0 + gamma2 + gamma3_k*alpha0_k)
                       + (gamma1 + gamma3_k*alpha1_k) * x
                       + gamma3_k * xi)

Every factor is a one-dimensional Gaussian integral, evaluated by
Gauss-Hermite quadrature.  gamma2 enters because adherence is evaluated
under the experimental arm; a nonzero gamma2 leaves the outcome pathway
null but changes who adheres, which is exactly the regime where
control-arm calibration stops matching this quantity.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit

from .params import ModelParams, is_outcome_null

# Relative agreement required between the result at n nodes and at 2n.
_REL_TOL = 1e-9
# Absolute slack for the refinement check: regimes whose exact value is 0
# produce node-level noise around 1e-17 where a relative test is meaningless.
_ABS_FLOOR = 1e-12


class QuadratureError(ValueError):
    """The closed form does not apply, or the evaluation degenerated."""


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


def gauss_hermite_normal(mu: float, sigma: float, nodes: int):
    """Nodes and weights turning sum(w * f(p)) into E[f(N(mu, sigma^2))]."""
    h, w = np.polynomial.hermite.hermgauss(nodes)
    return mu + math.sqrt(2.0) * sigma * h, w / math.sqrt(math.pi)


def _evaluate(p: ModelParams, nodes_x: int, nodes_xi: int) -> float:
    xs, wx = gauss_hermite_normal(p.mu_x, p.sigma_x, nodes_x)
    xis, wxi = gauss_hermite_normal(0.0, p.sigma_eta, nodes_xi)

    dks = []
    nks = []
    for k in range(p.K):
        c0 = p.gamma0 + p.gamma2 + p.gamma3[k] * p.alpha0[k]
        c1 = p.gamma1 + p.gamma3[k] * p.alpha1[k]
        w = expit(c0 + c1 * xs[:, None] + p.gamma3[k] * xis[None, :])
        dks.append(w @ wxi)
        nks.append(w @ (wxi * xis))

    den_x = np.ones(nodes_x)
    for dk in dks:
        den_x = den_x * dk
    num_x = np.zeros(nodes_x)
    for k in range(p.K):
        term = p.beta3[k] * nks[k]
        for kk in range(p.K):
            if kk != k:
                term = term * dks[kk]
        num_x = num_x + term

    den = float(wx @ den_x)
    if den <= 0.0:
        raise QuadratureError("adherence probability underflowed to zero")
    return float(wx @ num_x) / den


def null_stratum_effect(params: ModelParams, nodes: int = 64) -> float:
    """Treated-adherent stratum effect on y under an outcome-null model.

    Requires alpha2 = 0 and beta2 = 0 (the stratum effect has a closed
    form only when the outcome pathway is null); gamma2 may be nonzero.
    The result at ``nodes`` nodes per dimension is re-evaluated at twice
    as many and the refined value is returned; a relative gap above 1e-9
    raises RefinementError carrying both values.
    """
    if nodes < 2:
        raise ValueError("node count must be >= 2")
    if not is_outcome_null(params):
        raise QuadratureError(
            "closed form requires an outcome-null model "
            f"(alpha2 = 0 and beta2 = 0); got alpha2={params.alpha2}, "
            f"beta2={params.beta2!r} - use the Monte Carlo oracle instead"
        )
    if params.sigma_eta == 0.0:
        # degenerate intermediates: nothing to tilt, the effect is exactly 0
        return 0.0

    coarse = _evaluate(params, nodes, nodes)
    fine = _evaluate(params, 2 * nodes, 2 * nodes)
    if abs(fine - coarse) > max(_REL_TOL * max(abs(fine), abs(coarse)),
                                _ABS_FLOOR):
        raise RefinementError(coarse, fine)
    return fine
