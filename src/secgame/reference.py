"""Reference problems with independently known solutions.

These are used to validate the solver against answers obtained without
running it: affine VIs whose solutions are fixed by construction through
their complementarity pattern, and tiny game instances whose equilibria
have closed forms.
"""

from __future__ import annotations

import math

import numpy as np

from .model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from .vi import BoxVi

__all__ = [
    "scalar_affine_vi",
    "affine_vi_10d",
    "single_retailer_model",
    "single_retailer_solution",
    "binding_budget_model",
    "binding_budget_solution",
    "decoupled_duopoly_model",
]


def scalar_affine_vi():
    """F(x) = x - 3 on [0, 10]; the unique solution is x = 3."""
    problem = BoxVi(lambda x: x - 3.0, [0.0], [10.0])
    return problem, np.array([3.0])


def affine_vi_10d():
    """A 10-d strongly monotone affine VI on [0, 10]^10 with a known solution.

    F(X) = A X + b with A the symmetric tridiagonal (-1, 4, -1) matrix.  The
    target solution has two components at the lower bound, two at the upper
    bound, and six strictly interior; b is chosen so the complementarity
    pattern certifies the target: F_i > 0 where x*_i = 0, F_i < 0 where
    x*_i = 10, F_i = 0 inside.  Returns (problem, x_star, A, b).
    """
    dim = 10
    A = 4.0 * np.eye(dim) - np.eye(dim, k=1) - np.eye(dim, k=-1)
    x_star = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 10.0])
    g = np.zeros(dim)
    g[:2] = 2.0
    g[-2:] = -2.0
    b = g - A @ x_star
    problem = BoxVi(lambda x: x @ A.T + b, np.zeros(dim), np.full(dim, 10.0))
    return problem, x_star, A, b


def _quadratic_market():
    return MarketParams(alpha=-2.0, gamma=0.0, kappa=40.0)


def single_retailer_model():
    """One retailer, one market, no attack exposure: a concave quadratic."""
    retailer = RetailerParams(c=4.0, B=2.0, D=0.0, t=0.5, mu=0.0,
                              costs=(TransactionCostParams(a=1.0, b=2.0, s=1.0),))
    return ModelSpec(m=1, n=1, retailers=(retailer,), markets=(_quadratic_market(),),
                     q_upper=100.0)


def single_retailer_solution():
    """Closed-form equilibrium (Q*, u*, lambda*) of single_retailer_model.

    With no loss (D = 0) and no security price effect (gamma = 0) the level
    and multiplier are 0 and Q solves c + 2a s Q + b s = alpha Q + kappa
    + alpha Q, i.e. Q* = (kappa - c - b s) / (2 a s - 2 alpha).
    """
    Q = (40.0 - 4.0 - 2.0) / (2.0 * 1.0 + 4.0)
    return np.array([Q, 0.0, 0.0])


def binding_budget_model():
    """One retailer whose unconstrained optimum exceeds its security budget."""
    retailer = RetailerParams(c=4.0, B=1.0, D=30.0, t=0.5, mu=1.5,
                              costs=(TransactionCostParams(a=1.0, b=2.0, s=1.0),))
    market = MarketParams(alpha=-2.0, gamma=0.4, kappa=40.0)
    return ModelSpec(m=1, n=1, retailers=(retailer,), markets=(market,))


def binding_budget_solution():
    """Closed-form constrained optimum (Q*, u*, lambda*) of binding_budget_model.

    The budget pins u* = 1 - exp(-B); Q* then solves the shipment
    stationarity condition at that level, and the multiplier follows from
    the KKT level condition:
    lambda* = (1 - u*) (2 D mu (1 - u*) + gamma Q*) - 1.
    """
    model = binding_budget_model()
    r = model.retailers[0]
    mk = model.markets[0]
    u = 1.0 - math.exp(-r.B)
    Q = (mk.kappa + mk.gamma * u - r.c - r.costs[0].b * r.costs[0].s) / \
        (2.0 * r.costs[0].a * r.costs[0].s - 2.0 * mk.alpha)
    lam = (1.0 - u) * (2.0 * r.D * r.mu * (1.0 - u) + mk.gamma * Q) - 1.0
    return np.array([Q, u, lam])


def decoupled_duopoly_model(off_market_b=1.0e6):
    """Two retailers that effectively trade in separate markets.

    No attack exposure or security price effects, and a prohibitive linear
    cost on each retailer's off market, so each retailer's block is
    independent of the other once the off-market quantities sit at zero.
    """
    markets = (MarketParams(alpha=-2.0, gamma=0.0, kappa=40.0),
               MarketParams(alpha=-1.0, gamma=0.0, kappa=50.0))
    r1 = RetailerParams(c=4.0, B=2.0, D=0.0, t=0.5, mu=0.0,
                        costs=(TransactionCostParams(a=1.0, b=2.0, s=1.0),
                               TransactionCostParams(a=1.0, b=off_market_b, s=1.0)))
    r2 = RetailerParams(c=4.0, B=2.0, D=0.0, t=0.5, mu=0.0,
                        costs=(TransactionCostParams(a=1.0, b=off_market_b, s=1.0),
                               TransactionCostParams(a=1.0, b=2.0, s=1.0)))
    return ModelSpec(m=2, n=2, retailers=(r1, r2), markets=markets)
