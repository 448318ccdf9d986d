"""Economic model of the multi-retailer cybersecurity investment game.

Retailers ship product quantities Q[x, y] into demand markets and choose a
security level u[x] in [0, 1).  Market prices fall linearly in total demand
and rise with the network-wide mean security level; a successful attack
costs retailer x a fixed loss, weighted by an attack probability that decays
as both its own and the network's security levels rise.  The module holds
the parameter types and one value function, ModelSpec.expected_utility,
which evaluates a retailer's payoff at one point or at a broadcast stack of
points.  Evaluation is pure and side-effect free; a ModelSpec is immutable
after construction and safe to share across concurrent solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TransactionCostParams",
    "MarketParams",
    "RetailerParams",
    "ModelSpec",
]


def _require_finite(params, names):
    """Reject NaN and +-inf, which pass every ordered comparison test."""
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ValueError(f"{name} must be a finite number")


@dataclass(frozen=True)
class TransactionCostParams:
    """Quadratic trading cost (a*q**2 + b*q) * s for one retailer-market pair."""

    a: float
    b: float
    s: float

    def __post_init__(self):
        _require_finite(self, ("a", "b", "s"))
        if self.a < 0.0:
            raise ValueError("quadratic coefficient a must be nonnegative")
        if self.s <= 0.0:
            raise ValueError("cost scale s must be positive")


@dataclass(frozen=True)
class MarketParams:
    """Affine inverse demand: price = alpha * demand + gamma * mean_security + kappa."""

    alpha: float
    gamma: float
    kappa: float

    def __post_init__(self):
        _require_finite(self, ("alpha", "gamma", "kappa"))
        if self.alpha >= 0.0:
            raise ValueError("demand slope alpha must be negative")
        if self.kappa <= 0.0:
            raise ValueError("price intercept kappa must be positive")


@dataclass(frozen=True)
class RetailerParams:
    """One retailer: handling cost c, security budget B, attack loss D,
    market share t, attack multiplier mu, and one TransactionCostParams
    per market.

    The share t is metadata: no model function reads it.  The built-in
    scenario family derives the other fields from it, and share sweeps
    rebuild them from it.
    """

    c: float
    B: float
    D: float
    t: float
    mu: float
    costs: tuple[TransactionCostParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "costs", tuple(self.costs))
        _require_finite(self, ("c", "B", "D", "t", "mu"))
        if self.B <= 0.0:
            raise ValueError("budget B must be positive")
        if self.D < 0.0:
            raise ValueError("attack loss D must be nonnegative")
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("market share t must lie in [0, 1]")
        if self.mu < 0.0:
            raise ValueError("attack multiplier mu must be nonnegative")


@dataclass(frozen=True)
class ModelSpec:
    """Full game definition: m retailers, n markets, and their parameters.

    ``q_upper`` bounds every transaction quantity.  When
    ``loss_gradient_includes_multiplier`` is true (the default) the
    stationarity condition for u differentiates the full expected attack
    loss D * mu * (1 - u)(1 - mean u); the alternative mode drops the mu
    factor from that derivative only, and is kept as a switchable variant
    for reconciliation runs.
    """

    m: int
    n: int
    retailers: tuple[RetailerParams, ...]
    markets: tuple[MarketParams, ...]
    q_upper: float = 100.0
    loss_gradient_includes_multiplier: bool = True

    def __post_init__(self):
        object.__setattr__(self, "retailers", tuple(self.retailers))
        object.__setattr__(self, "markets", tuple(self.markets))
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one retailer and one market")
        if len(self.retailers) != self.m:
            raise ValueError(f"expected {self.m} retailers, got {len(self.retailers)}")
        if len(self.markets) != self.n:
            raise ValueError(f"expected {self.n} markets, got {len(self.markets)}")
        for x, r in enumerate(self.retailers):
            if len(r.costs) != self.n:
                raise ValueError(f"retailer {x + 1} needs {self.n} transaction cost entries")
        _require_finite(self, ("q_upper",))
        if self.q_upper <= 0.0:
            raise ValueError("q_upper must be positive")

    # Parameter vectors used by the operator assembly; cached, never mutated.
    @cached_property
    def c_vec(self):
        return np.array([r.c for r in self.retailers])

    @cached_property
    def B_vec(self):
        return np.array([r.B for r in self.retailers])

    @cached_property
    def D_vec(self):
        return np.array([r.D for r in self.retailers])

    @cached_property
    def mu_vec(self):
        return np.array([r.mu for r in self.retailers])

    @cached_property
    def alpha_vec(self):
        return np.array([mk.alpha for mk in self.markets])

    @cached_property
    def gamma_vec(self):
        return np.array([mk.gamma for mk in self.markets])

    @cached_property
    def kappa_vec(self):
        return np.array([mk.kappa for mk in self.markets])

    @cached_property
    def cost_a(self):
        return np.array([[tc.a for tc in r.costs] for r in self.retailers])

    @cached_property
    def cost_b(self):
        return np.array([[tc.b for tc in r.costs] for r in self.retailers])

    @cached_property
    def cost_s(self):
        return np.array([[tc.s for tc in r.costs] for r in self.retailers])

    def expected_utility(self, x, Q, u):
        """Retailer x's profit net of expected attack loss and investment cost.

        Profit is revenue at the market prices alpha * demand + gamma * mean u
        + kappa, less the handling cost c and the transaction costs
        (a q^2 + b q) s of the retailer's shipments; the expected loss is
        D * mu * (1 - u_x)(1 - mean u) and the investment cost -ln(1 - u_x).
        ``Q`` has shape (..., m, n) and ``u`` shape (..., m); their leading
        shapes broadcast against each other and give the shape of the result,
        so a single point gives a numpy float.
        """
        if not 0 <= x < self.m:
            raise IndexError(f"retailer index {x} out of range")
        Q = np.asarray(Q, dtype=float)
        u = np.asarray(u, dtype=float)
        if Q.shape[-2:] != (self.m, self.n) or u.shape[-1:] != (self.m,):
            raise ValueError(f"expected Q of shape (..., {self.m}, {self.n}) and u of "
                             f"shape (..., {self.m}), got {Q.shape} and {u.shape}")
        np.broadcast_shapes(Q.shape[:-2], u.shape[:-1])  # ValueError on mismatch
        if np.any(u < 0.0) or np.any(u >= 1.0):
            raise ValueError("security levels must lie in [0, 1)")
        r = self.retailers[x]
        row = Q[..., x, :]
        u_x = u[..., x]
        u_bar = u.mean(axis=-1)
        rho = self.alpha_vec * Q.sum(axis=-2) + self.gamma_vec * u_bar[..., None] \
            + self.kappa_vec
        trans = (self.cost_a[x] * row * row + self.cost_b[x] * row) * self.cost_s[x]
        # vecdot, not (rho * row).sum(), keeps the summation of rho @ row.
        profit = np.vecdot(rho, row) - r.c * row.sum(axis=-1) - trans.sum(axis=-1)
        return profit - r.D * ((1.0 - u_x) * (1.0 - u_bar) * r.mu) + np.log1p(-u_x)
