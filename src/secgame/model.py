"""Economic model of the multi-retailer cybersecurity investment game.

Retailers ship product quantities Q[x, y] into demand markets and choose a
security level u[x] in [0, 1).  Market prices fall linearly in total demand
and rise with the network-wide mean security level; a successful attack
costs retailer x a fixed loss, weighted by an attack probability that decays
as both its own and the network's security levels rise.  All evaluation here
is pure and side-effect free; a ModelSpec is immutable after construction
and safe to share across concurrent solves.
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
    "security_cost",
    "security_cost_deriv",
    "budget_gap",
    "mean_security",
    "attack_probability",
]


def security_cost(u):
    """Investment cost -ln(1 - u) of holding security level u; diverges at u = 1."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("security level must lie in [0, 1)")
    out = -np.log1p(-arr)
    return float(out) if arr.ndim == 0 else out


def security_cost_deriv(u):
    """Marginal investment cost 1 / (1 - u)."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("security level must lie in [0, 1)")
    out = 1.0 / (1.0 - arr)
    return float(out) if arr.ndim == 0 else out


def budget_gap(u, B):
    """Budget slack -ln(1 - u) - B; the level u is affordable iff the gap is <= 0."""
    if B <= 0.0:
        raise ValueError("budget must be positive")
    return security_cost(u) - B


def mean_security(u):
    """Network-wide security level: the arithmetic mean of all retailer levels."""
    arr = np.asarray(u, dtype=float)
    if arr.size == 0:
        raise ValueError("mean_security of an empty vector")
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise ValueError("security levels must lie in [0, 1)")
    return float(arr.mean())


def attack_probability(u_x, u_bar, mu):
    """Chance (1 - u_x)(1 - u_bar) * mu that an attack on retailer x succeeds.

    Nonincreasing in both the retailer's own level u_x and the network level
    u_bar.  ``mu`` scales base exposure (large retailers are attacked more);
    u_x = 1 or u_bar = 1 are accepted as limits where the probability is 0.
    """
    if not (0.0 <= u_x <= 1.0 and 0.0 <= u_bar <= 1.0):
        raise ValueError("security levels must lie in [0, 1]")
    if mu < 0.0:
        raise ValueError("attack multiplier must be nonnegative")
    return (1.0 - u_x) * (1.0 - u_bar) * mu


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

    def cost(self, q):
        return (self.a * q * q + self.b * q) * self.s

    def marginal(self, q):
        return (2.0 * self.a * q + self.b) * self.s


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

    def demand(self, Q, y):
        """Total quantity shipped into market y: the column sum of Q."""
        Q = np.asarray(Q, dtype=float)
        if not 0 <= y < self.n:
            raise IndexError(f"market index {y} out of range")
        return float(Q[:, y].sum())

    def price(self, y, Q, u):
        """Market y price at quantities Q and security levels u."""
        if not 0 <= y < self.n:
            raise IndexError(f"market index {y} out of range")
        mk = self.markets[y]
        return mk.alpha * self.demand(Q, y) + mk.gamma * mean_security(u) + mk.kappa

    def prices(self, Q, u):
        """All market prices as a length-n vector."""
        Q = np.asarray(Q, dtype=float)
        d = Q.sum(axis=0)
        return self.alpha_vec * d + self.gamma_vec * mean_security(u) + self.kappa_vec

    def profit(self, x, Q, u):
        """Retailer x trading profit: revenue minus handling and transaction costs."""
        if not 0 <= x < self.m:
            raise IndexError(f"retailer index {x} out of range")
        Q = np.asarray(Q, dtype=float)
        row = Q[x]
        rho = self.prices(Q, u)
        trans = sum(tc.cost(q) for tc, q in zip(self.retailers[x].costs, row))
        return float(rho @ row - self.retailers[x].c * row.sum() - trans)

    def expected_utility(self, x, Q, u):
        """Retailer x profit net of expected attack loss and investment cost."""
        if not 0 <= x < self.m:
            raise IndexError(f"retailer index {x} out of range")
        r = self.retailers[x]
        u = np.asarray(u, dtype=float)
        p = attack_probability(u[x], mean_security(u), r.mu)
        return self.profit(x, Q, u) - r.D * p - security_cost(u[x])

    def expected_utility_batch(self, x, Q, u):
        """expected_utility of retailer x at many points in one evaluation.

        ``Q`` has shape (..., m, n) and ``u`` shape (..., m); their leading
        shapes broadcast against each other and give the shape of the result.
        Equal to expected_utility up to the order of floating-point sums.
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
        profit = (rho * row).sum(axis=-1) - r.c * row.sum(axis=-1) - trans.sum(axis=-1)
        return profit - r.D * ((1.0 - u_x) * (1.0 - u_bar) * r.mu) + np.log1p(-u_x)
