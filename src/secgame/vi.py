"""Box-constrained variational inequality assembled from a game model.

The simultaneous first-order conditions of all retailers are encoded as the
VI: find X* in the box K with F(X*)^T (X - X*) >= 0 for every feasible X,
where X stacks (Q row-major, then u) and F stacks

* F1[x, y]  -- marginal cost minus marginal revenue of shipping Q[x, y],
* F2[x]     -- marginal investment cost minus marginal security benefit.

The budget -ln(1 - u_x) <= B_x is the plain bound u_x <= 1 - exp(-B_x), so
it is part of the box rather than a dualized constraint.  Its multiplier
follows from the KKT conditions of the solution, lambda_x =
max(0, -(1 - u_x) F2[x]), and ViProblem.split recovers it; the solution set
is that of the dualized formulation.  The flattened ordering is fixed so
iterate traces are comparable across implementations.

InvestmentVi is the same game seen in Jacobi-scaled coordinates (z, w) with
z = sigma * Q and w_x = -ln(1 - u_x), each retailer's security spend.  Both
changes of variable are strictly increasing in each player's own variables.
Its Q block F1 / sigma has unit Jacobian diagonal.  Its level block is
the level condition 1/(1 - u) = g (g the marginal security benefit) in log
form, w - ln max(g, 1), which meets the box-VI conditions exactly where
F2 = 1/(1 - u) - g does, so the equilibria and the KKT points are those of
ViProblem.  F2 grows like 1/(1 - u)^2 in slope; the log form's slope in w
is at least 1 and bounded over the whole box, so projection contraction
takes far fewer steps in (z, w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelSpec

__all__ = [
    "U_CAP",
    "level_caps",
    "DecisionVector",
    "BoxVi",
    "ViProblem",
    "InvestmentVi",
    "fd_check",
    "fd_check_random",
    "FdCheckReport",
    "FdDomainError",
]

# Hard cap on u strictly below 1 so -ln(1-u) stays finite; budgets above
# -ln(1 - U_CAP) ~ 13.8 leave it as the binding upper bound.
U_CAP = 0.999999


def level_caps(model: ModelSpec):
    """Each retailer's upper bound on u, its budget cap min(U_CAP, 1 - exp(-B))."""
    return np.minimum(U_CAP, -np.expm1(-model.B_vec))


@dataclass
class DecisionVector:
    """Decision variables (Q, u) of all retailers and the budget multipliers.

    Flat layout: all of Q row-major, then u.  The multipliers lambda are not
    VI coordinates; ViProblem.split recovers them from the KKT conditions,
    and a start point leaves them at zero.
    """

    Q: np.ndarray
    u: np.ndarray
    lam: np.ndarray = None

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.lam = np.asarray(np.zeros(self.u.shape) if self.lam is None else self.lam,
                              dtype=float)
        if self.Q.ndim != 2 or not self.u.shape == self.lam.shape == self.Q.shape[:1]:
            raise ValueError("inconsistent shapes for (Q, u, lambda)")

    def flat(self):
        return np.concatenate([self.Q.ravel(), self.u])


class BoxVi:
    """A variational inequality F over a box: lower <= X <= upper."""

    def __init__(self, operator, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be 1-d vectors of equal length")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        self._operator = operator

    @property
    def dim(self):
        return self.lower.size

    def operator(self, x):
        return self._operator(x)

    def project(self, x):
        """Componentwise clamp onto the box; idempotent and nonexpansive."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lower.shape:
            raise ValueError(f"expected vector of length {self.dim}")
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def natural_residual(self, x, fx=None):
        """Sup-norm of X - P_K[X - F(X)]; zero exactly at VI solutions."""
        x = np.asarray(x, dtype=float)
        if fx is None:
            fx = self.operator(x)
        return float(np.abs(x - self.project(x - fx)).max())

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def default_start(self):
        return self.project(np.zeros(self.dim))


class ViProblem(BoxVi):
    """The game VI: operator F(Q, u) plus the feasible box.

    Box: Q in [0, q_upper], u in [0, min(U_CAP, 1 - exp(-B))].
    Dimension m*n + m.
    """

    def __init__(self, model: ModelSpec):
        self.model = model
        m, n = model.m, model.n
        self._m, self._n = m, n
        self._mn = m * n
        lower = np.zeros(m * n + m)
        upper = np.concatenate([
            np.full(m * n, model.q_upper),
            level_caps(model),
        ])
        super().__init__(self._assemble, lower, upper)
        # Pre-fused parameter arrays for the hot path: F1 collapses to
        # quad_coef * Q + const - (alpha * d + gamma * ubar), the price
        # intercept kappa folded into const.
        self._quad_coef = 2.0 * model.cost_a * model.cost_s - model.alpha_vec
        self._f1_const = (model.c_vec[:, None] + model.cost_b * model.cost_s
                          - model.kappa_vec)
        self._alpha = model.alpha_vec
        self._gamma = model.gamma_vec
        self._gamma_over_m = model.gamma_vec / m
        M = model.mu_vec if model.loss_gradient_includes_multiplier else np.ones(m)
        self._DM = model.D_vec * M
        self._DM_over_m = self._DM / m

    def _blocks(self, Q, u, v):
        """F1 (m x n) and g (m,) at (Q, u), with v = 1 - u and F2 = 1/v - g.

        The one evaluation both layouts share: operator returns F2 = 1/v - g
        and InvestmentVi's level block is w - ln max(g, 1), the level
        condition 1/v = g in log form.  A stack of k points (Q of shape
        (k, m, n), u and v of shape (k, m)) gives F1 of shape (k, m, n) and
        g of shape (k, m), each row bit for bit that of its own call.
        """
        if u.ndim == 1:
            # A Python sum of the m levels costs a fraction of a numpy reduction.
            ubar = sum(u.tolist()) / self._m
            market = self._alpha * Q.sum(axis=0) + self._gamma * ubar
        else:
            # The same Python sum per row keeps each row's bits.
            ubar = np.array([sum(row) for row in u.tolist()])[:, None] / self._m
            market = (self._alpha * Q.sum(axis=1) + self._gamma * ubar)[:, None]
        f1 = self._quad_coef * Q
        f1 += self._f1_const
        f1 -= market
        g = self._DM * (1.0 - ubar) + self._DM_over_m * v + Q @ self._gamma_over_m
        return f1, g

    def _assemble(self, x):
        """F at a flat point, or at each row of a (k, dim) stack of points."""
        mn = self._mn
        stack = x.ndim == 2
        u = x[:, mn:] if stack else x[mn:]
        v = 1.0 - u
        if v.min() <= 0.0:
            raise ValueError("operator undefined at security level >= 1")
        if stack:
            f1, g = self._blocks(x[:, :mn].reshape(-1, self._m, self._n), u, v)
            return np.concatenate([f1.reshape(len(x), mn), 1.0 / v - g], axis=1)
        f1, g = self._blocks(x[:mn].reshape(self._m, self._n), u, v)
        out = np.empty(mn + self._m)
        out[:mn] = f1.ravel()
        out[mn:] = 1.0 / v - g
        return out

    def split(self, x):
        """View a flat (Q, u) point as a DecisionVector with its multipliers.

        lambda_x = max(0, -(1 - u_x) F2[x]) is the budget multiplier the KKT
        conditions assign at a solution: zero where the level condition
        holds, positive where the budget bound holds the level down.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected flat vector of length {self.dim}")
        m, n, mn = self._m, self._n, self._mn
        u = x[mn:].copy()
        lam = np.maximum(0.0, -(1.0 - u) * self.operator(x)[mn:])
        return DecisionVector(x[:mn].reshape(m, n).copy(), u, lam)

    def default_start(self):
        """The one default initial point: Q = min(1, q_upper), u = 0."""
        x0 = np.zeros(self.dim)
        x0[: self._mn] = 1.0
        return self.project(x0)


class InvestmentVi(BoxVi):
    """Solve-time view of a ViProblem in Jacobi-scaled coordinates (z, w).

    z = sigma * Q with sigma[x, y] = sqrt(2 a[x, y] s[x, y] - 2 alpha[y]), the
    square root of dF1[x, y]/dQ[x, y], and w_x = -ln(1 - u_x), each
    retailer's security spend.  Box: 0 <= z <= sigma * q_upper and
    0 <= w <= -ln(1 - problem.upper[u]), which is min(B, -ln(1 - U_CAP)).
    Operator: (F1 / sigma, G) with G = w - ln max(g, 1), from one evaluation
    of the problem's blocks at Q = z / sigma, u = 1 - exp(-w).
    natural_residual is the (Q, u) natural residual of the mapped point, so
    a tolerance keeps its meaning.  to_u / from_u convert flat points
    between the two layouts.

    G and F2 = 1/v - g (v = 1 - u) give the same solutions because each
    level coordinate meets the box-VI conditions for G exactly when it
    meets them for F2:

    * where g > 1, G = -ln(v g) has the sign of F2;
    * where g <= 1, F2 >= 1 - g >= 0 and G = w >= 0: both satisfy the
      lower-bound condition at w = 0 and both are positive for w > 0.

    The floor 1 is where the target ln g meets the bound w = 0, not a tuning
    constant: a larger floor would flip the sign for 1 < g < floor.  It also
    keeps ln away from g <= 0 (no losses, D = 0, or a negative gamma).
    dG/dw_x = 1 + 2 D M v / (m g) where g > 1: at least 1, and at most 3
    when gamma >= 0 because then g >= D M v / m.  So the view is well scaled
    over the whole box, not only near a solution.
    """

    def __init__(self, problem: ViProblem):
        self.problem = problem
        model = problem.model
        m, n, mn = problem._m, problem._n, problem._mn
        self._m, self._n, self._mn = m, n, mn
        # Positive and finite: the model requires a >= 0, s > 0, alpha < 0.
        self._sigma = np.sqrt(2.0 * model.cost_a * model.cost_s - 2.0 * model.alpha_vec)
        # (sigma, 1): takes Q to z in from_u and F1 / sigma back to F1.
        self._scale = np.concatenate([self._sigma.ravel(), np.ones(m)])
        super().__init__(self._scaled_operator, problem.lower, self.from_u(problem.upper))

    def to_u(self, x):
        """Flat (z, w) point -> flat (Q, u) point inside the problem's box."""
        xu = np.asarray(x, dtype=float) / self._scale
        xu[self._mn:] = -np.expm1(-xu[self._mn:])
        # One clamp keeps both blocks in the box: z / sigma can round one ulp
        # above q_upper and 1 - exp(-w) one ulp above the level cap.
        return np.minimum(xu, self.problem.upper, out=xu)

    def from_u(self, x):
        """Flat (Q, u) point with u < 1 -> flat (z, w) point."""
        out = np.asarray(x, dtype=float) * self._scale
        out[self._mn:] = -np.log1p(-out[self._mn:])
        return out

    def default_start(self):
        """The problem's default start mapped to (z, w)."""
        return self.from_u(self.problem.default_start())

    def _scaled_operator(self, x):
        m, n, mn = self._m, self._n, self._mn
        xu = self.to_u(x)
        u = xu[mn:]
        v = 1.0 - u
        f1, g = self.problem._blocks(xu[:mn].reshape(m, n), u, v)
        out = np.empty(mn + m)
        np.divide(f1, self._sigma, out=out[:mn].reshape(m, n))
        np.subtract(x[mn:], np.log(np.maximum(g, 1.0, out=g), out=g), out=out[mn:])
        return out

    def natural_residual(self, x, fx=None):
        """Sup-norm (Q, u) natural residual at the mapped point.

        ``fx`` is this view's operator value at ``x``; multiplying its Q
        block by sigma recovers F1, and -expm1(-G) / v = 1/v - max(g, 1)
        recovers the level block without another evaluation.  That is F2
        where g >= 1; where g < 1 both it and F2 are at least u / v >= u, so
        the level's natural residual is u either way.
        """
        if fx is None:
            fx = self.operator(x)
        xu = self.to_u(x)
        fu = fx * self._scale
        fu[self._mn:] = -np.expm1(-fu[self._mn:]) / (1.0 - xu[self._mn:])
        return self.problem.natural_residual(xu, fu)


@dataclass
class FdCheckReport:
    """Agreement between the assembled operator and central finite differences."""

    max_rel_error: float
    worst_retailer: int
    worst_coordinate: str
    q_errors: np.ndarray
    u_errors: np.ndarray

    def __str__(self):
        return (f"max relative error {self.max_rel_error:.3e} "
                f"(retailer {self.worst_retailer + 1}, {self.worst_coordinate})")


# Bound on the Q entries of one fd_check_random batch (2(n+1) perturbed
# copies of each sample's m x n shipments), so memory stays flat for any
# --points value; at m = n = 2 one batch holds ~10 000 samples.
_FD_BATCH_VALUES = 1 << 18


class FdDomainError(ValueError):
    """The model's box is too narrow for central differences at the step.

    ``field`` names the model field that narrows it, as a path below the
    model: ``q_upper`` or ``retailers[<i>].B``.
    """

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def _check_step(step):
    if not 1e-7 <= step <= 1e-4:
        raise ValueError("step must lie in [1e-7, 1e-4]")


def _fd_errors(problem: ViProblem, X, step):
    """Relative errors of F1 and F2 at each row of ``X`` (k flat points).

    Retailer x's objective -expected_utility is differentiated in its own
    (Q row, u) block with rivals frozen.  Its 2(n+1) central-difference
    points at all k rows go to the model's batched value function in one
    call, so the differences share no code with the operator assembly.  The
    operator itself is evaluated once on the whole (k, dim) stack, through
    the same assembly the solver calls.
    Returns q_err of shape (k, m, n) and u_err of shape (k, m).
    """
    m, n, mn = problem._m, problem._n, problem._mn
    k = X.shape[0]
    margin = 2.0 * step
    if np.any(X < problem.lower + margin) or np.any(X > problem.upper - margin):
        raise ValueError("point too close to a bound for central differencing")

    F = problem.operator(X)
    F_own = np.concatenate([F[:, :mn].reshape(k, m, n), F[:, mn:, None]], axis=2)
    Q = X[:, None, :mn].reshape(k, 1, m, n)
    u = X[:, None, mn:]
    # Point 2j moves own coordinate j (Q[x, j] for j < n, then u[x]) by
    # +step, point 2j + 1 by -step.
    coord = np.repeat(np.arange(n + 1), 2)
    delta = np.tile([step, -step], n + 1)
    on_q = np.flatnonzero(coord < n)

    err = np.empty((k, m, n + 1))
    for xi in range(m):
        Qp = np.repeat(Q, 2 * (n + 1), axis=1)
        up = np.repeat(u, 2 * (n + 1), axis=1)
        Qp[:, on_q, xi, coord[on_q]] += delta[on_q]
        up[:, -2:, xi] += delta[-2:]
        obj = -problem.model.expected_utility_batch(xi, Qp, up)
        fd = (obj[:, 0::2] - obj[:, 1::2]) / (2.0 * step)
        f = F_own[:, xi]
        err[:, xi] = np.abs(f - fd) / np.maximum(1.0, np.maximum(np.abs(f), np.abs(fd)))
    return err[..., :n], err[..., n]


def _report(q_err, u_err):
    if q_err.max(initial=0.0) >= u_err.max(initial=0.0):
        xi, y = np.unravel_index(int(np.argmax(q_err)), q_err.shape)
        worst = (float(q_err[xi, y]), int(xi), f"Q_{xi + 1}_{y + 1}")
    else:
        xi = int(np.argmax(u_err))
        worst = (float(u_err[xi]), xi, f"u_{xi + 1}")
    return FdCheckReport(worst[0], worst[1], worst[2], q_err, u_err)


def fd_check(problem: ViProblem, x, step=1e-5):
    """Check F1 and F2 against central differences of each retailer's objective.

    Each retailer is differentiated in its own (Q row, u) block with rivals
    frozen; the oracle evaluates -expected_utility from the model's value
    functions, so it shares no code with the operator assembly.  Relative
    errors use the denominator max(1, |F|, |fd|).
    """
    _check_step(step)
    x = np.asarray(x, dtype=float)
    q_err, u_err = _fd_errors(problem, x[None], step)
    return _report(q_err[0], u_err[0])


def fd_check_random(problem: ViProblem, points=100, step=1e-5, seed=0):
    """Run fd_check at ``points`` interior samples; return the worst report.

    Samples stay away from the u singularity (u <= 0.9), the budget bound and
    the box faces so the finite-difference truncation error itself stays
    well below the tolerances being checked.  Samples are differenced in
    batches; the first sample with the largest error is reported.  A box
    with no sample at least 2 * step inside its faces raises FdDomainError.
    """
    if points < 1:
        raise ValueError("points must be positive")
    _check_step(step)
    rng = np.random.default_rng(seed)
    m, n, mn = problem._m, problem._n, problem._mn
    margin = 2.0 * step
    q_hi = problem.model.q_upper
    if 0.01 * q_hi < margin:
        raise FdDomainError("q_upper", f"q_upper {q_hi!r} leaves no interior shipment "
                                       f"for central differences at step {step!r}")
    caps = problem.upper[mn:]
    u_hi = np.minimum(0.9, caps - margin)
    u_lo = np.maximum(margin, np.minimum(0.02, 0.5 * u_hi))
    short = np.flatnonzero(u_hi < u_lo)
    if short.size:
        x = int(short[0])
        raise FdDomainError(f"retailers[{x}].B",
                            f"the budget cap {float(caps[x])!r} of retailer {x + 1} leaves no "
                            f"interior level for central differences at step {step!r}")
    # Per-column sampling range: Q in [0.01, 0.99] * q_upper, u in [u_lo, u_hi].
    lo = np.concatenate([np.full(mn, 0.01 * q_hi), u_lo])
    width = np.concatenate([np.full(mn, 0.99 * q_hi - 0.01 * q_hi), u_hi - u_lo])
    batch = max(1, _FD_BATCH_VALUES // (2 * (n + 1) * mn))
    worst = None
    for start in range(0, points, batch):
        # One draw per batch; lo + width * U is how rng.uniform maps each
        # value, so the stream is that of drawing the rows one by one.
        X = lo + width * rng.random((min(batch, points - start), mn + m))
        q_err, u_err = _fd_errors(problem, X, step)
        per_point = np.maximum(q_err.max(axis=(1, 2)), u_err.max(axis=1))
        i = int(np.argmax(per_point))
        if worst is None or per_point[i] > worst[0]:
            worst = (per_point[i], q_err[i], u_err[i])
    return _report(worst[1], worst[2])
