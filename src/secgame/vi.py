"""Box-constrained variational inequality assembled from a game model.

The simultaneous first-order conditions of all retailers are encoded as the
VI: find X* in the box K with F(X*)^T (X - X*) >= 0 for every feasible X,
where X stacks (Q row-major, then u) and F stacks

* F1[x, y]  -- marginal cost minus marginal revenue of shipping Q[x, y],
* F2[x]     -- marginal investment cost minus marginal security benefit.

F1 and the marginal benefit g are affine in X, [F1, g] = X @ L + c, and
F2 = 1/(1 - u) - g; ViProblem builds L and c once, and both layouts below
evaluate that one map.

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

import copy
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
    """A variational inequality F over a box: lower <= X <= upper.

    The operator and every method take a flat point of length dim or a
    (k, dim) stack of points, one per row; the residual of a stack is one
    value per row.
    """

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

    def rows(self, index):
        """The VI of the rows ``index`` of a stack; every row shares this one."""
        return self

    def project(self, x):
        """Componentwise clamp onto the box; idempotent and nonexpansive."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != self.lower.shape:
            raise ValueError(f"expected vector of length {self.dim}")
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def natural_residual(self, x, fx=None):
        """Sup-norm of X - P_K[X - F(X)]; zero exactly at VI solutions."""
        x = np.asarray(x, dtype=float)
        if fx is None:
            fx = self.operator(x)
        res = np.abs(x - self.project(x - fx)).max(axis=-1)
        return float(res) if x.ndim == 1 else res

    def evaluate(self, x):
        """(F(x), natural residual at x), the two readings of one iterate."""
        fx = self.operator(x)
        return fx, self.natural_residual(x, fx)

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def default_start(self):
        return self.project(np.zeros(self.dim))


def _affine_map(model: ModelSpec):
    """(L, c) with [F1, g] = X @ L + c at a flat point X = (Q, u).

    With S_y the total shipped into market y, ubar the mean level and
    DM = D * mu (D alone in the literal variant),

        F1[x, y] = (2 a s - alpha_y) Q[x, y] - alpha_y S_y - gamma_y ubar
                   + c_x + b s - kappa_y,
        g[x]     = DM_x (1 - ubar) + DM_x (1 - u_x) / m + sum_y gamma_y Q[x, y] / m.

    Column j of L holds the coefficients of output j; the diagonal of its
    Q block is dF1[x, y]/dQ[x, y] = 2 a s - 2 alpha.
    """
    m, n = model.m, model.n
    mn = m * n
    M = model.mu_vec if model.loss_gradient_includes_multiplier else 1.0
    dm = model.D_vec * M / m
    gamma = model.gamma_vec / m
    q = np.arange(mn)
    x, y = np.divmod(q, n)  # retailer and market of shipment q = x * n + y
    L = np.zeros((mn + m, mn + m))
    # Q -> F1: a shipment lowers its market's price for every retailer
    # (-alpha) and raises its own marginal cost as well (2 a s - 2 alpha in all).
    L[:mn, :mn] = np.where(y[:, None] == y, -model.alpha_vec[y], 0.0)
    L[q, q] = (2.0 * model.cost_a * model.cost_s - 2.0 * model.alpha_vec).ravel()
    # u -> F1: each level raises every price by gamma / m.
    L[mn:, :mn] = -gamma[y]
    # Q -> g: an own shipment raises the benefit by gamma / m.
    L[q, mn + x] = gamma[y]
    # u -> g: each level lowers every benefit by DM / m, the own one twice.
    L[mn:, mn:] = -dm - np.diag(dm)
    c = np.concatenate([(model.c_vec[:, None] + model.cost_b * model.cost_s
                         - model.kappa_vec).ravel(), model.D_vec * M + dm])
    return L, c


def _apply_map(x, L, c):
    """[F1, g] = x @ L + c at a flat point or at each row of a stack.

    Each row is its own vector-matrix product, so its bits do not depend on
    the other rows of the stack (a 2-d x @ L is a matrix product, which
    rounds differently).  L may hold one matrix per row.
    """
    out = np.vecmat(x, L)
    out += c
    return out


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
        self._L, self._c = _affine_map(model)

    def _assemble(self, x):
        """F at a flat point, or at each row of a (k, dim) stack of points."""
        mn = self._mn
        v = 1.0 - x[..., mn:]
        if v.min() <= 0.0:
            raise ValueError("operator undefined at security level >= 1")
        out = _apply_map(x, self._L, self._c)
        np.subtract(1.0 / v, out[..., mn:], out=out[..., mn:])
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
    """Solve-time view of ViProblems in Jacobi-scaled coordinates (z, w).

    z = sigma * Q with sigma[x, y] = sqrt(2 a[x, y] s[x, y] - 2 alpha[y]), the
    square root of dF1[x, y]/dQ[x, y], and w_x = -ln(1 - u_x), each
    retailer's security spend.  Box: 0 <= z <= sigma * q_upper and
    0 <= w <= -ln(1 - problem.upper[u]), which is min(B, -ln(1 - U_CAP)).
    Operator: (F1 / sigma, G) with G = w - ln max(g, 1), from the problem's
    affine map [F1, g] at the mapped point Q = z / sigma, u = 1 - exp(-w).
    natural_residual is the (Q, u) natural residual of the mapped point, so
    a tolerance keeps its meaning.  to_u / from_u convert points between the
    two layouts.

    InvestmentVi(problem) views one problem, and every row of a stack of
    points belongs to it.  InvestmentVi(p_1, ..., p_k), problems of one
    shape, views them as one stack: its points are (k, dim) stacks whose
    row i belongs to p_i, and ``rows`` restricts it to some of its rows.

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

    def __init__(self, *problems: ViProblem):
        first = problems[0]
        mn = first._mn
        if any((p._m, p._n) != (first._m, first._n) for p in problems):
            raise ValueError("stacked problems must have one shape")
        self.problems = problems
        self._mn = mn
        if len(problems) == 1:
            self._L, self._c, self._u_upper = first._L, first._c, first.upper
        else:
            self._L = np.array([p._L for p in problems])
            self._c = np.array([p._c for p in problems])
            self._u_upper = np.array([p.upper for p in problems])
        # (sigma, 1): takes Q to z in from_u and F1 to F1 / sigma in the operator.
        # sigma^2 = 2 a s - 2 alpha is the Q block's diagonal of L, positive
        # and finite because the model requires a >= 0, s > 0, alpha < 0.
        self._scale = np.ones(self._c.shape)
        self._scale[..., :mn] = np.sqrt(np.diagonal(self._L, axis1=-2, axis2=-1)[..., :mn])
        self.lower = first.lower
        self.upper = self.from_u(self._u_upper)

    def rows(self, index):
        """The view of the rows ``index`` of this stack."""
        if len(self.problems) == 1:
            return self
        view = copy.copy(self)
        view.problems = tuple(self.problems[i] for i in index)
        for name in ("_scale", "_L", "_c", "_u_upper", "upper"):
            setattr(view, name, getattr(self, name)[index])
        return view

    def to_u(self, x):
        """(z, w) point or stack -> (Q, u) inside the problem's box."""
        xu = np.asarray(x, dtype=float) / self._scale
        u = xu[..., self._mn:]
        np.negative(np.expm1(np.negative(u, out=u), out=u), out=u)
        # One clamp keeps both blocks in the box: z / sigma can round one ulp
        # above q_upper and 1 - exp(-w) one ulp above the level cap.
        return np.minimum(xu, self._u_upper, out=xu)

    def from_u(self, x):
        """(Q, u) point or stack with u < 1 -> (z, w)."""
        out = np.asarray(x, dtype=float) * self._scale
        out[..., self._mn:] = -np.log1p(-out[..., self._mn:])
        return out

    def default_start(self):
        """The problems' default starts mapped to (z, w); a stack of them
        for a stack of problems."""
        if len(self.problems) == 1:
            return self.from_u(self.problems[0].default_start())
        return self.from_u(np.array([p.default_start() for p in self.problems]))

    def _evaluate(self, x):
        """The operator at x, the mapped point and [F1, g] there."""
        mn = self._mn
        xu = self.to_u(x)
        fg = _apply_map(xu, self._L, self._c)
        out = fg / self._scale
        level = out[..., mn:]
        np.log(np.maximum(level, 1.0, out=level), out=level)
        np.subtract(x[..., mn:], level, out=level)
        return out, xu, fg

    def operator(self, x):
        return self._evaluate(x)[0]

    def evaluate(self, x):
        """The operator at x and the (Q, u) natural residual of the mapped
        point, from one evaluation of the map.

        The residual's (Q, u) operator is [F1, 1/v - max(g, 1)] (v = 1 - u).
        1/v - max(g, 1) is F2 where g >= 1; where g < 1 both it and F2 are
        at least u / v >= u, so the level's natural residual is u either way.
        """
        out, xu, fu = self._evaluate(x)
        level = fu[..., self._mn:]
        np.subtract(1.0 / (1.0 - xu[..., self._mn:]), np.maximum(level, 1.0, out=level),
                    out=level)
        res = np.maximum.reduce(
            np.abs(xu - np.minimum(np.maximum(xu - fu, 0.0), self._u_upper)), axis=-1)
        return out, float(res) if xu.ndim == 1 else res

    def natural_residual(self, x):
        """Sup-norm (Q, u) natural residual at the mapped point (see evaluate)."""
        return self.evaluate(x)[1]


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
    points at all k rows go to the model's value function in one call, so
    the differences share no code with the operator assembly.  The operator
    itself is evaluated once on the whole (k, dim) stack, through the same
    assembly the solver calls.
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
        obj = -problem.model.expected_utility(xi, Qp, up)
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
    frozen; the oracle evaluates -expected_utility, the model's value
    function, so it shares no code with the operator assembly.  Relative
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
