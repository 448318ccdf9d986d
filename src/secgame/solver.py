"""Self-adaptive projection-contraction solver for box-constrained VIs.

One iteration predicts a trial point by projecting a scaled operator step,
measures the shrinkage ratio r = beta * |F(X) - F(Xt)| / |X - Xt|, retries
with a smaller beta while r exceeds its upper limit, then corrects along the
direction d = (X - Xt) - beta * (F(X) - F(Xt)) with relaxation rho.  When r
falls below its lower limit the step size is enlarged for the next
iteration.  Termination is on the sup-norm natural residual.  One loop
solves a (k, dim) stack of rows, each with its own step size, retries and
stopping test; a flat start is a stack of one.  A solve has one observation
hook: an optional callback that sees every accepted iteration's iterate,
residual, step size and ratio.

Also provides a Gauss-Seidel best-response iteration and an equilibrium
audit, exact in the shipments and a grid search in the level, both used as
independent cross-checks of the main solve.  The best-response iteration runs
no projection-contraction step: with rivals frozen, each retailer's
shipments solve affine first-order conditions in closed form, and its level
condition is a scalar quadratic in 1 - u whose root, clipped to the budget
bound, is also taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec
from .vi import DecisionVector, ViProblem, level_caps

__all__ = [
    "SolverConfig",
    "SolverReport",
    "StackReport",
    "SolverNumericError",
    "DegenerateDirectionError",
    "predict",
    "correct",
    "solve",
    "best_response_solve",
    "verify_equilibrium",
    "VerificationReport",
]


class SolverNumericError(RuntimeError):
    """Operator evaluation produced a non-finite or out-of-domain value."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


class DegenerateDirectionError(RuntimeError):
    """Correction direction vanished while the prediction step did not."""


# Projection-contraction constants; standard values that no caller varies.
BETA0 = 1.0  # initial projection step size
NU = 0.9     # ratio upper limit: predictions with r > NU are redone with a smaller beta
MU = 0.3     # ratio lower limit: r <= MU lets beta grow by 1.5x for the next iteration
RHO = 1.9    # relaxation factor of the correction step, in (0, 2)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of a solve; the step and ratio constants of the
    projection-contraction iteration are fixed (BETA0, NU, MU, RHO).

    tol       sup-norm natural-residual stopping threshold
    max_iter  iteration budget; a solve that exhausts it is unconverged
    """

    tol: float = 1e-7
    max_iter: int = 200_000

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass
class SolverReport:
    """Outcome of a solve.

    ``solution`` is the flat iterate (use ViProblem.split for the structured
    view).  ``final_residual`` is the stopping metric: for ``solve``, the
    problem's ``natural_residual`` at ``solution``, which for both ViProblem
    and InvestmentVi (the (z, w) view scenario solves run on) is the (Q, u)
    natural residual; for ``best_response_solve``, the last sweep's maximum
    block change.  ``beta_retries`` counts shrunken prediction steps of
    ``solve``; it is always 0 for ``best_response_solve``, which takes no
    such steps.
    """

    solution: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    beta_retries: int = 0


@dataclass
class StackReport:
    """Outcome of a stacked solve: ``reports[i]`` is row i's SolverReport.
    ``passes`` counts the iterations of the stack, the largest row count;
    ``iterations`` and ``beta_retries`` are the totals over the rows."""

    reports: list
    passes: int

    @property
    def iterations(self):
        return sum(r.iterations for r in self.reports)

    @property
    def beta_retries(self):
        return sum(r.beta_retries for r in self.reports)


def _check_finite(f, iteration):
    # A sum that overflows counts as non-finite too.
    if not all(map(math.isfinite, np.add.reduce(f, axis=1).tolist())):
        raise SolverNumericError("operator returned non-finite values", iteration)


def predict(problem, x, beta, fx=None):
    """Projection step: Xt = P_K[X - beta * F(X)] plus the shrinkage ratio.

    ``x`` is a flat point and ``beta`` its step size, or ``x`` is a (k, dim)
    stack and ``beta`` a list of one step size per row.  Returns
    (x_tilde, f_tilde, r), r being the ratio or the list of row ratios.
    Where the trial point coincides with X the ratio is 0 (X already solves
    the VI).  Norms are Euclidean.
    """
    flat = x.ndim == 1
    if flat:
        x, beta = x[None], [beta]
        fx = None if fx is None else fx[None]
    if min(beta) <= 0.0:
        raise ValueError("beta must be positive")
    if fx is None:
        fx = problem.operator(x)
    x_tilde = problem.project(x - np.array(beta)[:, None] * fx)
    dx = x - x_tilde
    f_tilde = problem.operator(x_tilde)
    df = fx - f_tilde
    # One dot product per row keeps each row's bits apart from the others.
    r = [b * math.sqrt(f) / math.sqrt(d) if d else 0.0
         for b, f, d in zip(beta, np.vecdot(df, df).tolist(), np.vecdot(dx, dx).tolist())]
    if flat:
        return x_tilde[0], f_tilde[0], r[0]
    return x_tilde, f_tilde, r


def correct(x, x_tilde, beta, fx, f_tilde, rho):
    """Relaxed correction X+ = X - rho * delta * d along the favorable direction.

    d = (X - Xt) - beta * (F(X) - F(Xt)),  delta = (X - Xt).d / |d|^2, for a
    flat point or for each row of a stack (``beta`` then a list of steps).
    """
    flat = x.ndim == 1
    if flat:
        x, x_tilde, fx, f_tilde, beta = x[None], x_tilde[None], fx[None], f_tilde[None], [beta]
    dx = x - x_tilde
    d = dx - np.array(beta)[:, None] * (fx - f_tilde)
    dd = np.vecdot(d, d).tolist()
    if 0.0 in dd:
        raise DegenerateDirectionError(
            "correction direction vanished; prediction and operator steps cancel")
    step = np.array([rho * (p / q) for p, q in zip(np.vecdot(dx, d).tolist(), dd)])
    out = x - step[:, None] * d
    return out[0] if flat else out


def solve(problem, config=None, x0=None, callback=None):
    """Run the projection-contraction iteration until the residual meets tol.

    ``x0`` (default ``problem.default_start()``) is a flat point, which
    gives a SolverReport, or a (k, dim) stack of k rows, which gives a
    StackReport: every row runs its own iteration, step size and stopping
    test, one numpy pass per iteration for all of them, and leaves the
    stack when it stops.  Where the problem evaluates each row on its own,
    as ViProblem and InvestmentVi do, a row's report is bit for bit that of
    its solve alone.  Deterministic: identical inputs produce identical iterate
    sequences.  Non-convergence within max_iter is reported
    (converged=False), not raised; non-finite operator values, a shrinkage
    ratio that overflows on a retry and a vanished correction direction
    raise (SolverNumericError, DegenerateDirectionError) for the whole
    stack.  Floating-point warnings are silenced; these checks report the
    values that would have warned.
    ``callback(k, x, residual, beta, r)`` is invoked after every accepted
    iteration k of each row with the row's corrected iterate x, the residual
    measured at the start of the iteration, and the step size beta and ratio
    r of the accepted prediction, before beta grows; x, beta and r belong to
    the coordinates the problem is solved in.
    """
    if config is None:
        config = SolverConfig()
    x = problem.project(np.asarray(x0, dtype=float)) if x0 is not None else problem.default_start()
    flat = x.ndim == 1
    X = x[None] if flat else x
    tol, max_iter = config.tol, config.max_iter
    reports = [None] * len(X)
    retries = [0] * len(X)
    # The active rows: their stack indices, step sizes and residuals.
    rows = list(range(len(X)))
    beta = [BETA0] * len(X)
    view = problem

    def drop(stopped):
        """Report the rows ``stopped`` and take them out of the stack;
        returns the positions of the rows left."""
        nonlocal X, FX, rows, beta, res, view
        for i in stopped:
            reports[rows[i]] = SolverReport(X[i], iteration, res[i], res[i] <= tol,
                                            retries[rows[i]])
        go = [i for i in range(len(rows)) if i not in stopped]
        X, FX = X[go], FX[go]
        rows, beta, res = ([v[i] for i in go] for v in (rows, beta, res))
        view = problem.rows(rows)
        return go

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(max_iter + 1):
            try:
                FX, res = view.evaluate(X)
            except ValueError as exc:
                raise SolverNumericError(str(exc), iteration) from exc
            _check_finite(FX, iteration)
            res = res.tolist()
            if iteration == max_iter:
                drop(range(len(rows)))
                break
            if min(res) <= tol and not drop([i for i, r in enumerate(res) if r <= tol]):
                break

            XT, FT, R = predict(view, X, beta, FX)
            _check_finite(FT, iteration)
            redo = [i for i, r in enumerate(R) if not r <= NU]
            while redo:
                # Only these rows shrink their step and predict again.
                for i in redo:
                    if not math.isfinite(R[i]):
                        # |F(X) - F(Xt)| overflowed, so the shrunken step would be 0.
                        raise SolverNumericError("shrinkage ratio is not finite", iteration)
                    beta[i] *= (2.0 / 3.0) * min(1.0, 1.0 / R[i])
                    retries[rows[i]] += 1
                xt, ft, r = predict(problem.rows([rows[i] for i in redo]), X[redo],
                                    [beta[i] for i in redo], FX[redo])
                _check_finite(ft, iteration)
                XT[redo], FT[redo] = xt, ft
                for i, ri in zip(redo, r):
                    R[i] = ri
                redo = [i for i in redo if not R[i] <= NU]

            # Stalled rows: the projected step no longer moves the iterate.
            if 0.0 in R:
                go = drop([i for i, r in enumerate(R)
                           if r == 0.0 and np.array_equal(XT[i], X[i])])
                if not go:
                    break
                XT, FT, R = XT[go], FT[go], [R[i] for i in go]

            # Re-project the corrected point: the raw correction step can leave
            # the box, where the level cost -ln(1-u) is undefined.  Projection is
            # nonexpansive toward any feasible point, so contraction is kept.
            X = view.project(correct(X, XT, beta, FX, FT, RHO))
            if callback is not None:
                for i in range(len(rows)):
                    callback(iteration, X[i], res[i], beta[i], R[i])
            beta = [b * 1.5 if r <= MU else b for b, r in zip(beta, R)]

    return reports[0] if flat else StackReport(reports, iteration)


def _block_best_response(problem: ViProblem, x, x_idx):
    """Retailer x_idx's exact best response to its rivals frozen in ``x``.

    Returns a copy of ``x`` with the (Q row, u) block replaced.
    Shipments: F1[x, y] is affine in Q[x, y] alone with slope 2as - 2alpha,
    positive under the model validators (alpha < 0, a >= 0, s > 0), so one
    clipped Newton step from one operator evaluation solves each market.
    Level: with rivals and the new shipments fixed, the marginal benefit
    g = 1/v - F2[x] (v = 1 - u_x) is affine in v, g = a + c v with
    c = 2DM/m >= 0, so F2[x] = 1/v - a - c v strictly increases in u_x.
    Two operator values give a and c; F2 = 0 is the quadratic
    c v^2 + a v - 1 = 0, whose positive root is taken in a form without
    cancellation, and u_x is clipped to [0, cap], cap being the budget cap
    min(U_CAP, -expm1(-B)) of the problem's box.  A block costs three
    operator calls.
    """
    model = problem.model
    n = model.n
    q = slice(x_idx * n, (x_idx + 1) * n)
    iu = model.m * n + x_idx

    def operator(z):
        fz = problem.operator(z)
        if not math.isfinite(np.add.reduce(fz)):
            raise ValueError("operator returned non-finite values")
        return fz

    slope = 2.0 * model.cost_a[x_idx] * model.cost_s[x_idx] - 2.0 * model.alpha_vec
    z = x.copy()
    z[q] = np.clip(z[q] - operator(z)[q] / slope, 0.0, model.q_upper)

    z[iu] = 0.0
    f0 = float(operator(z)[iu])
    if f0 >= 0.0:
        return z  # F2 >= 0 at u = 0: the level is pinned at 0
    # The second reading is taken at the cap, but no higher than u = 1/2:
    # near U_CAP, 1/v = 1/(1 - u) reaches 1e6 and would cancel most of the
    # digits of g = 1/v - F2.  At u = 1/2, 1/v = 2 is exact.
    cap = float(problem.upper[iu])
    z[iu] = u1 = min(cap, 0.5)
    f1 = float(operator(z)[iu])
    if u1 == cap and f1 <= 0.0:
        return z  # F2 <= 0 at the cap: the level is pinned there
    g0 = 1.0 - f0
    c = max(0.0, (g0 - (1.0 / (1.0 - u1) - f1)) / u1)
    a = g0 - c
    # g0 = a + c > 1, so a > 0 or c > 1: neither branch divides by zero,
    # and c = 0 (no losses) gives v = 1/a.
    root = math.sqrt(a * a + 4.0 * c)
    v = 2.0 / (a + root) if a >= 0.0 else (root - a) / (2.0 * c)
    z[iu] = min(max(1.0 - v, 0.0), cap)
    return z


def best_response_solve(problem: ViProblem, config=None, x0=None, max_sweeps=1000):
    """Gauss-Seidel best-response iteration over retailer blocks.

    Each sweep replaces every retailer's (Q row, u) block, in order, by its
    exact best response to the current rival values (closed-form shipments
    and level); no projection-contraction iteration runs, so
    the result is an independent check of ``solve``.  Sweeps repeat until the
    largest block change is at most config.tol.  The report counts sweeps in
    ``iterations`` and the last sweep's maximum block change in
    ``final_residual``; ``beta_retries`` is always 0.  If the change metric
    reaches no new minimum over 50 consecutive sweeps the run is flagged as
    cycling and reported unconverged.
    """
    if config is None:
        config = SolverConfig()
    x = problem.project(np.asarray(x0, dtype=float)) if x0 is not None else problem.default_start()
    changes = []
    converged = False
    change = math.inf

    for sweep in range(max_sweeps):
        x_prev = x
        try:
            for xi in range(problem.model.m):
                x = _block_best_response(problem, x, xi)
        except ValueError as exc:
            raise SolverNumericError(str(exc), sweep) from exc
        change = float(np.max(np.abs(x - x_prev)))
        changes.append(change)
        if change <= config.tol:
            converged = True
            break
        if len(changes) > 50 and min(changes[-50:]) >= min(changes[:-50]):
            break  # no progress in 50 sweeps: treat as cycling

    return SolverReport(x, len(changes), change, converged)


@dataclass
class VerificationReport:
    """Best-response audit of a candidate equilibrium.

    ``improvements[x]`` is the largest gain in expected utility retailer x
    could find over its own feasible block with rivals fixed, or NaN when
    the audit could not read its value function (a non-finite value,
    values that are not quadratic in the own shipments, or values so large
    that their rounding can reach eps_br).  The point is
    certified when every improvement is at most eps_br, so a NaN never
    certifies.  ``best_points[x]`` is the maximising (shipments, level).
    """

    improvements: np.ndarray
    certified: bool
    eps_br: float
    grid_density: int
    best_points: list = field(default_factory=list)

    @property
    def max_improvement(self):
        return float(self.improvements.max())


# Own shipments, as fractions of q_upper, at which each market term is read:
# the quadratic through 0 is fitted to the first two, the third checks it.
_PROBES = np.array([0.5, 1.0, 0.25])

# A quarter-point reading may differ from the fitted quadratic by this much,
# relative to the largest reading of its market and level.  Rounding leaves
# a few ulps; a value function that is not quadratic leaves far more.
_QUADRATIC_RTOL = 1e-9

# A gain is a difference of readings, each of which is known to about one
# ulp of its size; gains are trusted only while this many ulps of the
# largest reading stay within eps_br.
_READING_ULPS = 1e3


def _own_move_readings(model: ModelSpec, x_idx, point: DecisionVector, u_axis):
    """Retailer x_idx's utility at 1 + 3n own shipment patterns and the own
    levels ``u_axis``, with rivals held at ``point``; shape (1 + 3n, d_u).

    Pattern 0 ships nothing.  Pattern 1 + 3y + k ships q_upper * _PROBES[k]
    into market y and nothing elsewhere.  One call to the model's
    broadcasting value function reads them all.
    """
    n = model.n
    u = np.repeat(point.u[None], len(u_axis), axis=0)
    u[:, x_idx] = u_axis
    Q = np.repeat(point.Q[None], 1 + 3 * n, axis=0)
    Q[:, x_idx] = 0.0
    for y in range(n):
        Q[1 + 3 * y:4 + 3 * y, x_idx, y] = model.q_upper * _PROBES
    return model.expected_utility(x_idx, Q[:, None], u[None])


def _market_maxima(readings):
    """Each market term's maximum over [0, q_upper] from ``readings``.

    For a fixed own level u the utility is g(u) + sum_y f_y(Q[x, y], u),
    where f_y(0, u) = 0 and f_y is a quadratic in its own shipment alone
    with leading coefficient alpha_y - a s < 0.  In t = q / q_upper,
    f = a t^2 + b t through the readings at t = 1/2 and 1 gives
    a = 2 f(1) - 4 f(1/2) and b = 4 f(1/2) - f(1); the reading at t = 1/4
    must equal a/16 + b/4.  Returns (totals, t): totals[i] = g + sum_y
    max_t f_y at the i-th level and t[y, i] the maximising fraction, or
    None when a reading is not finite or a quarter-point check fails.
    """
    g = readings[0]
    probes = readings[1:].reshape(-1, 3, len(g))  # (market, probe, level)
    half, full, quarter = (probes - g).transpose(1, 0, 2)
    a = 2.0 * full - 4.0 * half
    b = 4.0 * half - full
    scale = np.maximum(np.abs(probes).max(axis=1), np.abs(g))
    quadratic = np.abs(quarter - (a / 16.0 + b / 4.0)) <= _QUADRATIC_RTOL * scale
    # a < 0 under the model validators; if rounding says otherwise, the
    # maximum of the fitted quadratic lies at an end of [0, 1].
    t = np.where(a < 0.0, np.clip(-b / (2.0 * a), 0.0, 1.0), (a + b > 0.0).astype(float))
    totals = g + ((a * t + b) * t).sum(axis=0)
    if not (np.all(np.isfinite(readings)) and np.all(quadratic)
            and np.all(np.isfinite(totals))):
        return None
    return totals, t


# Bound on density**(n+1) per retailer.  A pass reads only
# density * (1 + 3n) values, so it bounds no allocation; it stays because it
# fixes the range of densities --grid accepts.
_MAX_GRID_POINTS = 10_000_000


def _grid_axes(lo, hi, density):
    return np.linspace(lo, hi, density)


def verify_equilibrium(model: ModelSpec, point: DecisionVector, grid_density=50,
                       eps_br=1e-3, refinements=2):
    """Certify the Nash property of a candidate point by a best-response audit.

    For each retailer, with rivals fixed, the own level is scanned on a grid
    of grid_density points over the budget-feasible range of the VI box,
    then the grid is refined around the best level ``refinements`` times.
    At each level the own shipments are optimised exactly: each market term
    of the utility is a quadratic in its own shipment, read off the model's
    value function (see _market_maxima) and maximised over [0, q_upper] in
    closed form.  A pass reads grid_density * (1 + 3n) values.  The gain is
    measured against the same function at the point.  Purely diagnostic; a
    positive improvement means the retailer could deviate profitably, and a
    NaN that its values are not finite, not quadratic, or too large for
    their rounding to stay below eps_br (_READING_ULPS ulps of the largest
    reading), so the point is not certified.  Densities whose lattice
    density**(n+1) exceeds _MAX_GRID_POINTS are refused with ValueError:
    that bound no longer limits an allocation, but it fixes the range of
    densities the command line accepts.
    """
    if grid_density < 2:
        raise ValueError("grid_density must be at least 2")
    m, n = model.m, model.n
    points = grid_density ** (n + 1)
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"grid density {grid_density} gives {points} lattice points "
                         f"per retailer for {n} markets; the limit is {_MAX_GRID_POINTS}")
    improvements = np.zeros(m)
    best_points = []
    u_caps = level_caps(model)

    for x_idx in range(m):
        u_cap_x = float(u_caps[x_idx])
        u_lo, u_hi = 0.0, u_cap_x
        best_val, best_u, best_q = -math.inf, 0.0, np.zeros(n)
        # Overflow and 0 * inf are reported as a NaN improvement instead.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            base = float(model.expected_utility(x_idx, point.Q, point.u))
            top = abs(base)
            for _ in range(refinements + 1):
                u_axis = _grid_axes(u_lo, u_hi, grid_density)
                readings = _own_move_readings(model, x_idx, point, u_axis)
                top = max(top, float(np.abs(readings).max()))
                fit = _market_maxima(readings)
                if fit is None:
                    best_val = math.nan
                    break
                totals, t = fit
                i = int(np.argmax(totals))
                if totals[i] > best_val:
                    best_val = float(totals[i])
                    best_u = float(u_axis[i])
                    best_q = model.q_upper * t[:, i]
                # Zoom in one cell around the best level.
                du = (u_hi - u_lo) / (grid_density - 1)
                u_lo = max(0.0, best_u - du)
                u_hi = min(u_cap_x, best_u + du)

        readable = _READING_ULPS * np.finfo(float).eps * top <= eps_br
        improvements[x_idx] = best_val - base if readable else math.nan
        best_points.append((best_q, best_u))

    certified = bool(np.all(improvements <= eps_br))
    return VerificationReport(improvements, certified, eps_br, grid_density, best_points)
