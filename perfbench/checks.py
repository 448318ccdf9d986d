"""Independent correctness checks of returned equilibria.

Nothing here calls secgame's VI or solver: each retailer's optimality is
re-derived from ``ModelSpec.expected_utility`` alone, by central differences
in its own block, and the result is compared with a stored reference
equilibrium.  Iteration counts, residuals and CSV bytes are deliberately not
compared with the reference: a change of formulation may legitimately move
them while the equilibrium stays put.

Tolerances (all stated against the solver tolerances the workloads use,
1e-7 for solve-mix and best response, 1e-9 for sweeps):

STATIONARITY_TOL  sup-norm natural residual of each retailer's own block,
                  computed from finite-difference gradients, box and budget
                  multiplier included; the solver stops at 1e-7 and the
                  differences add < 1e-7 of truncation and rounding error.
FEASIBILITY_TOL   budget overshoot -ln(1 - u) - B.
SLACKNESS_TOL     |lambda * (-ln(1 - u) - B)|.
REFERENCE_TOL     |x - ref| <= REFERENCE_TOL * max(1, |ref|) for every u, Q,
                  lambda and expected utility; observed gaps are < 1e-8.
"""

from __future__ import annotations

import math

import numpy as np

STATIONARITY_TOL = 1e-5
FEASIBILITY_TOL = 1e-6
SLACKNESS_TOL = 1e-6
REFERENCE_TOL = 1e-6
BINDING_TOL = 1e-6

_Q_STEP = 1e-4
_U_STEP = 1e-6


def _own_gradient(model, x, Q, u):
    """Central-difference gradient of retailer x's expected utility in (Q[x], u[x])."""
    eu = model.expected_utility
    gq = np.empty(model.n)
    for y in range(model.n):
        hi, lo = Q.copy(), Q.copy()
        hi[x, y] += _Q_STEP
        lo[x, y] -= _Q_STEP
        gq[y] = (eu(x, hi, u) - eu(x, lo, u)) / (2.0 * _Q_STEP)
    hi, lo = u.copy(), u.copy()
    hi[x] += _U_STEP
    lo[x] -= _U_STEP
    gu = (eu(x, Q, hi) - eu(x, Q, lo)) / (2.0 * _U_STEP)
    return gq, gu


def budget_gap(model, u):
    """-ln(1 - u_x) - B_x for every retailer."""
    return np.array([-math.log1p(-u[x]) - model.retailers[x].B for x in range(model.m)])


def kkt_violations(model, Q, u, lam):
    """Reasons the point fails the retailers' optimality conditions (empty if none).

    Retailer x maximises E(U_x) over Q[x] in [0, q_upper]^n and u_x in [0, 1)
    subject to -ln(1 - u_x) <= B_x with multiplier lambda_x >= 0.
    """
    Q = np.asarray(Q, dtype=float)
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    problems = []
    if not (np.all(np.isfinite(Q)) and np.all(np.isfinite(u)) and np.all(np.isfinite(lam))):
        return ["non-finite values"]
    if np.any(Q < 0.0) or np.any(Q > model.q_upper) or np.any(u < 0.0) or np.any(u >= 1.0):
        return ["point outside the box"]
    if np.any(lam < 0.0):
        problems.append("negative multiplier")
    gap = budget_gap(model, u)
    for x in range(model.m):
        gq, gu = _own_gradient(model, x, Q, u)
        res_q = np.abs(Q[x] - np.clip(Q[x] + gq, 0.0, model.q_upper))
        lag_u = gu - lam[x] / (1.0 - u[x])
        res_u = abs(u[x] - max(0.0, u[x] + lag_u))
        worst = max(float(res_q.max()), res_u)
        if not worst <= STATIONARITY_TOL:
            problems.append(f"retailer {x + 1}: own-block stationarity residual {worst:.3e}")
        if not gap[x] <= FEASIBILITY_TOL:
            problems.append(f"retailer {x + 1}: budget exceeded by {gap[x]:.3e}")
        if not abs(lam[x] * gap[x]) <= SLACKNESS_TOL:
            problems.append(f"retailer {x + 1}: lambda * gap = {lam[x] * gap[x]:.3e}")
    return problems


def reference_violations(eq, ref):
    """Differences between a returned equilibrium and its stored reference."""
    problems = []
    eu = np.array([eq.model.expected_utility(x, eq.Q, eq.u) for x in range(eq.model.m)])
    fields = [("u", eq.u), ("Q", eq.Q), ("lam", eq.lam), ("eu", eu)]
    if eq.eu is not None:
        fields.append(("reported eu", eq.eu))
    for name, got in fields:
        want = np.asarray(ref["eu" if name == "reported eu" else name], dtype=float)
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape:
            problems.append(f"{name}: shape {got.shape} != reference {want.shape}")
            continue
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if not err.max() <= REFERENCE_TOL:
            problems.append(f"{name}: relative gap {err.max():.3e} to the reference")
    return problems


def equilibrium_failures(eq, ref):
    """Every reason to reject one returned equilibrium (empty list if accepted)."""
    problems = list(eq.extra_failures)
    if not eq.converged:
        problems.append("solver reported no convergence")
    problems += kkt_violations(eq.model, eq.Q, eq.u, eq.lam)
    if ref is None:
        problems.append("no stored reference")
    else:
        problems += reference_violations(eq, ref)
    return problems


def binds(eq):
    """Whether any retailer's budget binds at this equilibrium."""
    return bool(np.any(eq.lam > BINDING_TOL)
                or np.any(np.abs(budget_gap(eq.model, eq.u)) <= BINDING_TOL))
