"""Seeded workload generators and the closed-loop operations they run.

Every workload is a *deck*: a fixed, seed-determined list of operations.  One
operation is one blocking call into secgame's public API, the way a
researcher's script calls it.  The run goes through the deck at least once and
keeps cycling it until the measuring window ends, so every operation of the
deck is timed at least once and the deterministic counts of one pass over the
deck are the same on every run of a seed.

Inputs are drawn from fixed pools (Dirichlet share draws) and fixed parameter
lattices (B1 and D1 values) whose equilibria are stored in ``reference.json``;
the seed picks from the pools and shifts the grids within the lattices, so
every equilibrium a run produces can be compared with a stored reference.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

POOL_SEED = 2502_10448

# solve-mix: cold solves at the default tolerance, m in {2, 3, 4}.
SOLVE_MIX_SIZES = (2, 3, 4)
SOLVE_MIX_POOL_PER_SIZE = 32
SOLVE_MIX_DECK_PER_SIZE = 16

# budget-sweep: 3-row warm sweeps of B1 on exp1 at tol 1e-9.  The first row
# binds (B1 in [2.96, 3.25]); the second (B1 + 0.4 >= 3.36) is slack and is
# warm-started from a binding point; the third (B1 + 0.8) is slack and starts
# at its own solution, so it takes 0 iterations.  Rows with B1 below 2.9 cost
# 25k-138k iterations (up to ~12 s) each and would leave too few operations
# in one window, so the deck samples the upper part of the binding range.
BUDGET_STARTS = tuple(round(2.96 + 0.01 * k, 2) for k in range(30))
BUDGET_SPAN = 0.8
BUDGET_STEPS = 3
BUDGET_DECK = 6

# loss-sweep: 21-row warm sweeps of D1 on exp1 at tol 1e-9 (the exp3 shape,
# step 2 instead of 1); every budget is slack.
LOSS_STARTS = tuple(range(120, 160))
LOSS_SPAN = 40
LOSS_STEPS = 21
LOSS_DECK = 4

# certify: best response, grid audit and finite-difference check on exp1
# and on two-retailer draws (Dirichlet(4, 4), which keeps shares away from
# near-monopoly draws; a 0.99/0.01 draw needed a third more beta retries in
# best response than exp1, which made the deck's cost depend on the seed).
# Best response starts
# from the stored equilibrium with quantities and levels pulled down by 10 %:
# from the default start its first block solve alone takes ~95k iterations
# (~10 s), which would leave one or two operations per window.
CERTIFY_POOL_DRAWS = 15
CERTIFY_PULL = 0.1
CERTIFY_DECK_DRAWS = 5
CERTIFY_GRID = 50
CERTIFY_FD_POINTS = 100

SWEEP_TOL = 1e-9
SWEEP_MAX_ITER = 1_000_000

WORKLOADS = ("solve-mix", "budget-sweep", "loss-sweep", "certify")


def value_key(value):
    """Reference-table key of a swept parameter value (grids are on a 0.01 lattice)."""
    return f"{round(float(value), 6):.6f}"


def solve_mix_pool():
    """Pool of share vectors: SOLVE_MIX_POOL_PER_SIZE Dirichlet draws per size."""
    rng = np.random.default_rng(POOL_SEED)
    return [tuple(float(s) for s in rng.dirichlet(np.ones(m)))
            for m in SOLVE_MIX_SIZES for _ in range(SOLVE_MIX_POOL_PER_SIZE)]


def certify_pool():
    """exp1's shares followed by CERTIFY_POOL_DRAWS two-retailer Dirichlet draws."""
    rng = np.random.default_rng(POOL_SEED + 1)
    draws = [tuple(float(s) for s in rng.dirichlet(np.full(2, 4.0)))
             for _ in range(CERTIFY_POOL_DRAWS)]
    return [(0.76, 0.24)] + draws


def budget_values():
    """Every B1 value a budget-sweep grid can hit."""
    return sorted({value_key(a + BUDGET_SPAN * i / (BUDGET_STEPS - 1))
                   for a in BUDGET_STARTS for i in range(BUDGET_STEPS)}, key=float)


def loss_values():
    """Every D1 value a loss-sweep grid can hit."""
    return sorted({value_key(s + LOSS_SPAN * i / (LOSS_STEPS - 1))
                   for s in LOSS_STARTS for i in range(LOSS_STEPS)}, key=float)


def _stratified(rng, values, count):
    """``count`` values, one from each of ``count`` equal strata, in seeded order.

    Even strata take a seeded offset and odd strata its mirror image, so every
    deck covers the lattice evenly and, where cost varies smoothly along the
    lattice, decks of different seeds cost about the same.
    """
    stride = len(values) // count
    offset = int(rng.integers(stride))
    picks = [values[j * stride + (offset if j % 2 == 0 else stride - 1 - offset)]
             for j in range(count)]
    return [picks[i] for i in rng.permutation(count)]


def draw_inputs(workload, seed):
    """The seed-determined inputs of one workload, as plain data.

    solve-mix     list of pool indices (interleaved by size)
    budget-sweep  list of B1 grid starts
    loss-sweep    list of D1 grid starts
    certify       list of (pool index, fd seed)
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "solve-mix":
        per_size = [SOLVE_MIX_POOL_PER_SIZE * k + rng.permutation(SOLVE_MIX_POOL_PER_SIZE)
                    [:SOLVE_MIX_DECK_PER_SIZE] for k in range(len(SOLVE_MIX_SIZES))]
        return [int(idx) for group in zip(*per_size) for idx in group]
    if workload == "budget-sweep":
        return _stratified(rng, BUDGET_STARTS, BUDGET_DECK)
    if workload == "loss-sweep":
        return _stratified(rng, LOSS_STARTS, LOSS_DECK)
    if workload == "certify":
        draws = 1 + rng.permutation(CERTIFY_POOL_DRAWS)[:CERTIFY_DECK_DRAWS]
        pool = [0] + [int(i) for i in draws]
        return [(idx, int(rng.integers(2**31))) for idx in pool]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Equilibrium:
    """One equilibrium returned by the program, with what is needed to check it."""

    key: str                 # reference-table key
    model: object            # secgame ModelSpec the equilibrium belongs to
    Q: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    eu: np.ndarray = None    # program-reported expected utilities, if any
    converged: bool = True
    extra_failures: list = field(default_factory=list)


@dataclass
class Op:
    """One closed-loop call.  ``call`` is timed; ``collect`` runs untimed on
    its result and returns (equilibria, deterministic counts).  ``equilibria``
    is how many equilibria the call attempts."""

    key: str
    call: object
    collect: object
    equilibria: int


def _family_scenario(sg, shares):
    model = sg.scenarios.experiment_model(tuple(shares))
    x0 = sg.vi.DecisionVector(np.ones((model.m, model.n)), np.zeros(model.m),
                              np.zeros(model.m))
    return sg.scenarios.Scenario("draw", model, x0)


def _solve_mix_ops(sg, seed):
    pool = solve_mix_pool()
    ops = []
    for idx in draw_inputs("solve-mix", seed):
        scen = _family_scenario(sg, pool[idx])

        def call(scen=scen):
            return sg.scenarios.solve_scenario(scen)

        def collect(result, scen=scen, idx=idx):
            problem, report = result
            point = problem.split(report.solution)
            eq = Equilibrium(f"pool{idx}", scen.model, point.Q, point.u, point.lam,
                             converged=report.converged)
            return [eq], {"iterations": report.iterations,
                          "beta_retries": report.beta_retries}

        ops.append(Op(f"pool{idx}", call, collect, 1))
    return ops


def _read_sweep_csv(path, base_model, field_name):
    """Parse a sweep CSV by column name into Equilibrium records."""
    m, n = base_model.m, base_model.n
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    eqs, iters = [], []
    for row in rows:
        value = float(row["param"])
        retailers = list(base_model.retailers)
        retailers[0] = replace(retailers[0], **{field_name: value})
        model = replace(base_model, retailers=tuple(retailers))
        Q = np.array([[float(row[f"Q_{i + 1}_{j + 1}"]) for j in range(n)]
                      for i in range(m)])
        u = np.array([float(row[f"u_{i + 1}"]) for i in range(m)])
        lam = np.array([float(row[f"lambda_{i + 1}"]) for i in range(m)])
        eu = np.array([float(row[f"EU_{i + 1}"]) for i in range(m)])
        eqs.append(Equilibrium(value_key(value), model, Q, u, lam, eu,
                               converged=row["converged"] == "true"))
        iters.append(int(row["iters"]))
    return eqs, iters


def _sweep_ops(sg, workload, seed, workdir):
    """cli.main sweeps over exp1 at the sweep tolerance, one per grid start."""
    config = sg.solver.SolverConfig(tol=SWEEP_TOL, max_iter=SWEEP_MAX_ITER)
    base = replace(sg.scenarios.experiment1(), config=config)
    scenario_path = os.path.join(workdir, f"{workload}-exp1.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(sg.cli.scenario_to_data(base), fh)
    param, span, steps = (("B1", BUDGET_SPAN, BUDGET_STEPS) if workload == "budget-sweep"
                          else ("D1", LOSS_SPAN, LOSS_STEPS))
    ops = []
    for start in draw_inputs(workload, seed):
        out = os.path.join(workdir, f"{workload}-{start}.csv")
        argv = ["sweep", "--scenario", scenario_path, "--param", param,
                "--from", repr(float(start)), "--to", repr(float(start) + span),
                "--steps", str(steps), "--out", out]

        def call(argv=argv):
            # --out sends the crossing summary to stdout; keep ours clean.
            with redirect_stdout(io.StringIO()):
                return sg.cli.main(argv)

        def collect(code, out=out):
            try:
                eqs, iters = _read_sweep_csv(out, base.model, param[0])
            finally:
                os.remove(out)  # a later call that writes nothing must not pass
            if code != 0:
                eqs[-1].extra_failures.append(f"cli.main returned {code}")
            return eqs, {"rows": len(eqs), "iterations": sum(iters),
                         "row_iterations": iters}

        ops.append(Op(f"{param}@{start}", call, collect, steps))
    return ops


def _certify_ops(sg, seed, reference):
    pool = certify_pool()
    ops = []
    for idx, fd_seed in draw_inputs("certify", seed):
        model = sg.scenarios.experiment_model(pool[idx])
        ref = reference["certify"][f"pool{idx}"]
        x0 = sg.vi.DecisionVector(np.array(ref["Q"]) * (1.0 - CERTIFY_PULL),
                                  np.array(ref["u"]) * (1.0 - CERTIFY_PULL / 10.0),
                                  np.array(ref["lam"])).flat()

        def call(model=model, x0=x0, fd_seed=fd_seed):
            problem = sg.vi.ViProblem(model)
            br = sg.solver.best_response_solve(problem, x0=x0)
            point = problem.split(br.solution)
            audit = sg.solver.verify_equilibrium(model, point, grid_density=CERTIFY_GRID)
            fd = sg.vi.fd_check_random(problem, points=CERTIFY_FD_POINTS, seed=fd_seed)
            return point, br, audit, fd

        def collect(result, model=model, idx=idx):
            point, br, audit, fd = result
            eq = Equilibrium(f"pool{idx}", model, point.Q, point.u, point.lam,
                             converged=br.converged)
            if not audit.certified:
                eq.extra_failures.append(
                    f"grid audit found an improvement of {audit.max_improvement:.3e}")
            if not fd.max_rel_error <= 1e-5:
                eq.extra_failures.append(f"finite-difference check: {fd}")
            return [eq], {"sweeps": br.iterations, "beta_retries": br.beta_retries}

        ops.append(Op(f"pool{idx}", call, collect, 1))
    return ops


def build_ops(sg, workload, seed, workdir, reference):
    """Build the deck of one workload.  ``sg`` bundles the secgame modules."""
    if workload == "solve-mix":
        return _solve_mix_ops(sg, seed)
    if workload in ("budget-sweep", "loss-sweep"):
        return _sweep_ops(sg, workload, seed, workdir)
    if workload == "certify":
        return _certify_ops(sg, seed, reference)
    raise ValueError(f"unknown workload {workload!r}")
