"""Property test over generated scenarios: every solve converges to a
budget-feasible, complementary, grid-certified equilibrium that best
response reproduces, and the scenario document round-trips exactly."""

import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secgame.cli import scenario_from_data, scenario_to_data
from secgame.model import MarketParams, TransactionCostParams
from secgame.scenarios import (MARKET_COST_LIN, MARKET_COST_QUAD, MARKET_INTERCEPTS,
                               MARKET_SECURITY_COEFFS, MARKET_SLOPES, Scenario,
                               experiment_model, solve_scenario)
from secgame.solver import SolverConfig, best_response_solve, verify_equilibrium
from secgame.vi import DecisionVector

# Equilibrium levels of this family sit near 0.95, where the budget costs
# about 3, so budgets drawn from [1.5, 5.5] bind for some retailers only.
_BUDGET = st.floats(min_value=1.5, max_value=5.5, allow_nan=False)
_SHARE = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


def _within(values):
    return st.floats(min_value=min(values), max_value=max(values), allow_nan=False)


def _scenario(shares, budgets, n, third, third_cost):
    """The experiment family on the first n of three markets, where the
    third market and its (a, b) trading cost come from the caller."""
    model = experiment_model(shares)
    retailers = tuple(
        replace(r, B=B,
                costs=(r.costs + (TransactionCostParams(*third_cost, r.costs[0].s),))[:n])
        for r, B in zip(model.retailers, budgets))
    model = replace(model, n=n, retailers=retailers,
                    markets=(model.markets + (third,))[:n])
    m = model.m
    x0 = DecisionVector(np.ones((m, n)), np.zeros(m), np.zeros(m))
    return Scenario("generated", model, x0, SolverConfig(tol=1e-9, max_iter=1_000_000))


@st.composite
def scenarios(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=3))
    shares = tuple(draw(_SHARE) for _ in range(m))
    # A third market, and its trading cost, drawn from the family's ranges.
    third = MarketParams(alpha=draw(_within(MARKET_SLOPES)),
                         gamma=draw(_within(MARKET_SECURITY_COEFFS)),
                         kappa=draw(_within(MARKET_INTERCEPTS)))
    third_cost = (draw(_within(MARKET_COST_QUAD)), draw(_within(MARKET_COST_LIN)))
    budgets = tuple(draw(_BUDGET) for _ in range(m))
    return _scenario(shares, budgets, n, third, third_cost)


@settings(deadline=None, derandomize=True, max_examples=15)
@given(scenarios())
# The largest shapes, which the 15 derandomized draws need not reach.
@example(_scenario((0.4, 0.3, 0.2, 0.1), (1.5, 2.5, 4.0, 5.5), 3,
                   MarketParams(alpha=-1.5, gamma=0.3, kappa=185.0), (0.75, 2.0)))
def test_generated_scenarios_solve_to_certified_equilibria(scen):
    model = scen.model
    problem, report = solve_scenario(scen)
    assert report.converged
    point = problem.split(report.solution)
    gaps = np.array([-math.log1p(-point.u[x]) - model.retailers[x].B
                     for x in range(model.m)])
    assert np.all(gaps <= 1e-9)
    assert np.all(np.abs(point.lam * gaps) <= 1e-6)
    assert verify_equilibrium(model, point, grid_density=50).certified

    br = best_response_solve(problem, scen.config, x0=scen.x0.flat())
    assert br.converged
    second = problem.split(br.solution)
    assert np.max(np.abs(second.u - point.u)) <= 1e-6
    assert np.max(np.abs(second.Q - point.Q)) <= 1e-6

    back = scenario_from_data(json.loads(json.dumps(scenario_to_data(scen))),
                              name=scen.name)
    assert (back.name, back.model, back.config) == (scen.name, scen.model, scen.config)
    for got, want in ((back.x0.Q, scen.x0.Q), (back.x0.u, scen.x0.u),
                      (back.x0.lam, scen.x0.lam)):
        assert np.array_equal(got, want)
