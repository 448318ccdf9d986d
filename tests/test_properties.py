"""Property test over generated scenarios: every solve converges to a
budget-feasible, complementary, grid-certified equilibrium, and the scenario
document round-trips exactly."""

import json
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from secgame.cli import scenario_from_data, scenario_to_data
from secgame.scenarios import Scenario, experiment_model, solve_scenario
from secgame.solver import SolverConfig, verify_equilibrium
from secgame.vi import DecisionVector

# Equilibrium levels of this family sit near 0.95, where the budget costs
# about 3, so budgets drawn from [1.5, 5.5] bind for some retailers only.
_BUDGET = st.floats(min_value=1.5, max_value=5.5, allow_nan=False)
_SHARE = st.floats(min_value=0.05, max_value=0.95, allow_nan=False)


@st.composite
def scenarios(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=2))
    model = experiment_model(tuple(draw(_SHARE) for _ in range(m)))
    retailers = tuple(replace(r, B=draw(_BUDGET), costs=r.costs[:n])
                      for r in model.retailers)
    model = replace(model, n=n, retailers=retailers, markets=model.markets[:n])
    x0 = DecisionVector(np.ones((m, n)), np.zeros(m), np.zeros(m))
    return Scenario("generated", model, x0, SolverConfig(tol=1e-9, max_iter=1_000_000))


@settings(deadline=None, derandomize=True, max_examples=15)
@given(scenarios())
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

    back = scenario_from_data(json.loads(json.dumps(scenario_to_data(scen))),
                              name=scen.name)
    assert (back.name, back.model, back.config) == (scen.name, scen.model, scen.config)
    for got, want in ((back.x0.Q, scen.x0.Q), (back.x0.u, scen.x0.u),
                      (back.x0.lam, scen.x0.lam)):
        assert np.array_equal(got, want)
