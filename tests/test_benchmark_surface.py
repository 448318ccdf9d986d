"""The parts of secgame that the perfbench benchmark calls or wraps.

perfbench measures the package from outside: it wraps named attributes of
its modules and calls the public API the way a script does.  These tests
fail when a change renames or reshapes one of those names, before a
benchmark run does.  They only read perfbench's files.
"""

import csv
import importlib.util
import inspect
import json
import pathlib
import types
from dataclasses import replace

import numpy as np
import pytest

from secgame import cli, model, scenarios, solver, vi
from secgame.cli import main, scenario_to_data
from secgame.scenarios import Scenario, experiment1, experiment_model, solve_scenario
from secgame.solver import SolverConfig
from secgame.vi import DecisionVector

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SG = types.SimpleNamespace(cli=cli, model=model, scenarios=scenarios, solver=solver, vi=vi)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_resolves():
    tracing = _load_tracing()
    points = tracing.wrap_points(SG)
    assert points
    for owner, attr, name, _ in points:
        assert callable(tracing._raw(owner, attr)), name


def test_verify_arguments_sit_where_the_tracer_reads_them():
    # The tracer reads grid_density and refinements from positions 2 and 4.
    params = list(inspect.signature(solver.verify_equilibrium).parameters)
    assert params[2] == "grid_density" and params[4] == "refinements"


def test_three_argument_start_and_positional_scenario():
    family = experiment_model((0.6, 0.4))
    x0 = DecisionVector(np.ones((family.m, family.n)), np.zeros(family.m),
                        np.zeros(family.m))
    problem, report = solve_scenario(Scenario("draw", family, x0))
    point = problem.split(report.solution)
    assert report.converged and report.iterations > 0 and report.beta_retries >= 0
    assert point.Q.shape == (2, 2) and point.u.shape == point.lam.shape == (2,)


@pytest.mark.parametrize("param, start, stop", [("B1", 2.96, 3.76), ("D1", 120.0, 160.0)])
def test_sweep_of_a_written_scenario_file(tmp_path, param, start, stop):
    base = replace(experiment1(), config=SolverConfig(tol=1e-9, max_iter=1_000_000))
    path = tmp_path / "exp1.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_data(base), fh)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(path), "--param", param,
                 "--from", repr(start), "--to", repr(stop), "--steps", "3",
                 "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["param"]) for row in rows] == pytest.approx([start, (start + stop) / 2,
                                                                   stop])
    for row in rows:
        assert row["converged"] == "true" and int(row["iters"]) >= 0
        for i in (1, 2):
            for key in (f"u_{i}", f"lambda_{i}", f"EU_{i}", f"Q_{i}_1", f"Q_{i}_2"):
                float(row[key])


def test_certify_call_sequence_on_exp1():
    # The certify workload's calls, in its order, from exp1's equilibrium
    # pulled down by 10 % in Q and 1 % in u.
    model = experiment1().model
    problem = vi.ViProblem(model)
    eq = problem.split(solve_scenario(experiment1())[1].solution)
    x0 = DecisionVector(eq.Q * 0.9, eq.u * 0.99, eq.lam).flat()
    br = solver.best_response_solve(problem, x0=x0)
    point = problem.split(br.solution)
    audit = solver.verify_equilibrium(model, point, grid_density=50)
    fd = vi.fd_check_random(problem, points=100, seed=12345)
    assert br.converged and br.iterations > 0
    assert audit.certified
    assert fd.max_rel_error <= 1e-5
