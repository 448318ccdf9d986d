"""Tests for scenario construction, parameter sweeps and crossing detection."""

from dataclasses import replace

import numpy as np
import pytest

from secgame import scenarios, solver
from secgame.cli import scenario_from_data, scenario_to_data
from secgame.scenarios import (REFERENCE_TARGETS, Scenario, SweepResult, SweepRow,
                               SweepSpec, apply_parameter, builtin_sweep,
                               crossing_reconciliation, experiment1, experiment5,
                               experiment_model, find_crossing, parse_param, run_sweep,
                               scenario_by_name, solution_row, solve_scenario)
from secgame.solver import SolverConfig
from secgame.vi import DecisionVector


class TestExperiment1:
    def setup_method(self):
        self.scen = experiment1()

    def test_budgets(self):
        B = [r.B for r in self.scen.model.retailers]
        assert B == pytest.approx([5.28, 3.72])

    def test_losses(self):
        D = [r.D for r in self.scen.model.retailers]
        assert D == pytest.approx([176.0, 124.0])

    def test_handling_costs_and_multipliers(self):
        r1, r2 = self.scen.model.retailers
        assert r1.c == pytest.approx(17.6)
        assert r2.c == pytest.approx(12.4)
        assert (r1.mu, r2.mu) == (pytest.approx(1.76), pytest.approx(1.24))

    def test_transaction_cost_families(self):
        r1 = self.scen.model.retailers[0]
        assert [tc.a for tc in r1.costs] == [1.0, 0.5]
        assert [tc.b for tc in r1.costs] == [2.0, 2.0]
        assert [tc.s for tc in r1.costs] == pytest.approx([1.76, 1.76])

    def test_markets(self):
        mk1, mk2 = self.scen.model.markets
        assert (mk1.alpha, mk1.gamma, mk1.kappa) == (-2.0, 0.2, 120.0)
        assert (mk2.alpha, mk2.gamma, mk2.kappa) == (-1.0, 0.4, 250.0)

    def test_initial_point(self):
        assert np.all(self.scen.x0.Q == 1.0)
        assert np.all(self.scen.x0.u == 0.0)
        assert np.all(self.scen.x0.lam == 0.0)
        assert self.scen.model.q_upper == 100.0


class TestExperiment5:
    def test_third_retailer_parameters(self):
        model = experiment5().model
        assert model.m == 3
        r3 = model.retailers[2]
        assert r3.B == pytest.approx(3.27)
        assert r3.D == pytest.approx(109.0)
        assert r3.c == pytest.approx(10.9)
        assert [tc.s for tc in r3.costs] == pytest.approx([1.09, 1.09])

    def test_markets_shared_with_experiment1(self):
        assert experiment5().model.markets == experiment1().model.markets

    def test_reference_levels_recorded(self):
        ref = REFERENCE_TARGETS["exp5"]
        assert ref["u"] == pytest.approx([0.55, 0.58, 0.59])
        assert ref["u_bar"] == pytest.approx(0.573)


class TestScenarioLookup:
    def test_by_name(self):
        assert scenario_by_name("exp1").name == "exp1"
        assert scenario_by_name("exp5").model.m == 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            scenario_by_name("exp9")

    def test_infeasible_initial_point_rejected(self):
        model = experiment1().model
        bad = DecisionVector(np.full((2, 2), -1.0), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            Scenario("bad", model, bad)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["exp1", "exp5"])
    def test_builtin_scenarios_round_trip_bit_exactly(self, name):
        scen = scenario_by_name(name)
        data = scenario_to_data(scen)
        back = scenario_from_data(data, name=name)
        assert back.model == scen.model
        assert np.array_equal(back.x0.flat(), scen.x0.flat())
        assert np.array_equal(back.x0.lam, scen.x0.lam)
        assert back.config == scen.config


class TestParameterPaths:
    def test_parse(self):
        assert parse_param("B1", 2) == ("B", 0)
        assert parse_param("D2", 2) == ("D", 1)
        assert parse_param("mu2", 3) == ("mu", 1)

    @pytest.mark.parametrize("bad", ["B0", "B3", "Z1", "B", "1B"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_param(bad, 2)

    def test_direct_override(self):
        scen = apply_parameter(experiment1(), "B1", 2.5)
        assert scen.model.retailers[0].B == 2.5
        # everything else untouched
        assert scen.model.retailers[0].D == pytest.approx(176.0)
        assert scen.model.retailers[1] == experiment1().model.retailers[1]

    def test_shares_coupling_rebuilds_both_retailers(self):
        scen = apply_parameter(experiment1(), "t1", 0.6)
        r1, r2 = scen.model.retailers
        assert r1.t == pytest.approx(0.6) and r2.t == pytest.approx(0.4)
        assert r1.B == pytest.approx(3.0 * 1.6)
        assert r2.D == pytest.approx(140.0)
        assert r1.mu == pytest.approx(1.6)
        assert [tc.s for tc in r2.costs] == pytest.approx([1.4, 1.4])

    def test_shares_coupling_requires_duopoly(self):
        with pytest.raises(ValueError):
            apply_parameter(experiment5(), "t1", 0.6)

    def test_share_of_a_model_outside_the_family_is_refused(self):
        # Rebuilding from the family would drop the raised budget silently.
        base = apply_parameter(experiment1(), "B1", 2.5)
        with pytest.raises(ValueError, match="not a member"):
            apply_parameter(base, "t1", 0.6)


class TestSweepSpec:
    def test_builtins(self):
        exp2 = builtin_sweep("exp2")
        assert (exp2.param, exp2.start, exp2.stop, exp2.steps) == ("B1", 2.0, 3.5, 31)
        exp3 = builtin_sweep("exp3")
        assert (exp3.param, exp3.start, exp3.stop, exp3.steps) == ("D1", 120.0, 200.0, 81)
        exp4 = builtin_sweep("exp4")
        assert exp4.param == "t1"
        assert (exp4.start, exp4.stop, exp4.steps) == (0.55, 0.89, 18)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_sweep("exp7")

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(experiment1(), "B1", 3.0, 2.0, 5)
        with pytest.raises(ValueError):
            SweepSpec(experiment1(), "B1", 2.0, 3.0, 1)

    @pytest.mark.parametrize("start, stop", [
        (2.0, np.inf), (-np.inf, 3.0), (np.nan, 3.0), (2.0, np.nan),
    ])
    def test_non_finite_range(self, start, stop):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec(experiment1(), "B1", start, stop, 5)

    def test_grid(self):
        spec = SweepSpec(experiment1(), "B1", 2.0, 3.0, 3)
        assert np.allclose(spec.grid(), [2.0, 2.5, 3.0])


def cold_rows(spec):
    """solution_row of solve_scenario at every grid value, each row alone."""
    return [solution_row(*solve_scenario(apply_parameter(spec.scenario, spec.param,
                                                         float(value))), value)
            for value in spec.grid()]


def sweep_and_stack(spec, monkeypatch):
    """run_sweep(spec) and the StackReport of the one solve it makes."""
    stacks = []

    def recorded(*args, **kwargs):
        stacks.append(solver.solve(*args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(scenarios, "solve", recorded)
    result = run_sweep(spec)
    stack, = stacks
    return result, stack


class TestRunSweep:
    def test_degenerate_two_point_sweep_rows_agree(self):
        spec = SweepSpec(experiment1(), "D1", 160.0, 160.0 + 1e-9, 2)
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert all(r.converged for r in result.rows)
        a, b = result.rows
        assert np.max(np.abs(a.u - b.u)) < 1e-6
        assert np.max(np.abs(a.Q - b.Q)) < 1e-5

    def test_rows_equal_their_cold_solves_bit_for_bit(self):
        # Every row of a sweep is solve_scenario of its own scenario, to the
        # last bit and iteration, whatever the other rows of the stack are.
        for name in ("exp2", "exp3", "exp4"):
            spec = builtin_sweep(name)
            rows = run_sweep(spec).rows
            assert len(rows) == spec.steps
            for row, cold in zip(rows, cold_rows(spec)):
                for attr in ("u", "Q", "lam", "eu", "residual", "iterations", "converged",
                             "value"):
                    assert np.array_equal(getattr(row, attr), getattr(cold, attr)), attr

    def test_budget_sweep_iteration_count(self, monkeypatch):
        # Iteration counts are deterministic, so they gate the cost of the
        # budget-binding rows exactly: each row takes its cold count, 838
        # in all, in the 32 passes of its largest row.
        spec = builtin_sweep("exp2")
        result, stack = sweep_and_stack(spec, monkeypatch)
        assert len(result.rows) == 31
        assert all(r.converged for r in result.rows)
        assert [r.iterations for r in result.rows] == [r.iterations for r in cold_rows(spec)]
        assert stack.iterations == 838
        assert stack.passes == 32

    def test_cold_budget_sweep_rows_are_cheap(self):
        # Solved cold, every row starts at u = 0, where the level block is
        # well scaled too: the largest row takes 32 iterations.
        spec = builtin_sweep("exp2")
        reports = [solve_scenario(apply_parameter(spec.scenario, spec.param, value))[1]
                   for value in spec.grid()]
        assert len(reports) == 31
        assert all(r.converged for r in reports)
        assert max(r.iterations for r in reports) <= 40

    @pytest.mark.parametrize("name, rows, total, passes", [
        ("exp3", 81, 1416, 19),
        ("exp4", 18, 328, 21),
    ], ids=["exp3", "exp4"])
    def test_sweep_iteration_count(self, monkeypatch, name, rows, total, passes):
        spec = builtin_sweep(name)
        result, stack = sweep_and_stack(spec, monkeypatch)
        assert len(result.rows) == rows
        assert all(r.converged for r in result.rows)
        assert [r.iterations for r in result.rows] == [r.iterations for r in cold_rows(spec)]
        assert stack.iterations == total
        assert stack.passes == passes

    def test_rows_flagged_when_not_converged(self):
        base = experiment1()
        starved = Scenario(base.name, base.model, base.x0,
                           SolverConfig(tol=1e-12, max_iter=10))
        result = run_sweep(SweepSpec(starved, "D1", 150.0, 160.0, 2))
        assert len(result.rows) == 2
        assert not any(r.converged for r in result.rows)


def _synthetic_result(params, u1, u2, converged=None):
    rows = []
    conv = converged if converged is not None else [True] * len(params)
    for p, a, b, c in zip(params, u1, u2, conv):
        rows.append(SweepRow(p, np.array([a, b]), np.zeros((2, 2)), np.zeros(2),
                             np.zeros(2), 1e-9, 10, c))
    spec = SweepSpec(experiment1(), "B1", min(params), max(params), len(params))
    return SweepResult(spec, rows)


class TestFindCrossing:
    def test_linear_series_interpolates_exactly(self):
        res = _synthetic_result([1.0, 2.0, 3.0], [0.0, 1.0, 2.0], [1.5, 1.5, 1.5])
        assert find_crossing(res, "u_1", "u_2") == pytest.approx(2.5)

    def test_constant_equal_series_has_no_crossing(self):
        res = _synthetic_result([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert find_crossing(res, "u_1", "u_2") is None

    def test_one_sided_series_has_no_crossing(self):
        res = _synthetic_result([1.0, 2.0, 3.0], [2.0, 2.1, 2.2], [1.0, 1.0, 1.0])
        assert find_crossing(res, "u_1", "u_2") is None

    def test_unconverged_rows_are_ignored(self):
        res = _synthetic_result([1.0, 2.0, 3.0, 4.0],
                                [0.0, 5.0, 2.0, 3.0],
                                [1.5, 1.5, 1.5, 1.5],
                                converged=[True, False, True, True])
        # with the bogus middle row ignored, crossing sits between 1.0 and 3.0
        assert find_crossing(res, "u_1", "u_2") == pytest.approx(2.5)

    def test_exact_zero_row_is_skipped_for_strictness(self):
        res = _synthetic_result([1.0, 2.0, 3.0], [1.0, 1.5, 2.0], [1.5, 1.5, 1.5])
        assert find_crossing(res, "u_1", "u_2") == pytest.approx(2.0, abs=0.5)


class TestCrossingReconciliation:
    def test_crossing_inside_band_is_reproduced(self):
        # exp2-style: u1 rises through u2 between B1 = 3.0 and 3.1
        res = _synthetic_result([2.9, 3.0, 3.1, 3.2], [0.93, 0.94, 0.96, 0.96],
                                [0.95, 0.95, 0.95, 0.95])
        crossing = find_crossing(res, "u_1", "u_2")
        text = crossing_reconciliation("exp2", crossing)
        assert "3.06" in text
        assert "not reproduced" not in text
        assert "reproduced" in text
        assert f"B1~{crossing:.4f}" in text

    def test_one_sided_series_is_not_reproduced(self):
        # exp3-style: u1 stays above u2 over the whole grid
        res = _synthetic_result([120.0, 160.0, 200.0], [0.958, 0.962, 0.966],
                                [0.957, 0.957, 0.957])
        text = crossing_reconciliation("exp3", find_crossing(res, "u_1", "u_2"))
        assert "137" in text
        assert "not reproduced" in text
        assert "none in the swept range" in text

    def test_crossing_outside_band_is_not_reproduced(self):
        text = crossing_reconciliation("exp3", 150.0)
        assert "not reproduced" in text
        assert "D1~150.0000" in text


class TestSeries:
    def test_extraction(self):
        res = _synthetic_result([1.0, 2.0], [0.1, 0.2], [0.3, 0.4])
        assert np.allclose(res.series("param"), [1.0, 2.0])
        assert np.allclose(res.series("u_2"), [0.3, 0.4])
        assert np.allclose(res.series("Q_2_1"), [0.0, 0.0])
        assert np.allclose(res.series("lambda_1"), [0.0, 0.0])

    def test_unknown_series(self):
        # Only "param" and the row's own column names are series: no index
        # past the duopoly, and no zero-padded spelling of a real column.
        res = _synthetic_result([1.0, 2.0], [0.1, 0.2], [0.3, 0.4])
        for name in ("w_1", "u_3", "Q_01_1"):
            with pytest.raises(KeyError):
                res.series(name)

    def test_columns_read_each_row_once(self, monkeypatch):
        res = _synthetic_result([1.0, 2.0], [0.1, 0.2], [0.3, 0.4])
        calls = []
        original = SweepRow.columns
        monkeypatch.setattr(SweepRow, "columns", lambda row: calls.append(row) or original(row))
        cols = res.columns("param", "u_1", "u_2", "converged")
        assert len(calls) == 2
        assert np.array_equal(cols["param"], [1.0, 2.0])
        assert np.array_equal(cols["u_1"], [0.1, 0.2])
        assert find_crossing(res, "u_1", "u_2") is None
        assert len(calls) == 4
        with pytest.raises(KeyError, match="unknown series 'u_3'"):
            find_crossing(res, "u_1", "u_3")


class TestSolveScenario:
    @pytest.mark.parametrize("scenario", [experiment1, experiment5])
    def test_iteration_count(self, scenario):
        # Deterministic count gate on the solve in Jacobi-scaled (z, w)
        # coordinates with the level block in log form, at the measured
        # counts, so that a drift in the solver's constants shows: exp1
        # takes 14 iterations, exp5 16, each with 1 beta retry.
        scen = scenario()
        _, report = solve_scenario(scen)
        assert report.converged
        assert report.iterations == {"exp1": 14, "exp5": 16}[scen.name]
        assert report.beta_retries == 1

    @pytest.mark.parametrize("m, gate", [
        (8, 35),    # 27 iterations
        (16, 80),   # 66
        (32, 160),  # 133
    ])
    def test_iterations_scale_with_the_number_of_retailers(self, m, gate):
        shares = np.random.default_rng(m).dirichlet(np.ones(m))
        _, report = solve_scenario(Scenario(f"m{m}", experiment_model(tuple(shares))))
        assert report.converged
        assert report.iterations <= gate

    def test_exp1_converges_quickly(self):
        problem, report = solve_scenario(experiment1())
        assert report.converged
        assert report.final_residual <= 1e-7
        point = problem.split(report.solution)
        assert 0.9 < point.u[0] < 1.0

    def test_exp1_equilibrium_golden_values(self):
        # Frozen from a converged run; guards against silent model or
        # solver regressions.
        problem, report = solve_scenario(experiment1())
        point = problem.split(report.solution)
        model = experiment1().model
        # Without attack losses the utility is profit less the investment cost.
        no_loss = replace(model, retailers=tuple(replace(r, D=0.0) for r in model.retailers))
        for x, profit in enumerate((4219.0305, 6150.0311)):
            assert no_loss.expected_utility(x, point.Q, point.u) - np.log1p(-point.u[x]) \
                == pytest.approx(profit, abs=1e-3)
        assert model.expected_utility(0, point.Q, point.u) == pytest.approx(
            4215.2566, abs=1e-3)
        assert model.expected_utility(1, point.Q, point.u) == pytest.approx(
            6146.6406, abs=1e-3)
        assert point.Q.ravel() == pytest.approx([9.6438, 45.3669, 13.2754, 58.6843],
                                                abs=1e-3)
