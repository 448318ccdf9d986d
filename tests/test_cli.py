"""Command-line interface tests: exit codes, schema diagnostics, CSV output."""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from secgame import cli, solver
from secgame.cli import (EXIT_NO_CONVERGENCE, EXIT_OK, EXIT_VALIDATION,
                         EXIT_VERIFICATION, SchemaError, main, scenario_from_data,
                         scenario_to_data)
from secgame.model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from secgame.scenarios import SweepResult, SweepRow, experiment1, experiment5
from secgame.solver import SolverConfig


@pytest.fixture()
def exp1_file(tmp_path):
    path = tmp_path / "exp1.json"
    path.write_text(json.dumps(scenario_to_data(experiment1())))
    return str(path)


def run(args):
    return main(args)


class TestSolveCommand:
    def test_builtin_solves(self, capsys):
        assert run(["solve", "exp1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged: yes" in out
        assert "0.9642" in out
        assert "reconciliation" in out

    def test_scenario_file_roundtrip_and_csv(self, exp1_file, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(["solve", "exp1", "--out", str(out1)]) == EXIT_OK
        assert run(["solve", exp1_file, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ("u_1,u_2,Q_1_1,Q_1_2,Q_2_1,Q_2_2,lambda_1,lambda_2,"
                          "EU_1,EU_2,residual,iters,converged")

    def test_dump_resolves_and_resolves_identically(self, tmp_path, capsys):
        assert run(["solve", "exp1", "--dump"]) == EXIT_OK
        dumped = capsys.readouterr().out
        data = json.loads(dumped)
        assert data["model"]["m"] == 2
        path = tmp_path / "dumped.json"
        path.write_text(dumped)
        out1 = tmp_path / "c.csv"
        out2 = tmp_path / "d.csv"
        assert run(["solve", "exp1", "--out", str(out1)]) == EXIT_OK
        assert run(["solve", str(path), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_small_box_without_initial_solves_and_dumps(self, tmp_path, capsys):
        # The default start Q = 1 is projected onto q_upper = 0.5.
        data = scenario_to_data(experiment1())
        data["model"]["q_upper"] = 0.5
        del data["initial"]
        path = tmp_path / "q05.json"
        path.write_text(json.dumps(data))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["solve", str(path), "--out", str(out1)]) == EXIT_OK
        capsys.readouterr()
        assert run(["solve", str(path), "--dump"]) == EXIT_OK
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["initial"] == {"Q": [[0.5, 0.5], [0.5, 0.5]], "u": [0.0, 0.0]}
        path.write_text(json.dumps(dumped))
        assert run(["solve", str(path), "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("Q, where", [
        pytest.param([[-1.0, 1.0], [1.0, 1.0]], "initial: ", id="Q0"),
        pytest.param([[1.0, 1.0], [1.0, 101.0]], "initial: ", id="Q1"),
        pytest.param(5.0, "initial.Q: expected an array", id="5.0"),
    ])
    def test_bad_initial_point_names_initial(self, tmp_path, capsys, Q, where):
        data = scenario_to_data(experiment1())
        data["initial"]["Q"] = Q
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        assert f"error: bad.json.{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, where", [
        ("u", [10**400, 0.5], "initial.u[0]: expected a finite number"),
        ("Q", [[1.0, 10**400], [1.0, 1.0]], "initial.Q[0][1]: expected a finite number"),
        ("u", [True, 0.5], "initial.u[0]: expected a number"),
        ("Q", [[1.0, 1.0], [False, 1.0]], "initial.Q[1][0]: expected a number"),
        ("u", ["0.5", 0.5], "initial.u[0]: expected a number"),
        ("Q", [["0.5", 1.0], [1.0, 1.0]], "initial.Q[0][0]: expected a number"),
        ("Q", [[1.0, 1.0], [1.0]], "initial.Q: expected rows of equal length"),
        ("Q", [[[1.0], [1.0]], [[1.0], [1.0]]], "initial.Q[0][0]: expected a number"),
        ("u", [[0.5], [0.5]], "initial.u[0]: expected a number"),
    ], ids=["huge-u", "huge-Q", "bool-u", "bool-Q", "string-u", "string-Q", "ragged-Q",
            "nested-Q", "nested-u"])
    def test_initial_entry_is_read_as_a_number(self, tmp_path, capsys, key, value, where):
        # Each entry is read like every other number of the file: no
        # OverflowError traceback, and no bool or numeric string coerced.
        data = scenario_to_data(experiment1())
        data["initial"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        assert f"error: bad.json.{where}" in capsys.readouterr().err

    def test_initial_level_above_the_budget_cap_names_initial_u(self, tmp_path, capsys):
        # B1 = 5.28 caps u_1 at 1 - exp(-5.28) ~ 0.99491.
        data = scenario_to_data(experiment1())
        data["initial"]["u"] = [0.995, 0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: bad.json.initial.u: " in err and "retailer 1" in err
        data["initial"]["u"] = [0.99, 0.5]
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("section, key, value", [
        ("initial", "lambda", [0.5, 2.0]),
        ("solver", "rho", 1.9),
        ("solver", "beta0", 1.0),
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, section, key, value):
        # The multipliers are recovered from each solution and the
        # projection-contraction constants are fixed, so neither is read.
        data = scenario_to_data(experiment1())
        data[section][key] = value
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        assert f"error: old.json.{section}.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--out", "--trace"])
    def test_dump_refuses_output_options(self, tmp_path, capsys, option):
        target = tmp_path / "x.csv"
        assert run(["solve", "exp1", "--dump", option, str(target)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"error: {option}: not accepted with --dump" in captured.err
        assert captured.out == ""
        assert not target.exists()

    def test_missing_markets_names_the_path(self, tmp_path, capsys):
        data = scenario_to_data(experiment1())
        del data["model"]["markets"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "model.markets" in err

    def test_unknown_key_names_the_path(self, tmp_path, capsys):
        data = scenario_to_data(experiment1())
        data["model"]["retailers"][0]["budget"] = 1.0
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        assert "model.retailers[0].budget" in capsys.readouterr().err

    def test_invalid_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["solve", str(path)]) == EXIT_VALIDATION

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        data = scenario_to_data(experiment1())
        data["solver"]["max_iter"] = 5
        path = tmp_path / "starved.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_NO_CONVERGENCE
        assert "converged: NO" in capsys.readouterr().out

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert run(["solve", "exp1", "--trace", str(trace)]) == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,residual,beta,r"
        # One row per iteration the solve reports, numbered from 0.
        iterations = int(re.search(r"iterations: (\d+)", capsys.readouterr().out).group(1))
        assert iterations > 0
        assert len(lines) == 1 + iterations
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(iterations))

    @pytest.mark.parametrize("section, key, value, where", [
        ("retailer", "B", float("nan"), "model.retailers[0].B: expected a finite number"),
        ("market", "kappa", float("inf"), "model.markets[0].kappa: expected a finite"),
        # The id is the one this row had when the message named only
        # "initial"; each entry is now read with its own path.
        pytest.param("initial", "u", [float("-inf"), 0.0],
                     "initial.u[0]: expected a finite number",
                     id="initial-u-value2-initial: expected finite numbers"),
    ])
    def test_non_finite_number_names_the_path(self, tmp_path, capsys, section, key,
                                              value, where):
        data = scenario_to_data(experiment1())
        target = {"retailer": data["model"]["retailers"][0],
                  "market": data["model"]["markets"][0],
                  "initial": data["initial"]}[section]
        target[key] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))  # writes the bare tokens NaN / Infinity
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        assert where in capsys.readouterr().err

    def test_invalid_cost_names_the_path(self, tmp_path, capsys):
        data = scenario_to_data(experiment1())
        data["model"]["retailers"][0]["costs"][0]["a"] = -1.0
        path = tmp_path / "badcost.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "model.retailers[0].costs[0]" in err
        assert "quadratic coefficient a must be nonnegative" in err

    def test_overflowing_ratio_maps_to_nonconvergence(self, tmp_path, capsys):
        # gamma = 1e300 overflows |F(X) - F(Xt)| in the prediction step; the
        # retry would shrink beta to 0.
        data = scenario_to_data(experiment1())
        data["model"]["markets"][0]["gamma"] = 1e300
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(["solve", str(path)]) == EXIT_NO_CONVERGENCE
        assert "error: shrinkage ratio is not finite" in capsys.readouterr().err

    def test_numeric_error_maps_to_nonconvergence(self, tmp_path, capsys):
        # Finite but huge intercepts overflow the operator sum to -inf.
        data = scenario_to_data(experiment1())
        for market in data["model"]["markets"]:
            market["kappa"] = 1e308
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        with np.errstate(over="ignore"):
            assert run(["solve", str(path)]) == EXIT_NO_CONVERGENCE
        assert "error: operator returned non-finite values" in capsys.readouterr().err

    def test_three_retailer_builtin(self, capsys):
        assert run(["solve", "exp5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 retailers" in out
        assert "unreconciled" in out


class TestSweepCommand:
    def test_custom_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--param", "D1", "--from", "150", "--to", "160",
                    "--steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,u_1,u_2,Q_1_1")
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "150.0"
        assert all(line.endswith("true") for line in lines[1:])

    def test_budget_sweep_projects_the_base_start_into_each_row(self, tmp_path):
        # u_1 = 0.96 is within the file's cap but above the cap 1 - exp(-2)
        # ~ 0.865 of the first rows: each row starts from its projection.
        data = scenario_to_data(experiment1())
        data["initial"]["u"] = [0.96, 0.95]
        path = tmp_path / "high.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", str(path), "--param", "B1", "--from", "2.0",
                    "--to", "4.0", "--steps", "3", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith("true") for row in rows)
        assert float(rows[0].split(",")[1]) <= -math.expm1(-2.0)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--param", "D1", "--from", "150", "--to", "160",
                "--steps", "3"]
        assert run(argv + ["--out", str(a)]) == EXIT_OK
        assert run(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_csv_when_no_out(self, capsys):
        code = run(["sweep", "--param", "D1", "--from", "150", "--to", "160",
                    "--steps", "2"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("param,u_1")
        assert "crossing" in captured.err or "no crossing" in captured.err
        assert "recorded crossing" not in captured.err

    def test_shares_coupling_through_cli(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = run(["sweep", "--param", "t1", "--from", "0.70", "--to", "0.80",
                    "--steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 4

    def test_shares_sweep_of_a_family_file_matches_the_builtin(self, tmp_path, capsys):
        # A dumped exp1 is a member of the built-in family, so tN may sweep it.
        path = tmp_path / "exp1.json"
        path.write_text(json.dumps(scenario_to_data(experiment1())))
        outs = []
        for scenario in ("exp1", str(path)):
            outs.append(tmp_path / f"t{len(outs)}.csv")
            assert run(["sweep", "--scenario", scenario, "--param", "t1", "--from", "0.70",
                        "--to", "0.80", "--steps", "3", "--out", str(outs[-1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("param, bounds, message", [
        ("t1", ["0.5", "1.2"], "t1 = 1.2: market share t must lie in [0, 1]"),
        ("B1", ["-1", "1"], "B1 = -1: budget B must be positive"),
    ])
    def test_grid_outside_the_domain_refused_before_solving(self, capsys, monkeypatch,
                                                            param, bounds, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep solved before its grid was checked")

        monkeypatch.setattr(cli, "run_sweep", forbidden)
        assert run(["sweep", "--param", param, "--from", bounds[0], "--to", bounds[1],
                    "--steps", "3"]) == EXIT_VALIDATION
        assert f"error: sweep: {message}" in capsys.readouterr().err

    def test_builtin_market_share_sweep(self, tmp_path, capsys):
        out = tmp_path / "exp4.csv"
        assert run(["sweep", "exp4", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 19  # header + 18 grid points
        printed = capsys.readouterr().out
        assert "crossing" in printed or "no crossing" in printed

    def test_shares_sweep_of_scenario_file_refused(self, tmp_path, capsys):
        # Shares coupling rebuilds the built-in family, which would discard
        # this file's market-1 intercept.
        data = scenario_to_data(experiment1())
        data["model"]["markets"][0]["kappa"] = 500.0
        path = tmp_path / "kappa500.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "t.csv"
        code = run(["sweep", "--scenario", str(path), "--param", "t1", "--from", "0.70",
                    "--to", "0.80", "--steps", "3", "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert ("error: sweep: t1 = 0.7: market-share parameters rebuild the built-in "
                "scenario family" in capsys.readouterr().err)
        assert not out.exists()

    def test_builtin_sweep_reports_recorded_crossing(self, tmp_path, capsys,
                                                      monkeypatch):
        # Stand in for the 81-row exp3 solve with a one-sided level series.
        def fake_run_sweep(spec):
            rows = [SweepRow(v, np.array([0.96, 0.95]), np.ones((2, 2)),
                             np.zeros(2), np.zeros(2), 1e-10, 5, True)
                    for v in (120.0, 200.0)]
            return SweepResult(spec, rows)

        monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
        out = tmp_path / "exp3.csv"
        assert run(["sweep", "exp3", "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "no crossing of u1 and u2 in [120.0, 200.0]"
        assert printed[1].startswith("recorded crossing D1~137")
        assert "not reproduced" in printed[1]
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_builtin_name(self, capsys):
        assert run(["sweep", "exp9"]) == EXIT_VALIDATION

    def test_missing_flags_for_custom(self, capsys):
        assert run(["sweep", "--param", "D1"]) == EXIT_VALIDATION

    def test_invalid_range(self, capsys):
        assert run(["sweep", "--param", "D1", "--from", "160", "--to", "150",
                    "--steps", "3"]) == EXIT_VALIDATION

    def test_unknown_parameter_path(self, capsys):
        assert run(["sweep", "--param", "Z1", "--from", "1", "--to", "2",
                    "--steps", "2"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("flag, bounds", [
        ("--to", ["120", "inf"]),
        ("--from", ["nan", "160"]),
    ])
    def test_non_finite_bound_names_the_option(self, capsys, flag, bounds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["sweep", "--param", "D1", "--from", bounds[0], "--to", bounds[1]])
        assert code == EXIT_VALIDATION
        assert f"error: {flag}: expected a finite number" in capsys.readouterr().err


    @pytest.mark.parametrize("option", [
        ["--param", "Z9"], ["--from", "inf"], ["--to", "nan"], ["--steps", "1"],
        ["--scenario", "exp5"],
    ], ids=["param", "from", "to", "steps", "scenario"])
    def test_builtin_sweep_refuses_grid_options(self, capsys, monkeypatch, option):
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep solved before its options were checked")

        monkeypatch.setattr(cli, "run_sweep", forbidden)
        assert run(["sweep", "exp4"] + option) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"error: {option[0]}: not accepted with the built-in sweep exp4" in err

    def test_custom_sweep_defaults(self, capsys, monkeypatch):
        seen = []
        real_run_sweep = cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep",
                            lambda spec: seen.append(spec) or real_run_sweep(spec))
        assert run(["sweep", "--param", "D1", "--from", "150", "--to", "160"]) == EXIT_OK
        assert seen[0].steps == 31 and seen[0].scenario.name == "exp1"


class TestVerifyCommand:
    @pytest.mark.parametrize("eps", ["nan", "inf", "-1e-3"])
    def test_bad_eps_is_validation_error(self, capsys, monkeypatch, eps):
        def forbidden(*args, **kwargs):
            raise AssertionError("scenario solved before --eps was checked")

        monkeypatch.setattr(cli, "solve_scenario", forbidden)
        assert run(["verify", "exp1", f"--eps={eps}"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: --eps: expected a finite nonnegative number" in err

    def test_certifies_good_solve(self, capsys):
        assert run(["verify", "exp1", "--grid", "30"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "certified" in out

    def test_oversized_grid_is_validation_error(self, capsys, monkeypatch):
        # 1000**3 lattice points: a missing check must fail here, not allocate.
        def forbidden(*args, **kwargs):
            raise AssertionError("lattice built past the point budget")

        monkeypatch.setattr(solver, "_own_move_readings", forbidden)
        assert run(["verify", "exp1", "--grid", "1000"]) == EXIT_VALIDATION
        assert "lattice points" in capsys.readouterr().err

    def test_too_coarse_grid_names_the_option(self, capsys):
        assert run(["verify", "exp1", "--grid", "1"]) == EXIT_VALIDATION
        assert "error: --grid: grid_density must be at least 2" in capsys.readouterr().err

    def test_sloppy_solve_fails_verification(self, tmp_path, capsys):
        data = scenario_to_data(experiment1())
        # At tol 1 the solve stops where a unilateral deviation still gains
        # ~0.1, about 100x the audit threshold eps_br = 1e-3.
        data["solver"]["tol"] = 1.0
        path = tmp_path / "sloppy.json"
        path.write_text(json.dumps(data))
        assert run(["verify", str(path), "--grid", "50"]) == EXIT_VERIFICATION
        assert "NOT certified" in capsys.readouterr().out

    @pytest.mark.parametrize("markets", [[0, 1], [0]], ids=["every-market", "market-1"])
    def test_saturated_utilities_are_not_certified(self, tmp_path, capsys, markets):
        # kappa = 1e300 gives utilities of ~1e302, whose rounding is far
        # above the threshold 1e-3: every gain the audit takes reads 0, so
        # it reports nan instead of certifying.
        data = scenario_to_data(experiment1())
        for y in markets:
            data["model"]["markets"][y]["kappa"] = 1e300
        path = tmp_path / "saturated.json"
        path.write_text(json.dumps(data))
        assert run(["verify", str(path)]) == EXIT_VERIFICATION
        out = capsys.readouterr().out
        assert "best unilateral improvement nan" in out
        assert "equilibrium certified" not in out

    def test_single_retailer_trivial_scenario(self, tmp_path, capsys):
        data = {
            "model": {
                "m": 1, "n": 1,
                "retailers": [{"c": 4.0, "B": 2.0, "D": 0.0, "t": 0.5, "mu": 0.0,
                               "costs": [{"a": 1.0, "b": 2.0, "s": 1.0}]}],
                "markets": [{"alpha": -2.0, "gamma": 0.0, "kappa": 40.0}],
            },
        }
        path = tmp_path / "single.json"
        path.write_text(json.dumps(data))
        assert run(["verify", str(path), "--grid", "40"]) == EXIT_OK


class TestGradcheckCommand:
    def test_default_variant_passes(self, capsys):
        assert run(["gradcheck", "exp1", "--points", "25"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_literal_variant_fails(self, capsys):
        assert run(["gradcheck", "exp1", "--points", "25",
                    "--variant", "literal-eq13"]) == EXIT_VERIFICATION
        assert "FAIL" in capsys.readouterr().out

    def test_zero_points_is_usage_error(self, capsys):
        assert run(["gradcheck", "exp1", "--points", "0"]) == EXIT_VALIDATION

    def test_out_of_range_step_names_the_option(self, capsys):
        assert run(["gradcheck", "exp1", "--step", "1"]) == EXIT_VALIDATION
        assert "error: --step: step must lie in [1e-7, 1e-4]" in capsys.readouterr().err

    def test_tiny_budget_names_the_budget_not_the_step(self, tmp_path, capsys):
        # B1 = 1e-6 caps u_1 at ~1e-6, below the 4 * step that central
        # differences at the default step 1e-5 need; the file still solves.
        data = scenario_to_data(experiment1())
        data["model"]["retailers"][0]["B"] = 1e-6
        data["initial"]["u"] = [0.0, 0.5]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(data))
        assert run(["solve", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert run(["gradcheck", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: tiny.json.model.retailers[0].B: " in err
        assert "--step" not in err

    def test_non_finite_values_never_pass(self, tmp_path, capsys):
        # At q_upper = 1e300 the utilities overflow: the finite-difference
        # error is NaN and the audit cannot read a finite value.
        data = scenario_to_data(experiment1())
        data["model"]["q_upper"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run(["gradcheck", str(path)]) == EXIT_VERIFICATION
            out = capsys.readouterr().out
            assert "max relative error nan" in out and "PASS" not in out
            assert run(["verify", str(path)]) == EXIT_VERIFICATION
        out = capsys.readouterr().out
        assert "best unilateral improvement nan" in out
        assert "equilibrium certified" not in out


class TestFailurePathOutput:
    """An overflow ends in the command's one diagnostic line, with no numpy
    RuntimeWarning before it."""

    @pytest.mark.parametrize("command, edit, code, err, out", [
        ("solve", lambda d: d["model"]["markets"][0].update(gamma=1e300),
         EXIT_NO_CONVERGENCE, ["error: shrinkage ratio is not finite (iteration 0)"], None),
        ("solve", lambda d: [mk.update(kappa=1e308) for mk in d["model"]["markets"]],
         EXIT_NO_CONVERGENCE, ["error: operator returned non-finite values (iteration 0)"],
         None),
        ("gradcheck", lambda d: d["model"].update(q_upper=1e300),
         EXIT_VERIFICATION, [], "FAIL: operator disagrees with finite differences"),
    ], ids=["solve-gamma", "solve-kappa", "gradcheck-q-upper"])
    def test_one_diagnostic_line(self, tmp_path, capsys, command, edit, code, err, out):
        data = scenario_to_data(experiment1())
        edit(data)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run([command, str(path)]) == code
        captured = capsys.readouterr()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert captured.err.splitlines() == err
        if out is not None:
            assert captured.out.splitlines()[-1] == out


class TestSchemaHelpers:
    def test_unknown_top_level_key(self):
        data = scenario_to_data(experiment1())
        data["extra"] = {}
        with pytest.raises(SchemaError) as err:
            scenario_from_data(data)
        assert "extra" in str(err.value)

    def test_wrong_type_reported_with_path(self):
        data = scenario_to_data(experiment1())
        data["model"]["retailers"][1]["B"] = "much"
        with pytest.raises(SchemaError) as err:
            scenario_from_data(data)
        assert "model.retailers[1].B" in str(err.value)

    def test_invariant_violation_reported_with_path(self):
        data = scenario_to_data(experiment1())
        data["model"]["markets"][0]["alpha"] = 2.0
        with pytest.raises(SchemaError) as err:
            scenario_from_data(data)
        assert "model.markets[0]" in str(err.value)

    def test_defaults_applied_when_sections_missing(self):
        data = scenario_to_data(experiment1())
        del data["initial"]
        del data["solver"]
        scen = scenario_from_data(data)
        assert scen.config.tol == 1e-7
        assert scen.x0.Q[0, 0] == 1.0

    @pytest.mark.parametrize("edit, where", [
        (lambda d: d["model"]["retailers"][0]["costs"][0].pop("s"),
         "scenario.model.retailers[0].costs[0].s: missing required key"),
        (lambda d: d["model"].update(m=2.0), "scenario.model.m: expected an integer"),
        (lambda d: d["model"].update(loss_gradient_includes_multiplier=1),
         "scenario.model.loss_gradient_includes_multiplier: expected true or false"),
        (lambda d: d["model"].update(retailers={}),
         "scenario.model.retailers: expected an array"),
        (lambda d: d["solver"].update(max_iter=1e5),
         "scenario.solver.max_iter: expected an integer"),
        (lambda d: d["model"]["markets"][1].update(kappa=10**400),
         "scenario.model.markets[1].kappa: expected a finite number"),
    ], ids=["missing-s", "float-m", "int-flag", "object-retailers", "float-max-iter",
            "huge-integer"])
    def test_field_errors_name_the_path(self, edit, where):
        data = scenario_to_data(experiment5())
        edit(data)
        with pytest.raises(SchemaError) as err:
            scenario_from_data(data)
        assert str(err.value) == where

    @pytest.mark.parametrize("section, key, default", [
        ("model", "q_upper", 100.0),
        ("model", "loss_gradient_includes_multiplier", True),
        ("solver", "tol", 1e-7),
        ("solver", "max_iter", 200_000),
    ])
    def test_missing_key_with_a_default_takes_it(self, section, key, default):
        base = experiment1()
        base = replace(base, model=replace(base.model, q_upper=50.0,
                                           loss_gradient_includes_multiplier=False),
                       config=SolverConfig(tol=1e-9, max_iter=10))
        data = scenario_to_data(base)
        assert data[section][key] != default
        del data[section][key]
        back = scenario_from_data(data)
        assert getattr(back.model if section == "model" else back.config, key) == default

    @pytest.mark.parametrize("cls", [TransactionCostParams, RetailerParams, MarketParams,
                                     ModelSpec, SolverConfig])
    def test_every_field_has_a_reader(self, cls):
        # A field whose annotation no reader covers fails here, not in a user's file.
        cli._schema(cls)

    def test_unreadable_annotation_is_refused(self):
        with pytest.raises(TypeError, match="no scenario-file reader"):
            cli._reader(str)
        with pytest.raises(TypeError, match="no scenario-file reader"):
            cli._reader(tuple)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == EXIT_VALIDATION

    def test_missing_scenario_argument(self):
        assert run(["solve"]) == EXIT_VALIDATION
