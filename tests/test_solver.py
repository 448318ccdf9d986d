"""Tests for the projection-contraction solver, best-response driver and
equilibrium verifier, validated against problems with known solutions."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from secgame import solver
from secgame.model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from secgame.reference import (affine_vi_10d, binding_budget_model,
                               binding_budget_solution, decoupled_duopoly_model,
                               scalar_affine_vi, single_retailer_model,
                               single_retailer_solution)
from secgame.scenarios import (Scenario, apply_parameter, builtin_sweep, experiment1,
                               experiment5, experiment_model, solve_scenario)
from secgame.solver import (DegenerateDirectionError, SolverConfig, SolverNumericError,
                            SolverReport, StackReport, best_response_solve, correct,
                            predict, solve, verify_equilibrium)
from secgame.vi import BoxVi, DecisionVector, InvestmentVi, ViProblem
from test_vi import clamped_exp1_model


def full_lattice_audit(model, point, grid_density, refinements=2):
    """Reference audit for n <= 2: the whole product lattice of own moves,
    evaluated by the model's batched value function, with the zoom-in
    refinement of verify_equilibrium.  Returns (improvements, best_points)."""
    assert model.n <= 2
    m, n = model.m, model.n
    u_caps = ViProblem(model).upper[m * n:]
    gains, best_points = np.zeros(m), []
    for x in range(m):
        lo = np.zeros(n + 1)
        hi = np.concatenate([[u_caps[x]], np.full(n, model.q_upper)])
        cap = hi.copy()
        best_val, best = -math.inf, None
        for _ in range(refinements + 1):
            axes = [np.linspace(lo[k], hi[k], grid_density) for k in range(n + 1)]
            # Lattice axis 0 is the level, axis 1 + y the shipment into y.
            Q = np.broadcast_to(point.Q, (1,) + (grid_density,) * n + (m, n)).copy()
            u = np.broadcast_to(point.u, (grid_density,) + (1,) * n + (m,)).copy()
            u[..., x] = axes[0].reshape((-1,) + (1,) * n)
            for y in range(n):
                Q[..., x, y] = axes[1 + y].reshape((1,) * y + (-1,) + (1,) * (n - 1 - y))
            vals = model.expected_utility_batch(x, Q, u)
            idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[idx] > best_val:
                best_val = float(vals[idx])
                best = np.array([axes[k][idx[k]] for k in range(n + 1)])
            step = (hi - lo) / (grid_density - 1)
            lo = np.maximum(0.0, best - step)
            hi = np.minimum(cap, best + step)
        gains[x] = best_val - model.expected_utility(x, point.Q, point.u)
        best_points.append((best[1:], float(best[0])))
    return gains, best_points


def solve_equilibrium(model):
    """(problem, report) of a converged tol-1e-9 scenario solve of ``model``."""
    x0 = DecisionVector(np.ones((model.m, model.n)), np.zeros(model.m), np.zeros(model.m))
    problem, report = solve_scenario(
        Scenario("test", model, x0, SolverConfig(tol=1e-9, max_iter=1_000_000)))
    assert report.converged
    return problem, report


def three_market_model(shares):
    """The experiment family with a third market inside the family's ranges."""
    model = experiment_model(shares)
    market = MarketParams(alpha=-1.5, gamma=0.3, kappa=180.0)
    retailers = tuple(
        replace(r, costs=r.costs + (TransactionCostParams(a=0.75, b=2.0, s=r.costs[0].s),))
        for r in model.retailers)
    return replace(model, n=3, retailers=retailers, markets=model.markets + (market,))


class TestConfig:
    def test_defaults(self):
        # The stopping rule is all a caller sets; the step and ratio
        # constants are fixed.
        assert [f.name for f in fields(SolverConfig)] == ["tol", "max_iter"]
        cfg = SolverConfig()
        assert cfg.tol == 1e-7 and cfg.max_iter == 200_000
        assert (solver.BETA0, solver.NU, solver.MU, solver.RHO) == (1.0, 0.9, 0.3, 1.9)

    # The ids are the ones these cases had when the list also held the
    # step and ratio settings, so their results stay comparable by name.
    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0},
        {"max_iter": -1},
    ], ids=["kwargs4", "kwargs6"])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestPredict:
    def test_scalar_affine_step(self):
        vi, _ = scalar_affine_vi()
        x = np.array([0.0])
        x_tilde, f_tilde, r = predict(vi, x, 1.0)
        assert x_tilde[0] == pytest.approx(3.0)
        assert r == pytest.approx(1.0)
        assert f_tilde[0] == pytest.approx(0.0)

    def test_at_solution_flags_zero_ratio(self):
        vi, x_star = scalar_affine_vi()
        x_tilde, _, r = predict(vi, x_star, 1.0)
        assert r == 0.0
        assert np.array_equal(x_tilde, x_star)

    def test_ratio_bounded_by_lipschitz_constant(self):
        vi, _, A, _ = affine_vi_10d()
        L = float(np.linalg.norm(A, 2))
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(0.0, 10.0, size=10)
            beta = rng.uniform(0.01, 2.0)
            _, _, r = predict(vi, x, beta)
            assert r <= beta * L + 1e-9

    def test_rejects_nonpositive_beta(self):
        vi, _ = scalar_affine_vi()
        with pytest.raises(ValueError):
            predict(vi, np.array([0.0]), 0.0)


class TestCorrect:
    def test_scalar_affine_hand_values(self):
        # beta = 0.5 from x = 0: x_tilde = 1.5, d = -0.75, delta = 2,
        # x+ = 0 - 1.9*2*(-0.75) = 2.85
        vi, _ = scalar_affine_vi()
        x = np.array([0.0])
        x_tilde, f_tilde, r = predict(vi, x, 0.5)
        assert x_tilde[0] == pytest.approx(1.5)
        out = correct(x, x_tilde, 0.5, vi.operator(x), f_tilde, 1.9)
        assert out[0] == pytest.approx(2.85)

    def test_degenerate_direction_raises(self):
        # beta = 1 makes d = (x - xt) - (F(x) - F(xt)) vanish for F(x) = x - 3.
        vi, _ = scalar_affine_vi()
        x = np.array([0.0])
        x_tilde, f_tilde, _ = predict(vi, x, 1.0)
        with pytest.raises(DegenerateDirectionError):
            correct(x, x_tilde, 1.0, vi.operator(x), f_tilde, 1.9)

    def test_constant_operator_collapses(self):
        x = np.array([4.0, 2.0])
        x_tilde = np.array([1.0, 1.0])
        f = np.array([0.5, 0.5])
        out = correct(x, x_tilde, 0.7, f, f, 1.9)
        assert np.allclose(out, x - 1.9 * (x - x_tilde))


class TestSolveAffine:
    def test_10d_reaches_analytic_solution(self):
        vi, x_star, _, _ = affine_vi_10d()
        report = solve(vi, SolverConfig(tol=1e-9))
        assert report.converged
        assert report.iterations < 5000
        assert np.max(np.abs(report.solution - x_star)) <= 1e-6

    def test_10d_construction_is_certified(self):
        # The complementarity pattern itself certifies x_star independently
        # of the solver: F > 0 on lower-active, F < 0 on upper-active,
        # F = 0 inside.
        vi, x_star, A, b = affine_vi_10d()
        F = A @ x_star + b
        assert np.all(F[:2] > 0) and np.all(F[-2:] < 0)
        assert np.allclose(F[2:8], 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > 0

    def test_fejer_distance_nonincreasing(self):
        vi, x_star, _, _ = affine_vi_10d()
        dists = []
        solve(vi, SolverConfig(tol=1e-9),
              callback=lambda k, x, *_: dists.append(np.linalg.norm(x - x_star)))
        diffs = np.diff(np.array(dists))
        assert np.all(diffs <= 1e-10)

    def test_scalar_affine(self):
        vi, x_star = scalar_affine_vi()
        report = solve(vi, SolverConfig(tol=1e-10), x0=np.array([9.0]))
        assert report.converged
        assert report.solution[0] == pytest.approx(3.0, abs=1e-9)

    def test_infinite_tol_returns_initial_point(self):
        vi, _ = scalar_affine_vi()
        report = solve(vi, SolverConfig(tol=math.inf), x0=np.array([7.0]))
        assert report.converged
        assert report.iterations == 0
        assert report.solution[0] == 7.0

    def test_max_iter_exhaustion_reports_not_raises(self):
        vi, _ = scalar_affine_vi()
        report = solve(vi, SolverConfig(tol=1e-12, max_iter=1), x0=np.array([0.0]))
        assert not report.converged
        assert report.final_residual > 1e-12

    def test_accepted_ratios_stay_below_upper_limit(self):
        vi, _, _, _ = affine_vi_10d()
        trace = []
        solve(vi, SolverConfig(tol=1e-8), callback=lambda k, x, *step: trace.append(step))
        assert trace, "expected a nonempty trace"
        for _, beta, r in trace:
            assert beta > 0
            assert r <= solver.NU + 1e-12

    def test_determinism_bitwise(self):
        vi, _, _, _ = affine_vi_10d()
        t1, t2 = [], []
        r1 = solve(vi, SolverConfig(tol=1e-9), callback=lambda k, x, *step: t1.append(step))
        r2 = solve(vi, SolverConfig(tol=1e-9), callback=lambda k, x, *step: t2.append(step))
        assert np.array_equal(r1.solution, r2.solution)
        assert t1 == t2
        assert r1.iterations == r2.iterations

    def test_numeric_error_carries_iteration(self):
        def bad_operator(x):
            return np.full_like(x, np.nan)

        vi = BoxVi(bad_operator, [0.0], [1.0])
        with pytest.raises(SolverNumericError) as err:
            solve(vi, SolverConfig(), x0=np.array([0.5]))
        assert err.value.iteration == 0


def same_report(a, b):
    return (np.array_equal(a.solution, b.solution) and a.iterations == b.iterations
            and a.final_residual == b.final_residual and a.converged == b.converged
            and a.beta_retries == b.beta_retries)


class TestStackedSolve:
    """A (k, dim) start solves k rows in one loop; each row is the solve of
    that row alone."""

    @pytest.mark.parametrize("max_iter, counts, converged", [
        (200_000, [0, 19, 17, 18], [True] * 4),
        (17, [0, 17, 17, 17], [True, False, True, False]),
    ], ids=["converge", "max-iter"])
    def test_rows_leave_the_stack_when_they_stop(self, max_iter, counts, converged):
        # Row 0 starts at the solution; the others stop at their own counts.
        vi, _ = scalar_affine_vi()
        cfg = SolverConfig(tol=1e-10, max_iter=max_iter)
        starts = np.array([[3.0], [9.0], [3.5], [5.0]])
        stack = solve(vi, cfg, x0=starts)
        assert isinstance(stack, StackReport)
        flat = [solve(vi, cfg, x0=x) for x in starts]
        assert all(isinstance(r, SolverReport) for r in flat)
        assert all(same_report(a, b) for a, b in zip(stack.reports, flat))
        assert [r.iterations for r in flat] == counts
        assert [r.converged for r in flat] == converged
        assert stack.iterations == sum(counts)
        assert stack.beta_retries == sum(r.beta_retries for r in flat) == 3
        assert stack.passes == max(counts)

    def test_rows_do_not_depend_on_the_stack(self):
        # The 81 exp3 rows, shuffled, solved in stacks of 1, 3 and 81: each
        # row's report has the same bits and counts in all three, and equals
        # the flat solve of its row.
        spec = builtin_sweep("exp3")
        problems = [ViProblem(apply_parameter(spec.scenario, "D1", float(v)).model)
                    for v in spec.grid()]
        order = np.random.default_rng(3).permutation(len(problems))
        problems = [problems[i] for i in order]
        start = spec.scenario.x0.flat()

        def solve_in_stacks_of(size):
            reports = []
            for first in range(0, len(problems), size):
                view = InvestmentVi(*problems[first:first + size])
                x0 = view.from_u(np.tile(start, (len(view.problems), 1)))
                reports += solve(view, spec.scenario.config, x0=x0).reports
            return reports

        alone, threes, whole = (solve_in_stacks_of(k) for k in (1, 3, 81))
        for a, b, c in zip(alone, threes, whole):
            assert a.converged and same_report(a, b) and same_report(a, c)
        view = InvestmentVi(problems[0])
        assert same_report(solve(view, spec.scenario.config, x0=view.from_u(start)), alone[0])

    def test_a_failing_row_fails_the_stack_without_warnings(self):
        # gamma = 1e300 overflows |F(X) - F(Xt)| on the second row.
        model = experiment1().model
        huge = replace(model, markets=(replace(model.markets[0], gamma=1e300),
                                       model.markets[1]))
        view = InvestmentVi(ViProblem(model), ViProblem(huge))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverNumericError, match="shrinkage ratio is not finite"):
                solve(view, x0=view.default_start())

    def test_step_functions_work_row_by_row(self):
        # Stacked predict and correct give each row its flat result; the
        # second row's step size makes its correction direction vanish.
        vi, _ = scalar_affine_vi()
        x, beta = np.array([[0.0], [1.0]]), [0.5, 1.0]
        xt, ft, r = predict(vi, x, beta)
        for i in range(2):
            flat = predict(vi, x[i], beta[i])
            assert np.array_equal(xt[i], flat[0]) and np.array_equal(ft[i], flat[1])
            assert r[i] == flat[2]
        fx = vi.operator(x)
        assert np.array_equal(correct(x[:1], xt[:1], beta[:1], fx[:1], ft[:1], 1.9)[0],
                              correct(x[0], xt[0], beta[0], fx[0], ft[0], 1.9))
        with pytest.raises(DegenerateDirectionError):
            correct(x, xt, beta, fx, ft, 1.9)


def closed_form_triple(problem, solution):
    """(Q, u, lambda) of a one-retailer, one-market solution, multiplier
    recovered by ViProblem.split, in the order of the reference solutions."""
    point = problem.split(solution)
    return np.array([point.Q[0, 0], point.u[0], point.lam[0]])


class TestBindingBudget:
    """The budget bound must hold the level down with a positive recovered
    multiplier; this pins the sign convention of lambda = -(1-u) F2."""

    def test_converges_to_constrained_optimum(self):
        model = binding_budget_model()
        problem = ViProblem(model)
        report = solve(problem, SolverConfig(tol=1e-9))
        assert report.converged
        got = closed_form_triple(problem, report.solution)
        assert np.max(np.abs(got - binding_budget_solution())) < 1e-5
        assert got[2] > 0.1  # multiplier strictly active

    def test_complementary_slackness_and_feasibility(self):
        model = binding_budget_model()
        problem = ViProblem(model)
        report = solve(problem, SolverConfig(tol=1e-9))
        point = problem.split(report.solution)
        G = -math.log(1.0 - point.u[0]) - model.retailers[0].B
        assert G <= 1e-8
        assert point.lam[0] * abs(G) <= 1e-6

    def test_slack_budget_keeps_multiplier_at_zero(self):
        problem = ViProblem(single_retailer_model())
        report = solve(problem, SolverConfig(tol=1e-9))
        point = problem.split(report.solution)
        assert report.converged
        assert point.lam[0] == pytest.approx(0.0, abs=1e-7)


class TestSingleRetailer:
    def test_solve_matches_closed_form(self):
        problem = ViProblem(single_retailer_model())
        report = solve(problem, SolverConfig(tol=1e-10))
        got = closed_form_triple(problem, report.solution)
        assert np.max(np.abs(got - single_retailer_solution())) < 1e-8

    def test_best_response_equals_solve_exactly(self):
        # With one retailer the single block is the whole problem, so the
        # first sweep's exact block best response is already the equilibrium.
        problem = ViProblem(single_retailer_model())
        cfg = SolverConfig(tol=1e-10)
        direct = solve(problem, cfg)
        br = best_response_solve(problem, cfg)
        assert br.converged
        assert np.max(np.abs(br.solution - direct.solution)) < 1e-8


class TestInvestmentCoordinates:
    """solve_scenario runs projection contraction on InvestmentVi; its
    equilibria must be those of a direct solve of ViProblem in u."""

    @pytest.mark.parametrize("build", [
        experiment1,
        experiment5,
        lambda: apply_parameter(experiment1(), "B1", 2.2),  # retailer 1's budget binds
    ], ids=["exp1", "exp5", "exp1-B1=2.2"])
    def test_agrees_with_direct_solve(self, build):
        cfg = SolverConfig(tol=1e-9, max_iter=1_000_000)
        scen = replace(build(), config=cfg)
        problem, report = solve_scenario(scen)
        direct = solve(ViProblem(scen.model), cfg, x0=scen.x0.flat())
        assert report.converged and direct.converged
        assert report.final_residual <= 1e-9
        assert problem.contains(report.solution)
        got = problem.split(report.solution)
        ref = problem.split(direct.solution)
        assert np.max(np.abs(got.u - ref.u)) <= 1e-8
        assert np.max(np.abs(got.Q - ref.Q)) <= 1e-8
        assert np.max(np.abs(got.lam - ref.lam)) <= 1e-6


class TestBestResponse:
    def test_decoupled_blocks_settle_in_one_sweep(self):
        model = decoupled_duopoly_model()
        problem = ViProblem(model)
        x0 = np.zeros(problem.dim)
        report = best_response_solve(problem, SolverConfig(tol=1e-9), x0=x0)
        assert report.converged
        # Sweep 1 lands on the equilibrium; sweep 2 only confirms it.
        assert report.iterations <= 2
        direct = solve(problem, SolverConfig(tol=1e-9), x0=x0)
        assert np.max(np.abs(report.solution - direct.solution)) < 1e-6

    def test_exp5_agreement_with_direct_solve(self):
        scen = experiment5()
        problem = ViProblem(scen.model)
        br = best_response_solve(problem, scen.config, x0=scen.x0.flat())
        direct = solve(problem, scen.config, x0=scen.x0.flat())
        assert br.converged and direct.converged
        b = problem.split(br.solution)
        d = problem.split(direct.solution)
        assert np.max(np.abs(b.Q - d.Q)) < 1e-4
        assert np.max(np.abs(b.u - d.u)) < 1e-4

    def test_binding_budget_matches_closed_form(self):
        problem = ViProblem(binding_budget_model())
        report = best_response_solve(problem, SolverConfig(tol=1e-9))
        assert report.converged
        assert report.beta_retries == 0
        got = closed_form_triple(problem, report.solution)
        assert np.max(np.abs(got - binding_budget_solution())) <= 1e-9

    def test_binding_budget_multiplier_matches_direct_solve(self):
        scen = apply_parameter(experiment1(), "B1", 2.2)
        problem = ViProblem(scen.model)
        br = best_response_solve(problem, scen.config, x0=scen.x0.flat())
        direct = solve(problem, SolverConfig(tol=1e-9, max_iter=1_000_000),
                       x0=scen.x0.flat())
        assert br.converged and direct.converged
        lam_br = problem.split(br.solution).lam
        lam_direct = problem.split(direct.solution).lam
        assert lam_direct[0] > 1.0  # retailer 1's budget binds
        assert np.max(np.abs(lam_br - lam_direct)) <= 1e-6

    def test_runs_no_projection_contraction_step(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("best response must not run the PC iteration")

        for name in ("solve", "predict", "correct"):
            monkeypatch.setattr(solver, name, forbidden)
        scen = experiment1()
        report = best_response_solve(ViProblem(scen.model), scen.config,
                                     x0=scen.x0.flat())
        assert report.converged
        assert report.iterations == 10
        assert report.beta_retries == 0

    @pytest.mark.parametrize("build, sweeps, max_calls", [
        (experiment1, 12, 72),
        (experiment5, 16, 144),
    ], ids=["exp1", "exp5"])
    def test_operator_call_count(self, build, sweeps, max_calls):
        # Each block costs one operator call for its shipments and two for
        # the readings of its level condition: 3 * m per sweep.
        problem = ViProblem(build().model)
        calls = []
        operator = problem.operator

        def counted(x):
            calls.append(1)
            return operator(x)

        problem.operator = counted
        report = best_response_solve(problem, SolverConfig(tol=1e-9))
        assert report.converged
        assert report.iterations == sweeps
        assert len(calls) <= max_calls

    def test_non_finite_operator_raises_numeric_error(self):
        # Finite but huge intercepts overflow the operator sum to -inf.
        model = experiment1().model
        huge = tuple(replace(mk, kappa=1e308) for mk in model.markets)
        problem = ViProblem(replace(model, markets=huge))
        with pytest.raises(SolverNumericError) as err, np.errstate(over="ignore"):
            best_response_solve(problem)
        assert err.value.iteration == 0

    def test_sweep_cap_reports_unconverged(self):
        scen = experiment1()
        problem = ViProblem(scen.model)
        report = best_response_solve(problem, scen.config, x0=scen.x0.flat(),
                                     max_sweeps=1)
        assert not report.converged
        assert report.iterations == 1


def bisect_level(problem, z, iu):
    """Root of the increasing F2[iu] over u in [0, cap] with the rest of z
    fixed, or the end it is pinned to: plain bisection to the last float."""
    def f2(u):
        w = z.copy()
        w[iu] = u
        return problem.operator(w)[iu]

    lo, hi = 0.0, float(problem.upper[iu])
    if f2(lo) >= 0.0:
        return lo
    if f2(hi) <= 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if f2(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def level_step(model, x, xi):
    """(problem, block best response of retailer xi at x, its level index)."""
    problem = ViProblem(model)
    return problem, solver._block_best_response(problem, x, xi), model.m * model.n + xi


def interior_start(model):
    """Q = 10 and u = 0.5 for every retailer: rivals at an interior point."""
    return DecisionVector(np.full((model.m, model.n), 10.0), np.full(model.m, 0.5)).flat()


class TestLevelStep:
    """The closed-form level of one best-response block against F2 itself
    and against a bisection on the operator."""

    def assert_interior_root(self, problem, z, iu):
        f2 = problem.operator(z)[iu]
        g = 1.0 / (1.0 - z[iu]) - f2
        assert 0.0 < z[iu] < problem.upper[iu]
        assert abs(f2) <= 1e-12 * max(1.0, g)

    @pytest.mark.parametrize("D", [0.0, 1e-6])
    def test_no_or_tiny_losses(self, D):
        # D = 0 makes g independent of u (c = 0): the root is v = 1/a.  A
        # tiny D gives 4c << a^2, where the textbook root (sqrt(a^2 + 4c) - a)
        # / 2c would cancel most of its digits.
        model = experiment1().model
        model = replace(model, retailers=tuple(replace(r, D=D) for r in model.retailers))
        x = interior_start(model)
        for xi in range(model.m):
            problem, z, iu = level_step(model, x, xi)
            self.assert_interior_root(problem, z, iu)
            assert abs(z[iu] - bisect_level(problem, z, iu)) <= 1e-12

    def test_tiny_budget_pins_the_level_at_its_cap(self):
        model = experiment1().model
        poor = replace(model.retailers[0], B=1e-9)
        model = replace(model, retailers=(poor,) + model.retailers[1:])
        problem, z, iu = level_step(model, interior_start(model), 0)
        assert z[iu] == problem.upper[iu] == -math.expm1(-1e-9)
        assert problem.operator(z)[iu] < 0.0

    def test_negative_coupling(self):
        # gamma < 0 pulls g down as shipments grow.  With the clamped
        # model's losses raised to D = 5, g spans 1 over the drawn rival
        # points, so some blocks pin at 0 and the others are interior.
        model = clamped_exp1_model()
        model = replace(model, retailers=tuple(replace(r, D=5.0) for r in model.retailers))
        rng = np.random.default_rng(4)
        pinned = interior = 0
        for _ in range(20):
            x = np.concatenate([rng.uniform(0.0, model.q_upper, model.m * model.n),
                                rng.uniform(0.0, 0.9, model.m)])
            for xi in range(model.m):
                problem, z, iu = level_step(model, x, xi)
                if z[iu] == 0.0:
                    pinned += 1
                    assert problem.operator(z)[iu] >= 0.0
                else:
                    interior += 1
                    self.assert_interior_root(problem, z, iu)
                assert abs(z[iu] - bisect_level(problem, z, iu)) <= 1e-12
        assert pinned and interior

    def test_level_pinned_at_zero(self):
        # No losses and no security coupling: g = 0, F2 = 1/v > 0 everywhere.
        model = experiment1().model
        model = replace(model,
                        markets=tuple(replace(mk, gamma=0.0) for mk in model.markets),
                        retailers=tuple(replace(r, D=0.0) for r in model.retailers))
        x = interior_start(model)
        for xi in range(model.m):
            problem, z, iu = level_step(model, x, xi)
            assert z[iu] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_bisection_on_seeded_draws(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(8):
            model = experiment_model(tuple(rng.dirichlet(np.ones(m))))
            # Budgets from 0.05 to 15: pinned at the cap, interior, and caps
            # at U_CAP, where the level reading must not lose digits.
            budgets = rng.choice([0.05, 1.0, 3.0, 15.0], size=m)
            model = replace(model, retailers=tuple(
                replace(r, B=float(B)) for r, B in zip(model.retailers, budgets)))
            problem = ViProblem(model)
            mn = model.m * model.n
            x = np.concatenate([rng.uniform(0.0, model.q_upper, mn),
                                rng.uniform(0.0, problem.upper[mn:])])
            for xi in range(m):
                z, iu = solver._block_best_response(problem, x, xi), mn + xi
                assert abs(z[iu] - bisect_level(problem, z, iu)) <= 1e-12
                if 0.0 < z[iu] < problem.upper[iu]:
                    self.assert_interior_root(problem, z, iu)


class TestVerifyEquilibrium:
    def test_known_argmax_has_no_improvement(self):
        model = single_retailer_model()
        sol = single_retailer_solution()
        point = DecisionVector(np.array([[sol[0]]]), np.array([sol[1]]),
                               np.array([sol[2]]))
        audit = verify_equilibrium(model, point, grid_density=50)
        assert audit.certified
        assert audit.max_improvement <= 1e-9

    def test_perturbed_point_reports_improvement(self):
        scen = experiment1()
        problem = ViProblem(scen.model)
        report = solve(problem, scen.config, x0=scen.x0.flat())
        point = problem.split(report.solution)
        point.u[0] -= 0.2
        audit = verify_equilibrium(scen.model, point, grid_density=40)
        assert audit.improvements[0] > 1e-2
        assert not audit.certified

    @pytest.mark.parametrize("build", [
        lambda: experiment1().model,
        lambda: experiment5().model,
        lambda: experiment_model((0.3, 0.7)),
        lambda: experiment_model((0.5, 0.2, 0.3)),
        lambda: experiment_model((0.1, 0.4, 0.35, 0.15)),
        lambda: experiment_model((0.9, 0.05, 0.6, 0.25)),
    ], ids=["exp1", "exp5", "m2", "m3", "m4", "m4-uneven"])
    def test_matches_full_lattice_audit(self, build):
        model = build()
        problem, report = solve_equilibrium(model)
        point = problem.split(report.solution)
        rng = np.random.default_rng(model.m)
        perturbed = []
        for _ in range(2):
            # Perturb by up to 5 %, inside the box, so the audit finds gains.
            scale = 1.0 + rng.uniform(-0.05, 0.05, size=problem.dim)
            x = problem.project(report.solution * scale)
            perturbed.append(problem.split(x))
        for candidate in [point] + perturbed:
            audit = verify_equilibrium(model, candidate, grid_density=50)
            oracle_gains, _ = full_lattice_audit(model, candidate, 50)
            # The audit maximises the shipments the lattice only samples, so
            # it finds at least the lattice's gain, less rounding.
            assert np.all(audit.improvements >= oracle_gains - 1e-10)
            assert audit.certified == bool(np.all(oracle_gains <= audit.eps_br))
        assert not verify_equilibrium(model, perturbed[0], grid_density=50).certified

    def test_finds_the_gain_of_a_nonconcave_own_problem(self):
        # Market 1's gamma = -100 makes both own problems nonconcave in
        # (Q row, u); the solve stops at u = (0, 0), where retailer 1 gains
        # 0.155 by deviating.  The density-50 lattice finds only 0.016.
        model = experiment1().model
        markets = (replace(model.markets[0], gamma=-100.0),) + model.markets[1:]
        model = replace(model, markets=markets)
        problem, report = solve_scenario(Scenario("gamma", model))
        assert report.converged
        audit = verify_equilibrium(model, problem.split(report.solution))
        assert audit.improvements[0] >= 0.15
        assert not audit.certified

    def test_value_function_that_is_not_quadratic_is_not_certified(self, monkeypatch):
        scen = experiment1()
        problem, report = solve_scenario(scen)
        point = problem.split(report.solution)
        real = ModelSpec.expected_utility_batch

        def cubic(self, x, Q, u):
            # A cubic term worth 1 at q_upper, against utilities of ~5 000.
            Q = np.asarray(Q, dtype=float)
            return real(self, x, Q, u) + 1e-6 * Q[..., x, 0] ** 3

        monkeypatch.setattr(ModelSpec, "expected_utility_batch", cubic)
        audit = verify_equilibrium(scen.model, point)
        assert np.all(np.isnan(audit.improvements))
        assert math.isnan(audit.max_improvement)
        assert not audit.certified

    @pytest.mark.parametrize("build", [
        lambda: experiment1().model,
        lambda: three_market_model((0.5, 0.3, 0.2)),
    ], ids=["n2", "n3"])
    def test_reads_density_times_one_plus_3n_values_per_pass(self, monkeypatch, build):
        model = build()
        problem, report = solve_equilibrium(model)
        point = problem.split(report.solution)
        real = ModelSpec.expected_utility_batch
        sizes = []

        def counting(self, x, Q, u):
            values = real(self, x, Q, u)
            sizes.append(np.size(values))
            return values

        monkeypatch.setattr(ModelSpec, "expected_utility_batch", counting)
        verify_equilibrium(model, point, grid_density=50, refinements=2)
        # Per retailer: the base value, then three passes of 50 levels at
        # 1 + 3n own shipment patterns.
        assert sizes == ([1] + [50 * (1 + 3 * model.n)] * 3) * model.m

    def test_three_market_audit_certifies(self):
        model = three_market_model((0.5, 0.3, 0.2))
        problem, report = solve_equilibrium(model)
        audit = verify_equilibrium(model, problem.split(report.solution), grid_density=50)
        assert audit.certified
        assert audit.improvements.shape == (3,)
        assert all(q.shape == (3,) for q, _ in audit.best_points)

    def test_audited_levels_respect_a_small_budget(self):
        # 1 - exp(-B) rounds above -expm1(-B) at B = 0.015: the audit must
        # scan the VI box's level range, never a budget-infeasible level.
        scen = apply_parameter(experiment1(), "B1", 0.015)
        problem, report = solve_scenario(scen)
        assert report.converged
        audit = verify_equilibrium(scen.model, problem.split(report.solution),
                                   grid_density=50)
        upper = problem.upper[scen.model.m * scen.model.n:]
        assert all(u <= upper[x] for x, (_, u) in enumerate(audit.best_points))
        assert audit.best_points[0][1] == upper[0]  # the budget binds

    def test_oversized_lattice_refused_before_allocation(self, monkeypatch):
        # n = 5 at density 50 is 50**6 = 1.6e10 points per retailer.
        market = MarketParams(alpha=-2.0, gamma=0.0, kappa=40.0)
        cost = TransactionCostParams(a=1.0, b=2.0, s=1.0)
        retailer = RetailerParams(c=4.0, B=2.0, D=0.0, t=0.5, mu=0.0, costs=(cost,) * 5)
        model = ModelSpec(m=1, n=5, retailers=(retailer,), markets=(market,) * 5)
        point = DecisionVector(np.zeros((1, 5)), np.zeros(1), np.zeros(1))

        def forbidden(*args, **kwargs):
            raise AssertionError("lattice arrays built before the point budget check")

        monkeypatch.setattr(solver, "_grid_axes", forbidden)
        monkeypatch.setattr(solver, "_own_move_readings", forbidden)
        with pytest.raises(ValueError, match="lattice points"):
            verify_equilibrium(model, point, grid_density=50)

    def test_grid_density_validation(self):
        model = single_retailer_model()
        point = DecisionVector(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            verify_equilibrium(model, point, grid_density=1)
