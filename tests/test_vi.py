"""Tests for the VI assembly: operator, projection, residual, FD oracle."""

import numpy as np
import pytest
from dataclasses import replace

from secgame import vi
from secgame.model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from secgame.scenarios import apply_parameter, experiment1, experiment5, experiment_model
from secgame.solver import SolverConfig, solve
from secgame.vi import (U_CAP, BoxVi, DecisionVector, FdCheckReport, InvestmentVi,
                        ViProblem, fd_check, fd_check_random)


@pytest.fixture(scope="module")
def exp1_problem():
    return ViProblem(experiment1().model)


def degenerate_linear_model():
    """No quadratic transaction cost, no security coupling, no losses."""
    markets = (MarketParams(alpha=-0.1, gamma=0.0, kappa=5.0),
               MarketParams(alpha=-0.2, gamma=0.0, kappa=6.0))
    retailers = tuple(
        RetailerParams(c=1.0, B=2.0, D=0.0, t=0.5, mu=1.5,
                       costs=(TransactionCostParams(0.0, 1.0, 1.0),
                              TransactionCostParams(0.0, 0.5, 1.0)))
        for _ in range(2))
    return ModelSpec(m=2, n=2, retailers=retailers, markets=markets, q_upper=5.0)


class TestDecisionVector:
    def test_flat_ordering_is_q_rowmajor_then_u(self):
        # The multipliers are not VI coordinates and stay out of the flat form.
        dv = DecisionVector(np.array([[1.0, 2.0], [3.0, 4.0]]),
                            np.array([0.5, 0.6]), np.array([7.0, 8.0]))
        assert np.array_equal(dv.flat(), [1, 2, 3, 4, 0.5, 0.6])

    def test_round_trip(self, exp1_problem):
        x = np.array([0.0, 1.0, 2.0, 3.0, 0.4, 0.5])
        dv = exp1_problem.split(x)
        assert np.array_equal(dv.Q, [[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(dv.flat(), x)

    def test_shape_mismatch(self, exp1_problem):
        with pytest.raises(ValueError):
            DecisionVector(np.zeros((2, 2)), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            DecisionVector(np.zeros((2, 2)), np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            exp1_problem.split(np.zeros(7))


class TestProblemShape:
    def test_dimension_and_bounds(self, exp1_problem):
        # The budget -ln(1 - u) <= B is the bound u <= 1 - exp(-B).
        p = exp1_problem
        assert p.dim == 2 * 2 + 2
        assert np.all(p.lower == 0.0)
        assert np.all(p.upper[:4] == 100.0)
        assert np.array_equal(p.upper[4:], np.minimum(U_CAP, -np.expm1(-np.array([5.28, 3.72]))))
        assert np.all(np.isfinite(p.upper))

    def test_large_budget_leaves_level_cap(self):
        model = experiment1().model
        rich = replace(model.retailers[0], B=20.0)
        p = ViProblem(replace(model, retailers=(rich, model.retailers[1])))
        assert p.upper[4] == U_CAP


class TestProject:
    def test_identity_on_feasible(self, exp1_problem):
        x = exp1_problem.default_start()
        assert np.array_equal(exp1_problem.project(x), x)

    def test_clamps(self, exp1_problem):
        x = np.array([-5.0, 250.0, 1.0, 1.0, -0.2, 2.0])
        out = exp1_problem.project(x)
        assert out[0] == 0.0
        assert out[1] == 100.0
        assert out[2] == 1.0
        assert out[4] == 0.0
        assert out[5] == -np.expm1(-3.72)  # retailer 2's budget bound

    def test_idempotent_and_monotone(self, exp1_problem):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = rng.uniform(-50, 150, size=6)
            b = a + rng.uniform(0, 10, size=6)
            pa, pb = exp1_problem.project(a), exp1_problem.project(b)
            assert np.array_equal(exp1_problem.project(pa), pa)
            assert np.all(pa <= pb)

    def test_nonexpansive_on_random_pairs(self, exp1_problem):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            a = rng.uniform(-100, 200, size=6)
            b = rng.uniform(-100, 200, size=6)
            pa, pb = exp1_problem.project(a), exp1_problem.project(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_dimension_mismatch(self, exp1_problem):
        with pytest.raises(ValueError):
            exp1_problem.project(np.zeros(5))


class TestOperator:
    def test_level_component_is_one_in_fully_degenerate_case(self):
        model = degenerate_linear_model()
        problem = ViProblem(model)
        x = DecisionVector(np.ones((2, 2)), np.zeros(2), np.zeros(2)).flat()
        F = problem.operator(x)
        assert F[4] == pytest.approx(1.0, abs=1e-15)
        assert F[5] == pytest.approx(1.0, abs=1e-15)

    def test_level_component_at_reference_point(self, exp1_problem):
        # Hand evaluation with the recorded reference quantities and levels:
        # 1/0.04 - 176*1.76*0.065 - (0.1*10.94 + 0.2*30.25) = -2.2784
        Q = np.array([[10.94, 30.25], [11.78, 31.73]])
        x = DecisionVector(Q, np.array([0.96, 0.95]), np.zeros(2)).flat()
        F = exp1_problem.operator(x)
        assert F[4] == pytest.approx(-2.2784, abs=1e-4)

    def test_quantity_component_hand_value(self, exp1_problem):
        # Retailer 1, market 1 at Q=1, u=0:
        # 17.6 + (2*1*1 + 2)*1.76 - price + 2*1, price = -2*2 + 120 = 116
        x = exp1_problem.default_start()
        F = exp1_problem.operator(x)
        assert F[0] == pytest.approx(17.6 + 4 * 1.76 - 116.0 + 2.0, rel=1e-12)

    def test_split_recovers_budget_multiplier(self, exp1_problem):
        # lambda = max(0, -(1-u) F2): zero where F2 >= 0 (the level would
        # fall), positive where the budget bound holds a rising level down.
        slack = exp1_problem.default_start()
        slack[4:] = [0.99, 0.95]  # u1 below its bound 0.9949, above its optimum
        assert exp1_problem.operator(slack)[4] > 0.0
        assert exp1_problem.split(slack).lam[0] == 0.0
        model = experiment1().model
        poor = ViProblem(replace(model, retailers=(replace(model.retailers[0], B=2.2),
                                                   model.retailers[1])))
        at_cap = poor.default_start()
        at_cap[4] = poor.upper[4]  # u1 = 1 - exp(-2.2), the budget bound
        F2 = poor.operator(at_cap)[4]
        assert F2 < 0.0
        assert poor.split(at_cap).lam[0] == pytest.approx(-np.exp(-2.2) * F2, rel=1e-12)

    def test_rejects_level_at_one(self, exp1_problem):
        x = exp1_problem.default_start()
        x[4] = 1.0
        with pytest.raises(ValueError):
            exp1_problem.operator(x)

    @pytest.mark.parametrize("model", [
        experiment1().model,
        experiment5().model,
        *(experiment_model(tuple(np.random.default_rng(m).dirichlet(np.ones(m))))
          for m in (1, 2, 3, 4)),
    ], ids=["exp1", "exp5", "m1", "m2", "m3", "m4"])
    def test_stack_matches_row_by_row_bit_for_bit(self, model):
        problem = ViProblem(model)
        rng = np.random.default_rng(model.m)
        for k in (1, 5, 64):
            X = np.array(random_points(problem, rng, k))
            F = problem.operator(X)
            assert F.shape == X.shape
            assert np.array_equal(F, np.array([problem.operator(x) for x in X]))

    @pytest.mark.parametrize("build", [
        lambda: experiment1().model,
        lambda: experiment5().model,
        lambda: clamped_exp1_model(),
        lambda: replace(experiment1().model, loss_gradient_includes_multiplier=False),
    ], ids=["exp1", "exp5", "negative-gamma", "literal"])
    def test_affine_map_matches_the_closed_form(self, build):
        # The operator is the affine map [F1, g] = X @ L + c and F2 = 1/v - g.
        # Written out, with v = 1 - u, ubar the mean level, S the market
        # totals and DM = D mu (D alone in the literal variant):
        #   F1 = (2 a s - alpha) Q + c + b s - kappa - (alpha S + gamma ubar)
        #   g  = DM (1 - ubar) + DM v / m + Q @ gamma / m
        model = build()
        problem = ViProblem(model)
        m, n, mn = model.m, model.n, problem._mn
        dm = model.D_vec * (model.mu_vec if model.loss_gradient_includes_multiplier else 1.0)
        for x in random_points(problem, np.random.default_rng(31), 100):
            Q, u = x[:mn].reshape(m, n), x[mn:]
            ubar, v = u.mean(), 1.0 - u
            f1 = ((2.0 * model.cost_a * model.cost_s - model.alpha_vec) * Q
                  + model.c_vec[:, None] + model.cost_b * model.cost_s - model.kappa_vec
                  - (model.alpha_vec * Q.sum(axis=0) + model.gamma_vec * ubar))
            g = dm * (1.0 - ubar) + dm * v / m + Q @ model.gamma_vec / m
            want = np.concatenate([f1.ravel(), 1.0 / v - g])
            scale = np.abs(np.concatenate([f1.ravel(), g, 1.0 / v])).max()
            assert np.abs(problem.operator(x) - want).max() <= 1e-13 * scale

    def test_stack_rejects_any_row_at_level_one(self, exp1_problem):
        X = np.array(random_points(exp1_problem, np.random.default_rng(0), 4))
        X[2, 5] = 1.0
        with pytest.raises(ValueError):
            exp1_problem.operator(X)

    def test_monotonicity_probe(self, exp1_problem):
        # Empirical record on random feasible pairs; diagnostic for the
        # method's convergence, not a theorem.
        rng = np.random.default_rng(17)
        worst = np.inf
        u_hi = exp1_problem.upper[4:]
        for _ in range(1000):
            a = np.concatenate([rng.uniform(0, 100, 4), rng.uniform(0, u_hi)])
            b = np.concatenate([rng.uniform(0, 100, 4), rng.uniform(0, u_hi)])
            fa = exp1_problem.operator(a)
            fb = exp1_problem.operator(b)
            worst = min(worst, float((fa - fb) @ (a - b)))
        assert worst >= -1e-8


class TestNaturalResidual:
    def test_scalar_affine_solution(self):
        vi = BoxVi(lambda x: x - 3.0, [0.0], [10.0])
        assert vi.natural_residual(np.array([3.0])) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_affine_far_point(self):
        vi = BoxVi(lambda x: x - 3.0, [0.0], [10.0])
        assert vi.natural_residual(np.array([0.0])) == pytest.approx(3.0)

    def test_positive_off_solution(self, exp1_problem):
        assert exp1_problem.natural_residual(exp1_problem.default_start()) > 1.0


def random_points(problem, rng, count, u_max=0.99):
    """Flat (Q, u) points inside the box with every level at most u_max."""
    mn = problem._mn
    u_hi = np.minimum(u_max, problem.upper[mn:] - 1e-3)
    return [np.concatenate([rng.uniform(0.0, problem.model.q_upper, mn),
                            rng.uniform(0.0, u_hi)]) for _ in range(count)]


def jacobi_scale(problem):
    """sigma = sqrt(dF1[x, y]/dQ[x, y]) = sqrt(2 a s - 2 alpha), flat like Q."""
    model = problem.model
    return np.sqrt(2.0 * model.cost_a * model.cost_s - 2.0 * model.alpha_vec).ravel()


def clamped_exp1_model():
    """exp1 with negative security coupling and small losses: g spans 1."""
    model = experiment1().model
    markets = tuple(replace(mk, gamma=-mk.gamma) for mk in model.markets)
    retailers = tuple(replace(r, D=1.0) for r in model.retailers)
    return replace(model, markets=markets, retailers=retailers)


def box_vi_condition(x, F, lower, upper):
    """Per coordinate, what the box-VI conditions ask of F at x.

    At a lower bound only F >= 0 matters, at an upper bound only F <= 0, and
    inside the box the sign of F (zero exactly at a solution).
    """
    return [("lower", f >= 0.0) if xi <= lo else ("upper", f <= 0.0) if xi >= hi
            else ("inside", np.sign(f)) for xi, f, lo, hi in zip(x, F, lower, upper)]


def central_jacobian(view, y, h=1e-6):
    J = np.empty((view.dim, view.dim))
    for k in range(view.dim):
        e = np.zeros(view.dim)
        e[k] = h
        J[:, k] = (view.operator(y + e) - view.operator(y - e)) / (2.0 * h)
    return J


def scaled_error(got, want):
    """Sup-norm error relative to max(1, |want|): absolute on the levels."""
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


class TestInvestmentVi:
    def test_box_maps_onto_the_problem_box(self, exp1_problem):
        view = InvestmentVi(exp1_problem)
        assert np.array_equal(view.lower, exp1_problem.lower)
        assert np.array_equal(view.upper[:4], jacobi_scale(exp1_problem) * 100.0)
        # The budget -ln(1 - u) <= B is the bound w <= B itself.
        assert view.upper[4:] == pytest.approx([5.28, 3.72], rel=1e-14)
        assert np.array_equal(view.to_u(view.lower), exp1_problem.lower)
        assert scaled_error(view.to_u(view.upper), exp1_problem.upper) <= 1e-15
        assert np.all(view.to_u(view.upper) <= exp1_problem.upper)

    def test_solve_starts_at_the_problem_default(self):
        problem = ViProblem(replace(experiment1().model, q_upper=0.5))
        view = InvestmentVi(problem)
        start = solve(view, SolverConfig(max_iter=0)).solution
        assert np.array_equal(start, view.from_u(problem.default_start()))
        assert np.array_equal(view.to_u(start), [0.5] * 4 + [0.0] * 2)

    def test_large_budget_leaves_level_cap(self):
        model = experiment1().model
        rich = replace(model.retailers[0], B=20.0)
        view = InvestmentVi(ViProblem(replace(model, retailers=(rich, model.retailers[1]))))
        assert view.upper[4] == pytest.approx(-np.log(1.0 - U_CAP), rel=1e-9)
        assert view.to_u(view.upper)[4] == pytest.approx(U_CAP, abs=1e-15)

    def test_round_trip(self, exp1_problem):
        view = InvestmentVi(exp1_problem)
        sigma = jacobi_scale(exp1_problem)
        rng = np.random.default_rng(11)
        for x in random_points(exp1_problem, rng, 200, u_max=exp1_problem.upper[4]):
            y = view.from_u(x)
            assert np.array_equal(y[:4], sigma * x[:4])
            assert scaled_error(view.to_u(y), x) <= 1e-15

    def test_level_block_is_log_form(self, exp1_problem):
        # The level condition 1/(1 - u) = g in spend coordinates: w = ln g,
        # floored where the target ln g falls below the bound w = 0.
        view = InvestmentVi(exp1_problem)
        sigma = jacobi_scale(exp1_problem)
        rng = np.random.default_rng(12)
        for x in random_points(exp1_problem, rng, 50):
            y = view.from_u(x)
            xu = view.to_u(y)
            F = exp1_problem.operator(xu)
            g = 1.0 / (1.0 - xu[4:]) - F[4:]
            G = view.operator(y)
            assert np.array_equal(G[:4], F[:4] / sigma)
            assert G[4:] == pytest.approx(y[4:] - np.log(np.maximum(g, 1.0)),
                                          rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("build", [
        degenerate_linear_model, clamped_exp1_model,
    ], ids=["linear-costs", "exp1-negative-gamma"])
    def test_log_form_keeps_the_box_vi_conditions_where_clamped(self, build):
        # Where g <= 1 the level block is w itself.  Each level coordinate
        # must meet the box-VI condition for G exactly when it meets it for
        # F2, and the view's residual stays the (Q, u) residual.
        problem = ViProblem(build())
        view = InvestmentVi(problem)
        mn = problem._mn
        rng = np.random.default_rng(15)
        points = random_points(problem, rng, 200)
        for x in points[::4]:
            x[mn:] = 0.0
        at_cap = problem.default_start()
        at_cap[mn:] = problem.upper[mn:]
        clamped = 0
        for x in points + [at_cap]:
            y = view.from_u(x)
            xu = view.to_u(y)
            F2 = problem.operator(xu)[mn:]
            clamped += int(np.sum(1.0 / (1.0 - xu[mn:]) - F2 <= 1.0))
            G = view.operator(y)[mn:]
            assert (box_vi_condition(y[mn:], G, view.lower[mn:], view.upper[mn:])
                    == box_vi_condition(xu[mn:], F2, problem.lower[mn:], problem.upper[mn:]))
            expected = problem.natural_residual(xu)
            assert view.natural_residual(y) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        # The samples cover the clamp: everywhere on linear-costs (g = 0),
        # on some samples but not all on the negative-gamma variant.
        assert clamped > 0
        if build is degenerate_linear_model:
            assert clamped == problem._m * (len(points) + 1)
        else:
            assert clamped < problem._m * (len(points) + 1)

    @pytest.mark.parametrize("build", [
        lambda: experiment1().model, lambda: experiment5().model, degenerate_linear_model,
    ], ids=["exp1", "exp5", "linear-costs"])
    def test_quantity_block_has_unit_diagonal(self, build):
        # sigma^2 is the Q-block diagonal of the problem's Jacobian, so the
        # view's Q block has unit diagonal.  F1 is affine in Q, so central
        # differences are exact up to rounding.
        problem = ViProblem(build())
        view = InvestmentVi(problem)
        mn, h = problem._mn, 1e-3
        y = view.from_u(random_points(problem, np.random.default_rng(14), 1)[0])
        for k in range(mn):
            e = np.zeros(view.dim)
            e[k] = h
            diag = (view.operator(y + e)[k] - view.operator(y - e)[k]) / (2.0 * h)
            assert diag == pytest.approx(1.0, rel=1e-9)

    def test_linear_costs_keep_the_scale_finite(self):
        # a = 0 leaves sigma = sqrt(-2 alpha): positive and finite.
        problem = ViProblem(degenerate_linear_model())
        view = InvestmentVi(problem)
        sigma = np.tile(np.sqrt([0.2, 0.4]), 2)
        assert np.all(np.isfinite(view.upper)) and np.all(view.upper[:4] > 0.0)
        assert view.upper[:4] == pytest.approx(sigma * 5.0, rel=1e-15)
        cfg = SolverConfig(tol=1e-9)
        report = solve(view, cfg)
        direct = solve(problem, cfg, x0=view.to_u(view.default_start()))
        assert report.converged and direct.converged
        assert np.max(np.abs(view.to_u(report.solution) - direct.solution)) <= 1e-8

    def test_stack_rows_are_their_own_views(self):
        # Row i of a stacked view is InvestmentVi(problems[i]) bit for bit,
        # box, mapping, operator and residual; rows() keeps the rows chosen.
        problems = [ViProblem(apply_parameter(experiment1(), "B1", b).model)
                    for b in (2.2, 3.0, 5.0)]
        stack = InvestmentVi(*problems)
        singles = [InvestmentVi(p) for p in problems]
        rng = np.random.default_rng(16)
        Y = np.array([view.from_u(random_points(p, rng, 1)[0])
                      for view, p in zip(singles, problems)])
        F = stack.operator(Y)
        res = stack.natural_residual(Y)
        for i, view in enumerate(singles):
            assert np.array_equal(stack.upper[i], view.upper)
            assert np.array_equal(stack.to_u(Y)[i], view.to_u(Y[i]))
            assert np.array_equal(F[i], view.operator(Y[i]))
            assert res[i] == view.natural_residual(Y[i])
        part = stack.rows([2, 0])
        assert np.array_equal(part.upper, stack.upper[[2, 0]])
        assert np.array_equal(part.operator(Y[[2, 0]]), F[[2, 0]])

    def test_stack_needs_problems_of_one_shape(self, exp1_problem):
        with pytest.raises(ValueError, match="one shape"):
            InvestmentVi(exp1_problem, ViProblem(experiment5().model))

    def test_natural_residual_is_that_of_the_mapped_point(self, exp1_problem):
        view = InvestmentVi(exp1_problem)
        rng = np.random.default_rng(13)
        points = random_points(exp1_problem, rng, 50)
        at_cap = exp1_problem.default_start()
        at_cap[4:] = exp1_problem.upper[4:]
        for x in points + [at_cap, exp1_problem.default_start()]:
            w = view.from_u(x)
            expected = exp1_problem.natural_residual(view.to_u(w))
            assert view.natural_residual(w) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("scenario", [experiment1, experiment5])
    def test_well_scaled_over_the_whole_box(self, scenario):
        # Largest Jacobian norm and least eigenvalue of the symmetric part
        # over the whole box, u = 0 included, not only near a solution.
        # Observed 2.2 and 0.68 on these samples.
        problem = ViProblem(scenario().model)
        view = InvestmentVi(problem)
        mn = problem._mn
        rng = np.random.default_rng(22)
        points = random_points(problem, rng, 200, u_max=1.0)
        for x in points[::4]:
            x[mn:] = 0.0
        largest, least = 0.0, np.inf
        for x in points:
            J = central_jacobian(view, view.from_u(x))
            largest = max(largest, float(np.linalg.norm(J, 2)))
            least = min(least, float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()))
        assert largest <= 3.0
        assert least >= 0.5

    @pytest.mark.parametrize("scenario", [experiment1, experiment5])
    def test_strongly_monotone_on_samples(self, scenario):
        # Smallest eigenvalue of the symmetric part of the central-difference
        # Jacobian: positive at every sample, so the projection-contraction
        # convergence theory applies in w as it does in u.
        problem = ViProblem(scenario().model)
        view = InvestmentVi(problem)
        dim, h = view.dim, 1e-6
        rng = np.random.default_rng(21)
        worst = np.inf
        for x in random_points(problem, rng, 200):
            w = view.from_u(x)
            J = np.empty((dim, dim))
            for k in range(dim):
                e = np.zeros(dim)
                e[k] = h
                J[:, k] = (view.operator(w + e) - view.operator(w - e)) / (2.0 * h)
            worst = min(worst, float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()))
        assert worst > 0.0


class TestFdCheck:
    def test_degenerate_linear_model_is_exact_in_quantities(self):
        problem = ViProblem(degenerate_linear_model())
        x = DecisionVector(np.full((2, 2), 2.5), np.array([0.3, 0.4]),
                           np.array([0.5, 0.2])).flat()
        report = fd_check(problem, x, step=1e-4)
        assert report.q_errors.max() <= 1e-10

    def test_exp1_random_points_pass(self, exp1_problem):
        report = fd_check_random(exp1_problem, points=100, seed=0)
        assert report.max_rel_error < 1e-6

    def test_exp5_random_points_pass(self):
        problem = ViProblem(experiment5().model)
        report = fd_check_random(problem, points=100, seed=1)
        assert report.max_rel_error < 1e-6

    def test_small_budget_samples_stay_inside_the_box(self):
        # B = 0.015 bounds u1 by 0.0149, below the usual 0.02 sampling floor.
        model = experiment1().model
        poor = replace(model.retailers[0], B=0.015)
        problem = ViProblem(replace(model, retailers=(poor, model.retailers[1])))
        report = fd_check_random(problem, points=20, seed=0)
        assert report.max_rel_error < 1e-6

    @pytest.mark.parametrize("narrow, field", [
        (lambda m: replace(m, retailers=(m.retailers[0], replace(m.retailers[1], B=3e-5))),
         "retailers[1].B"),
        (lambda m: replace(m, q_upper=1e-3), "q_upper"),
    ], ids=["budget-cap", "q-upper"])
    def test_box_too_narrow_names_the_field(self, narrow, field):
        # At step 1e-5 a level needs a cap of 4e-5 and a shipment a
        # q_upper of 2e-3 for a sample 2 * step inside the box.
        model = narrow(experiment1().model)
        with pytest.raises(vi.FdDomainError) as info:
            fd_check_random(ViProblem(model), points=5, step=1e-5)
        assert info.value.field == field

    def test_budget_cap_just_wide_enough_samples_inside_the_box(self):
        # A cap of 5 * step leaves levels in [2 * step, 3 * step]; the
        # sampling floor min(0.02, u_hi / 2) alone would fall below 2 * step.
        model = experiment1().model
        poor = replace(model.retailers[0], B=-np.log1p(-5e-5))
        problem = ViProblem(replace(model, retailers=(poor, model.retailers[1])))
        report = fd_check_random(problem, points=50, step=1e-5, seed=0)
        assert report.max_rel_error < 1e-5

    def test_literal_variant_fails_on_loss_term(self, exp1_problem):
        literal = ViProblem(replace(experiment1().model,
                                    loss_gradient_includes_multiplier=False))
        report = fd_check_random(literal, points=100, seed=0)
        assert report.max_rel_error > 1e-3
        assert report.worst_coordinate.startswith("u")

    def test_step_out_of_range(self, exp1_problem):
        x = DecisionVector(np.full((2, 2), 50.0), np.array([0.5, 0.5]),
                           np.array([1.0, 1.0])).flat()
        for bad in (1e-8, 1e-3):
            with pytest.raises(ValueError):
                fd_check(exp1_problem, x, step=bad)

    def test_random_check_rejects_step_before_drawing(self, exp1_problem, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("sample drawn before the step was checked")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        with pytest.raises(ValueError, match="step"):
            fd_check_random(exp1_problem, step=1e-3)

    def test_random_check_reports_its_worst_sample(self, exp1_problem):
        # The batched pass must pick the same sample and coordinate as
        # fd_check run on each seeded draw in turn.
        m, n = 2, 2
        rng = np.random.default_rng(5)
        u_hi = np.minimum(0.9, exp1_problem.upper[m * n:] - 2e-5)
        worst = None
        for _ in range(30):
            Q = rng.uniform(1.0, 99.0, size=(m, n))
            u = rng.uniform(np.minimum(0.02, 0.5 * u_hi), u_hi, size=m)
            rep = fd_check(exp1_problem, np.concatenate([Q.ravel(), u]))
            if worst is None or rep.max_rel_error > worst.max_rel_error:
                worst = rep
        got = fd_check_random(exp1_problem, points=30, seed=5)
        assert got.max_rel_error == worst.max_rel_error
        assert (got.worst_retailer, got.worst_coordinate) == (
            worst.worst_retailer, worst.worst_coordinate)
        assert np.array_equal(got.q_errors, worst.q_errors)
        assert np.array_equal(got.u_errors, worst.u_errors)

    def test_random_check_batches_agree(self, exp1_problem, monkeypatch):
        # Seven samples per batch (2(n+1)*m*n = 24 values each): the 30 draws
        # split into five batches and must give the one-batch report.
        whole = fd_check_random(exp1_problem, points=30, seed=2)
        monkeypatch.setattr(vi, "_FD_BATCH_VALUES", 7 * 24)
        split = fd_check_random(exp1_problem, points=30, seed=2)
        assert split.max_rel_error == whole.max_rel_error
        assert split.worst_coordinate == whole.worst_coordinate
        assert np.array_equal(split.q_errors, whole.q_errors)

    def test_point_near_boundary_rejected(self, exp1_problem):
        x = DecisionVector(np.full((2, 2), 50.0), np.array([0.0, 0.5]),
                           np.array([1.0, 1.0])).flat()
        with pytest.raises(ValueError):
            fd_check(exp1_problem, x, step=1e-5)

    def test_report_formatting(self, exp1_problem):
        x = DecisionVector(np.full((2, 2), 50.0), np.array([0.5, 0.5]),
                           np.array([1.0, 1.0])).flat()
        report = fd_check(exp1_problem, x)
        assert isinstance(report, FdCheckReport)
        assert "relative error" in str(report)
