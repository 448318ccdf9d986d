"""Unit tests for the economic model: its parameter types and its one value
function, ModelSpec.expected_utility.

Each term of the utility (investment cost, attack loss, mean security level,
demand, prices and profit) is read off expected_utility on a model whose
other terms vanish, and the whole function is checked against a closed form
written out below.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgame.model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from secgame.scenarios import (apply_parameter, builtin_sweep, experiment1, experiment5,
                               experiment_model, run_sweep, solve_scenario)


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def with_retailer(model, x, **fields):
    """``model`` with retailer x's fields replaced."""
    retailers = list(model.retailers)
    retailers[x] = replace(retailers[x], **fields)
    return replace(model, retailers=tuple(retailers))


def closed_form_utility(model, x, Q, u):
    """Retailer x's expected utility at one point, written out term by term:
    trading profit at the market prices, less the expected attack loss and
    the investment cost -ln(1 - u_x)."""
    r = model.retailers[x]
    u_bar = u.mean()
    rho = np.array([mk.alpha * Q[:, y].sum() + mk.gamma * u_bar + mk.kappa
                    for y, mk in enumerate(model.markets)])
    row = Q[x]
    trading = sum((tc.a * q * q + tc.b * q) * tc.s for tc, q in zip(r.costs, row))
    profit = rho @ row - r.c * row.sum() - trading
    loss = r.D * ((1.0 - u[x]) * (1.0 - u_bar) * r.mu)
    return profit - loss + np.log1p(-u[x])


# Retailer 1 of exp1 with no attack loss: at zero shipments its utility is
# minus the investment cost alone.
_NO_LOSS = with_retailer(experiment1().model, 0, D=0.0)


def level_cost(u):
    """The investment cost -ln(1 - u) of retailer 1, read off expected_utility
    (scalar or array ``u``; retailer 2 holds level 0)."""
    u = np.asarray(u, dtype=float)
    levels = np.stack([u, np.zeros_like(u)], axis=-1)
    return -_NO_LOSS.expected_utility(0, np.zeros((2, 2)), levels)


def attack_loss(u, mu=1.0, model=None):
    """Retailer 1's expected loss D mu (1 - u_1)(1 - mean u) at D = 1 and zero
    shipments, read off expected_utility at the levels ``u``."""
    model = with_retailer(model or experiment1().model, 0, D=1.0, mu=mu)
    u = np.asarray(u, dtype=float)
    return np.log1p(-u[0]) - model.expected_utility(0, np.zeros((model.m, model.n)), u)


def network_level(u, model=None):
    """Mean security level, recovered from attack_loss = (1 - u_1)(1 - mean u)."""
    return 1.0 - attack_loss(u, model=model) / (1.0 - u[0])


# Retailer 1 of exp1 as a pure trader: no handling, transaction or attack
# cost, so at level 0 its utility is its revenue rho @ Q[0].
_TRADER = with_retailer(experiment1().model, 0, c=0.0, D=0.0,
                        costs=(TransactionCostParams(0.0, 0.0, 1.0),) * 2)


def price(y, Q, u):
    """Market y's price at (Q, u), read off the trader's revenue; Q[0] must
    ship only into market y."""
    Q = np.asarray(Q, dtype=float)
    assert np.count_nonzero(Q[0]) == 1 and Q[0, y] > 0.0
    u = np.asarray(u, dtype=float)
    revenue = _TRADER.expected_utility(0, Q, u) - np.log1p(-u[0])
    return revenue / Q[0, y]


def demand(Q, y):
    """Total quantity shipped into market y, read off its price at level 0."""
    mk = experiment1().model.markets[y]
    return (price(y, Q, np.zeros(2)) - mk.kappa) / mk.alpha


class TestSecurityCost:
    """The investment cost term -ln(1 - u_x)."""

    def test_zero_level_costs_nothing(self):
        assert level_cost(0.0) == 0.0

    def test_value_at_095(self):
        assert level_cost(0.95) == pytest.approx(2.9957, abs=1e-4)

    def test_inverse_of_log(self):
        u = 1.0 - math.exp(-3.0)
        assert level_cost(u) == pytest.approx(3.0, abs=1e-12)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="security levels"):
                level_cost(bad)

    def test_deriv_value(self):
        # The marginal cost 1 / (1 - u).
        assert central_diff(level_cost, 0.5) == pytest.approx(2.0, rel=1e-8)
        assert central_diff(level_cost, 0.96) == pytest.approx(25.0, rel=1e-7)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
    def test_strictly_increasing(self, u1, u2):
        if u1 == u2:
            return
        lo, hi = min(u1, u2), max(u1, u2)
        assert level_cost(lo) < level_cost(hi)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
    def test_midpoint_convex(self, u1, u2):
        mid = 0.5 * (u1 + u2)
        lhs = level_cost(mid)
        rhs = 0.5 * (level_cost(u1) + level_cost(u2))
        assert lhs <= rhs + 1e-12

    def test_vector_input(self):
        out = level_cost(np.array([0.0, 0.5]))
        assert out.shape == (2,)
        assert out[0] == 0.0


class TestBudgetGap:
    """The budget -ln(1 - u) <= B against the investment cost term."""

    def test_zero_level(self):
        assert level_cost(0.0) - 3.0 == -3.0

    def test_boundary(self):
        # The level cap 1 - exp(-B) costs the whole budget.
        u = 1.0 - math.exp(-3.0)
        assert level_cost(u) - 3.0 == pytest.approx(0.0, abs=1e-12)

    def test_slack_at_experiment_point(self):
        assert level_cost(0.96) - 5.28 == pytest.approx(-2.0611, abs=1e-4)

    def test_nonpositive_budget_rejected(self):
        r = experiment1().model.retailers[0]
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="budget"):
                replace(r, B=bad)


class TestMeanSecurity:
    """The network level mean u, as the attack loss term reads it."""

    def test_pair(self):
        assert network_level([0.96, 0.95]) == pytest.approx(0.955)

    def test_zeros(self):
        assert network_level([0.0, 0.0, 0.0], experiment5().model) == 0.0

    def test_three_retailer_reference_row(self):
        assert network_level([0.55, 0.58, 0.59], experiment5().model) == pytest.approx(
            0.5733, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            experiment1().model.expected_utility(0, np.zeros((2, 2)), np.array([]))


class TestAttackProbability:
    """The expected attack loss D mu (1 - u_x)(1 - mean u), here at D = 1."""

    def test_full_protection_limit(self):
        assert attack_loss([1.0 - 1e-12, 0.3], mu=2.0) == pytest.approx(0.0, abs=1e-11)

    def test_no_protection(self):
        assert attack_loss([0.0, 0.0]) == 1.0

    def test_experiment_point(self):
        # (1 - 0.96)(1 - 0.955) * 1.76
        assert attack_loss([0.96, 0.95], mu=1.76) == pytest.approx(0.003168, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.98), st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_decreasing_in_own_level(self, u, rival, du):
        hi = min(0.99, u + du)
        assert attack_loss([hi, rival], mu=1.5) < attack_loss([u, rival], mu=1.5)

    def test_rejects_negative_multiplier(self):
        r = experiment1().model.retailers[0]
        with pytest.raises(ValueError, match="multiplier"):
            replace(r, mu=-1.0)


class TestDemand:
    """Demand is the column sum of Q, as the market price reads it."""

    def test_zero(self):
        # Only the reading shipment itself.
        assert demand(np.array([[1e-3, 0.0], [0.0, 0.0]]), 0) == pytest.approx(1e-3)

    def test_reference_column_sums(self):
        assert demand(np.array([[10.94, 0.0], [11.78, 31.73]]), 0) == pytest.approx(22.72)
        assert demand(np.array([[0.0, 30.25], [11.78, 31.73]]), 1) == pytest.approx(61.98)

    def test_index_out_of_range(self):
        model = experiment1().model
        for x in (-1, 2):
            with pytest.raises(IndexError):
                model.expected_utility(x, np.zeros((2, 2)), np.zeros(2))

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=2),
           st.lists(st.floats(min_value=0, max_value=50), min_size=2, max_size=2))
    def test_additivity(self, qa, qb):
        # Rival shipments into market 2 add to its demand.
        def rivals(row):
            return demand(np.array([[0.0, 1.0], row]), 1) - 1.0

        assert rivals(np.add(qa, qb)) == pytest.approx(rivals(qa) + rivals(qb),
                                                       rel=1e-9, abs=1e-9)


class TestPrice:
    """Market prices alpha * demand + gamma * mean u + kappa."""

    def test_intercept(self):
        assert price(0, np.array([[1e-9, 0.0], [0.0, 0.0]]), np.zeros(2)) == pytest.approx(
            120.0)

    def test_market2_at_reference_demand(self):
        Q = np.array([[0.0, 30.25], [0.0, 31.73]])
        assert price(1, Q, np.array([0.96, 0.95])) == pytest.approx(188.402)

    def test_market1_at_reference_demand(self):
        Q = np.array([[10.94, 0.0], [11.78, 0.0]])
        assert price(0, Q, np.array([0.96, 0.95])) == pytest.approx(74.751)


class TestProfit:
    """Trading profit: revenue less handling and transaction costs."""

    def test_zero_row(self):
        # No shipments, no loss, level 0: nothing earned, nothing spent.
        Q = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert _NO_LOSS.expected_utility(0, Q, np.zeros(2)) == 0.0

    def test_single_market_hand_value(self):
        # Retailer-1 parameters restricted to the first market only.
        retailers = (
            RetailerParams(c=17.6, B=5.28, D=176.0, t=0.76, mu=1.76,
                           costs=(TransactionCostParams(1.0, 2.0, 1.76),)),
            RetailerParams(c=12.4, B=3.72, D=124.0, t=0.24, mu=1.24,
                           costs=(TransactionCostParams(1.0, 2.0, 1.24),)),
        )
        model = ModelSpec(m=2, n=1, retailers=retailers,
                          markets=(MarketParams(-2.0, 0.2, 120.0),))
        Q = np.array([[1.0], [0.0]])
        # price = -2*1 + 120 = 118; cost = 17.6 + (1 + 2)*1.76; at level 0
        # the whole loss D mu is expected.
        assert model.expected_utility(0, Q, np.zeros(2)) == pytest.approx(95.12 - 176.0 * 1.76)


class TestExpectedUtility:
    def setup_method(self):
        self.model = experiment1().model

    def test_all_zero_strategy(self):
        Q = np.zeros((2, 2))
        u = np.zeros(2)
        for x in range(2):
            r = self.model.retailers[x]
            assert self.model.expected_utility(x, Q, u) == pytest.approx(-r.D * r.mu)

    def test_half_level_point(self):
        # Direct evaluation: p1 = (1-0.5)(1-0.25)*1.76 = 0.66, loss 176*0.66,
        # investment cost -ln(0.5).
        Q = np.zeros((2, 2))
        u = np.array([0.5, 0.0])
        expected = -176.0 * 0.66 - (-math.log(0.5))
        assert expected == pytest.approx(-116.8531, abs=1e-4)
        assert self.model.expected_utility(0, Q, u) == pytest.approx(expected, rel=1e-12)

    def test_equals_profit_when_no_loss_and_zero_level(self):
        model = experiment_model((0.5, 0.5))
        model = with_retailer(model, 0, D=0.0)
        Q = np.array([[2.0, 3.0], [1.0, 4.0]])
        u = np.array([0.0, 0.4])
        r = model.retailers[0]
        rho = model.alpha_vec * Q.sum(axis=0) + model.gamma_vec * u.mean() + model.kappa_vec
        trading = ((model.cost_a[0] * Q[0] + model.cost_b[0]) * Q[0] * model.cost_s[0]).sum()
        assert model.expected_utility(0, Q, u) == pytest.approx(
            rho @ Q[0] - r.c * Q[0].sum() - trading, rel=1e-12)

    @pytest.mark.parametrize("build", [experiment1, experiment5], ids=["exp1", "exp5"])
    def test_single_point_is_a_float(self, build):
        model = build().model
        problem, report = solve_scenario(build())
        point = problem.split(report.solution)
        assert all(isinstance(model.expected_utility(x, point.Q, point.u), float)
                   for x in range(model.m))


def solved_points():
    """(model, Q, u) at the exp1 and exp5 equilibria and every exp2/exp3/exp4 row."""
    points = []
    for build in (experiment1, experiment5):
        problem, report = solve_scenario(build())
        point = problem.split(report.solution)
        points.append((build().model, point.Q, point.u))
    for name in ("exp2", "exp3", "exp4"):
        spec = builtin_sweep(name)
        for row in run_sweep(spec).rows:
            model = apply_parameter(spec.scenario, spec.param, row.value).model
            points.append((model, row.Q, row.u))
    return points


class TestExpectedUtilityBatch:
    """expected_utility at many points in one call, against the closed form."""

    @staticmethod
    def random_points(model, rng, lead):
        Q = rng.uniform(0.0, model.q_upper, size=lead + (model.m, model.n))
        u = rng.uniform(0.0, 0.999, size=lead + (model.m,))
        return Q, u

    def test_equals_the_closed_form_at_every_solved_point(self):
        # Bit for bit, which pins the summation order of the revenue rho @ row
        # that the CSV EU columns were written with.
        points = solved_points()
        assert len(points) == 2 + 31 + 81 + 18
        for model, Q, u in points:
            for x in range(model.m):
                assert model.expected_utility(x, Q, u) == closed_form_utility(model, x, Q, u)

    @pytest.mark.parametrize("build", [experiment1, experiment5], ids=["exp1", "exp5"])
    @pytest.mark.parametrize("lead", [(), (8, 25)], ids=["scalar", "k-by-j"])
    def test_matches_scalar_expected_utility(self, build, lead):
        model = build().model
        rng = np.random.default_rng(11)
        points = 200 if lead == () else 1
        for _ in range(points):
            Q, u = self.random_points(model, rng, lead)
            flat_Q = Q.reshape((-1, model.m, model.n))
            flat_u = u.reshape((-1, model.m))
            for x in range(model.m):
                got = np.asarray(model.expected_utility(x, Q, u))
                assert got.shape == lead
                want = np.array([closed_form_utility(model, x, q, v)
                                 for q, v in zip(flat_Q, flat_u)]).reshape(lead)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_leading_shapes_broadcast(self):
        model = experiment1().model
        rng = np.random.default_rng(3)
        Q, _ = self.random_points(model, rng, (4, 1))
        _, u = self.random_points(model, rng, (1, 5))
        got = model.expected_utility(1, Q, u)
        assert got.shape == (4, 5)
        # A point's value does not depend on the batch it is evaluated in.
        assert got[2, 3] == model.expected_utility(1, Q[2, 0], u[0, 3])

    @pytest.mark.parametrize("bad_u", [[1.0, 0.5], [0.5, -1e-9]],
                             ids=["level-one", "negative-level"])
    def test_rejects_levels_outside_unit_interval(self, bad_u):
        model = experiment1().model
        with pytest.raises(ValueError, match="security levels"):
            model.expected_utility(0, np.ones((3, 2, 2)),
                                   np.array([[0.2, 0.3], bad_u, [0.1, 0.1]]))

    @pytest.mark.parametrize("x", [-1, 2])
    def test_rejects_bad_retailer_index(self, x):
        model = experiment1().model
        with pytest.raises(IndexError):
            model.expected_utility(x, np.ones((2, 2)), np.zeros(2))

    @pytest.mark.parametrize("Q_shape, u_shape", [
        ((2, 3), (2,)),          # wrong number of markets
        ((3, 2), (3,)),          # wrong number of retailers
        ((2, 2), (3,)),
        ((4, 2, 2), (5, 2)),     # leading shapes do not broadcast
        ((2,), (2,)),
        ((2, 2), ()),
    ])
    def test_rejects_mismatched_shapes(self, Q_shape, u_shape):
        model = experiment1().model
        with pytest.raises(ValueError):
            model.expected_utility(0, np.ones(Q_shape), np.full(u_shape, 0.5))


class TestModelDerivatives:
    """Derivatives of expected_utility agree with their closed forms."""

    def test_derivatives_at_random_interior_points(self):
        # Own marginals: rho_y + alpha_y Q[x, y] - c - (2 a q + b) s in the
        # shipments, and D mu ((1 - mean u) + (1 - u_x)/m) + gamma . Q[x]/m
        # - 1/(1 - u_x) in the level.
        model = experiment1().model
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            Q = rng.uniform(1.0, 60.0, size=(2, 2))
            u = rng.uniform(0.05, 0.9, size=2)
            r = model.retailers[0]
            rho = model.alpha_vec * Q.sum(axis=0) + model.gamma_vec * u.mean() \
                + model.kappa_vec
            for y in range(2):
                def wrt_q(q, y=y):
                    Qp = Q.copy()
                    Qp[0, y] = q
                    return model.expected_utility(0, Qp, u)

                tc = r.costs[y]
                want = rho[y] + model.alpha_vec[y] * Q[0, y] - r.c \
                    - (2.0 * tc.a * Q[0, y] + tc.b) * tc.s
                worst = max(worst, abs(central_diff(wrt_q, Q[0, y], h=1e-4) - want)
                            / max(1.0, abs(want)))

            def wrt_u(val):
                return model.expected_utility(0, Q, np.array([val, u[1]]))

            want = r.D * r.mu * ((1.0 - u.mean()) + (1.0 - u[0]) / 2) \
                + model.gamma_vec @ Q[0] / 2 - 1.0 / (1.0 - u[0])
            worst = max(worst, abs(central_diff(wrt_u, u[0]) - want) / max(1.0, abs(want)))
        assert worst < 1e-6

    def test_price_gradients(self):
        # A rival's shipment into y moves retailer 1's price by alpha_y, and
        # a rival's level moves every price by gamma_y / m (and the loss by
        # D mu (1 - u_1) / m).
        model = experiment1().model
        r = model.retailers[0]
        rng = np.random.default_rng(11)
        for _ in range(100):
            Q = rng.uniform(1.0, 60.0, size=(2, 2))
            u = rng.uniform(0.05, 0.9, size=2)
            for y in range(2):
                def wrt_q(q, y=y):
                    Qp = Q.copy()
                    Qp[1, y] = q
                    return model.expected_utility(0, Qp, u)

                fd = central_diff(wrt_q, Q[1, y], h=1e-4)
                assert fd == pytest.approx(model.markets[y].alpha * Q[0, y], rel=1e-6)

            def wrt_u(val):
                return model.expected_utility(0, Q, np.array([u[0], val]))

            fd = central_diff(wrt_u, u[1])
            want = model.gamma_vec @ Q[0] / model.m + r.D * r.mu * (1.0 - u[0]) / model.m
            assert fd == pytest.approx(want, rel=1e-6)


class TestValidation:
    def test_model_shape_mismatch(self):
        base = experiment1().model
        with pytest.raises(ValueError):
            ModelSpec(m=3, n=2, retailers=base.retailers, markets=base.markets)

    def test_negative_q_upper(self):
        base = experiment1().model
        with pytest.raises(ValueError):
            ModelSpec(m=2, n=2, retailers=base.retailers, markets=base.markets,
                      q_upper=-1.0)

    def test_market_invariants(self):
        with pytest.raises(ValueError):
            MarketParams(alpha=0.5, gamma=0.1, kappa=10.0)
        with pytest.raises(ValueError):
            MarketParams(alpha=-0.5, gamma=0.1, kappa=-10.0)

    def test_retailer_invariants(self):
        costs = (TransactionCostParams(1.0, 2.0, 1.0),)
        with pytest.raises(ValueError):
            RetailerParams(c=1.0, B=0.0, D=1.0, t=0.5, mu=1.0, costs=costs)
        with pytest.raises(ValueError):
            RetailerParams(c=1.0, B=1.0, D=1.0, t=1.5, mu=1.0, costs=costs)

    def test_cost_invariants(self):
        with pytest.raises(ValueError):
            TransactionCostParams(a=-1.0, b=0.0, s=1.0)
        with pytest.raises(ValueError):
            TransactionCostParams(a=1.0, b=0.0, s=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN passes every ordered comparison, so each field needs the check.
        base = experiment1().model
        r, mk, tc = base.retailers[0], base.markets[0], base.retailers[0].costs[0]
        for field in ("c", "B", "D", "t", "mu"):
            with pytest.raises(ValueError, match="finite"):
                replace(r, **{field: bad})
        for field in ("alpha", "gamma", "kappa"):
            with pytest.raises(ValueError, match="finite"):
                replace(mk, **{field: bad})
        for field in ("a", "b", "s"):
            with pytest.raises(ValueError, match="finite"):
                replace(tc, **{field: bad})
        with pytest.raises(ValueError, match="finite"):
            replace(base, q_upper=bad)


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.0, max_value=0.99),
       st.floats(min_value=0.0, max_value=0.985))
def test_attack_probability_symmetric_monotone_in_network_level(u, rival):
    # A rival's higher level lowers the expected loss through mean u.
    lower_net = attack_loss([u, rival + 0.01], mu=1.3)
    assert lower_net <= attack_loss([u, rival], mu=1.3)
