"""Unit tests for the economic model primitives."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgame.model import (MarketParams, ModelSpec, RetailerParams,
                           TransactionCostParams, attack_probability, budget_gap,
                           mean_security, security_cost, security_cost_deriv)
from secgame.scenarios import experiment1, experiment5, experiment_model


def central_diff(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSecurityCost:
    def test_zero_level_costs_nothing(self):
        assert security_cost(0.0) == 0.0

    def test_value_at_095(self):
        assert security_cost(0.95) == pytest.approx(2.9957, abs=1e-4)

    def test_inverse_of_log(self):
        u = 1.0 - math.exp(-3.0)
        assert security_cost(u) == pytest.approx(3.0, abs=1e-12)

    def test_domain_errors(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                security_cost(bad)
            with pytest.raises(ValueError):
                security_cost_deriv(bad)

    def test_deriv_value(self):
        assert security_cost_deriv(0.0) == 1.0
        assert security_cost_deriv(0.96) == pytest.approx(25.0, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
    def test_strictly_increasing(self, u1, u2):
        if u1 == u2:
            return
        lo, hi = min(u1, u2), max(u1, u2)
        assert security_cost(lo) < security_cost(hi)

    @given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=0.0, max_value=0.999))
    def test_midpoint_convex(self, u1, u2):
        mid = 0.5 * (u1 + u2)
        lhs = security_cost(mid)
        rhs = 0.5 * (security_cost(u1) + security_cost(u2))
        assert lhs <= rhs + 1e-12

    def test_vector_input(self):
        out = security_cost(np.array([0.0, 0.5]))
        assert out.shape == (2,)
        assert out[0] == 0.0


class TestBudgetGap:
    def test_zero_level(self):
        assert budget_gap(0.0, 3.0) == -3.0

    def test_boundary(self):
        u = 1.0 - math.exp(-3.0)
        assert budget_gap(u, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_slack_at_experiment_point(self):
        assert budget_gap(0.96, 5.28) == pytest.approx(-2.0611, abs=1e-4)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            budget_gap(0.5, 0.0)


class TestMeanSecurity:
    def test_pair(self):
        assert mean_security([0.96, 0.95]) == pytest.approx(0.955)

    def test_zeros(self):
        assert mean_security([0.0, 0.0, 0.0]) == 0.0

    def test_three_retailer_reference_row(self):
        assert mean_security([0.55, 0.58, 0.59]) == pytest.approx(0.5733, abs=5e-4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_security([])


class TestAttackProbability:
    def test_full_protection_limit(self):
        assert attack_probability(1.0, 0.3, 2.0) == 0.0

    def test_no_protection(self):
        assert attack_probability(0.0, 0.0, 1.0) == 1.0

    def test_experiment_point(self):
        assert attack_probability(0.96, 0.955, 1.76) == pytest.approx(0.003168, abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=0.99), st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_decreasing_in_own_level(self, u, ubar, du):
        hi = min(1.0, u + du)
        assert attack_probability(hi, ubar, 1.5) < attack_probability(u, ubar, 1.5) or hi == u

    def test_rejects_negative_multiplier(self):
        with pytest.raises(ValueError):
            attack_probability(0.5, 0.5, -1.0)


class TestDemand:
    def setup_method(self):
        self.model = experiment1().model

    def test_zero(self):
        assert self.model.demand(np.zeros((2, 2)), 0) == 0.0

    def test_reference_column_sums(self):
        Q = np.array([[10.94, 30.25], [11.78, 31.73]])
        assert self.model.demand(Q, 0) == pytest.approx(22.72)
        assert self.model.demand(Q, 1) == pytest.approx(61.98)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            self.model.demand(np.zeros((2, 2)), 2)

    @given(st.lists(st.floats(min_value=0, max_value=50), min_size=4, max_size=4),
           st.lists(st.floats(min_value=0, max_value=50), min_size=4, max_size=4))
    def test_additivity(self, qa, qb):
        A = np.array(qa).reshape(2, 2)
        B = np.array(qb).reshape(2, 2)
        total = self.model.demand(A + B, 1)
        assert total == pytest.approx(self.model.demand(A, 1) + self.model.demand(B, 1),
                                      rel=1e-12, abs=1e-12)


class TestPrice:
    def setup_method(self):
        self.model = experiment1().model

    def test_intercept(self):
        assert self.model.price(0, np.zeros((2, 2)), np.zeros(2)) == pytest.approx(120.0)

    def test_market2_at_reference_demand(self):
        Q = np.array([[0.0, 30.25], [0.0, 31.73]])
        assert self.model.price(1, Q, np.array([0.96, 0.95])) == pytest.approx(188.402)

    def test_market1_at_reference_demand(self):
        Q = np.array([[10.94, 0.0], [11.78, 0.0]])
        assert self.model.price(0, Q, np.array([0.96, 0.95])) == pytest.approx(74.751)


class TestProfit:
    def test_zero_row(self):
        model = experiment1().model
        Q = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert model.profit(0, Q, np.zeros(2)) == 0.0

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
        # price = -2*1 + 120 = 118; cost = 17.6 + (1 + 2)*1.76
        assert model.profit(0, Q, np.zeros(2)) == pytest.approx(95.12)


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
        retailers = tuple(
            RetailerParams(c=r.c, B=r.B, D=0.0, t=r.t, mu=r.mu, costs=r.costs)
            for r in model.retailers)
        model = ModelSpec(m=2, n=2, retailers=retailers, markets=model.markets)
        Q = np.array([[2.0, 3.0], [1.0, 4.0]])
        u = np.array([0.0, 0.4])
        assert model.expected_utility(0, Q, u) == pytest.approx(
            model.profit(0, Q, u), rel=1e-12)


class TestExpectedUtilityBatch:
    """The batched value function against the scalar one it stands in for."""

    @staticmethod
    def random_points(model, rng, lead):
        Q = rng.uniform(0.0, model.q_upper, size=lead + (model.m, model.n))
        u = rng.uniform(0.0, 0.999, size=lead + (model.m,))
        return Q, u

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
                got = np.asarray(model.expected_utility_batch(x, Q, u))
                assert got.shape == lead
                want = np.array([model.expected_utility(x, q, v)
                                 for q, v in zip(flat_Q, flat_u)]).reshape(lead)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_leading_shapes_broadcast(self):
        model = experiment1().model
        rng = np.random.default_rng(3)
        Q, _ = self.random_points(model, rng, (4, 1))
        _, u = self.random_points(model, rng, (1, 5))
        got = model.expected_utility_batch(1, Q, u)
        assert got.shape == (4, 5)
        assert got[2, 3] == pytest.approx(model.expected_utility(1, Q[2, 0], u[0, 3]),
                                          rel=1e-12)

    @pytest.mark.parametrize("bad_u", [[1.0, 0.5], [0.5, -1e-9]],
                             ids=["level-one", "negative-level"])
    def test_rejects_levels_outside_unit_interval(self, bad_u):
        model = experiment1().model
        with pytest.raises(ValueError, match="security levels"):
            model.expected_utility_batch(0, np.ones((3, 2, 2)),
                                         np.array([[0.2, 0.3], bad_u, [0.1, 0.1]]))

    @pytest.mark.parametrize("x", [-1, 2])
    def test_rejects_bad_retailer_index(self, x):
        model = experiment1().model
        with pytest.raises(IndexError):
            model.expected_utility_batch(x, np.ones((2, 2)), np.zeros(2))

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
            model.expected_utility_batch(0, np.ones(Q_shape), np.full(u_shape, 0.5))


class TestModelDerivatives:
    """Closed-form derivatives agree with central finite differences."""

    def test_derivatives_at_random_interior_points(self):
        model = experiment1().model
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            u = rng.uniform(0.05, 0.9)
            q = rng.uniform(1.0, 99.0)
            err = abs(security_cost_deriv(u) - central_diff(security_cost, u)) \
                / max(1.0, security_cost_deriv(u))
            worst = max(worst, err)
            tc = model.retailers[0].costs[0]
            err = abs(tc.marginal(q) - central_diff(tc.cost, q)) / max(1.0, abs(tc.marginal(q)))
            worst = max(worst, err)
        assert worst < 1e-6

    def test_price_gradients(self):
        model = experiment1().model
        rng = np.random.default_rng(11)
        for _ in range(100):
            Q = rng.uniform(1.0, 60.0, size=(2, 2))
            u = rng.uniform(0.05, 0.9, size=2)
            for y in range(2):
                def wrt_q(q, y=y):
                    Qp = Q.copy()
                    Qp[0, y] = q
                    return model.price(y, Qp, u)

                fd = central_diff(wrt_q, Q[0, y])
                assert fd == pytest.approx(model.markets[y].alpha, rel=1e-6)

                def wrt_u(val, y=y):
                    up = u.copy()
                    up[1] = val
                    return model.price(y, Q, up)

                fd = central_diff(wrt_u, u[1])
                assert fd == pytest.approx(model.markets[y].gamma / model.m, rel=1e-6)


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
       st.floats(min_value=0.0, max_value=0.99))
def test_attack_probability_symmetric_monotone_in_network_level(u, ubar):
    lower_net = attack_probability(u, min(0.99, ubar + 0.005), 1.3)
    assert lower_net <= attack_probability(u, ubar, 1.3)
