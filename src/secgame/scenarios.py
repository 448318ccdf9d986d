"""Built-in game instances, parameter sweeps, and reconciliation reporting.

The bundled two- and three-retailer scenarios use a common parameter family
in which a retailer with market share t gets handling cost 10(1+t), budget
3(1+t), attack loss 100(1+t), attack multiplier 1+t and transaction cost
scale 1+t, over two markets with inverse demands -2d + 0.2*mean_u + 120 and
-d + 0.4*mean_u + 250.  Sweeps solve a scenario at every value of a
parameter grid, all rows as one stacked cold solve, and report per-row
equilibria.  A row's ``columns()`` is the one layout of a solution record:
the sweep series, the CSV files and crossing detection (where two named
series meet) all read it.  solve_scenario passes solve's
per-iteration callback through.  Reference values recorded alongside the
scenarios are reproduced where possible and reported as unreconciled
otherwise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .model import MarketParams, ModelSpec, RetailerParams, TransactionCostParams
from .solver import SolverConfig, solve
from .vi import DecisionVector, InvestmentVi, ViProblem

__all__ = [
    "Scenario",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "experiment_model",
    "experiment1",
    "experiment5",
    "scenario_by_name",
    "builtin_sweep",
    "solve_scenario",
    "apply_parameter",
    "solution_row",
    "run_sweep",
    "find_crossing",
    "reconciliation_report",
    "crossing_reconciliation",
    "REFERENCE_TARGETS",
    "CROSSING_BANDS",
    "BUILTIN_SCENARIOS",
    "BUILTIN_SWEEPS",
]

# Reference equilibrium values recorded with the scenario family.  The
# two-retailer quantity table is known not to satisfy the stationarity
# conditions of the model as parameterized here; it is kept for side-by-side
# reporting, never asserted.
REFERENCE_TARGETS = {
    "exp1": {
        "Q": np.array([[10.94, 30.25], [11.78, 31.73]]),
        "u": np.array([0.96, 0.95]),
        "u_bar": 0.955,
    },
    "exp5": {
        "u": np.array([0.55, 0.58, 0.59]),
        "u_bar": 0.573,
    },
    "exp2": {"crossing_B1": 3.06},
    "exp3": {"crossing_D1": 137.0, "u1_at_120": 0.951, "u1_at_200": 0.962},
}

# Swept parameter and band half-width of each recorded u1 = u2 crossing; a
# computed crossing inside the band reproduces the recorded one.
CROSSING_BANDS = {"exp2": ("B1", 0.15), "exp3": ("D1", 5.0)}

MARKET_SLOPES = (-2.0, -1.0)
MARKET_SECURITY_COEFFS = (0.2, 0.4)
MARKET_INTERCEPTS = (120.0, 250.0)
MARKET_COST_QUAD = (1.0, 0.5)
MARKET_COST_LIN = (2.0, 2.0)


@dataclass(frozen=True)
class Scenario:
    """A named game plus its initial point (ViProblem.default_start when
    omitted) and solver configuration."""

    name: str
    model: ModelSpec
    x0: DecisionVector = None
    config: SolverConfig = SolverConfig()

    def __post_init__(self):
        m, n = self.model.m, self.model.n
        if self.x0 is None:
            x0 = ViProblem(self.model).default_start()
            object.__setattr__(self, "x0", DecisionVector(x0[:m * n].reshape(m, n), x0[m * n:]))
        if self.x0.Q.shape != (m, n):
            raise ValueError("initial point shape does not match the model")
        if (np.any(self.x0.Q < 0) or np.any(self.x0.Q > self.model.q_upper)
                or np.any(self.x0.u < 0) or np.any(self.x0.u >= 1.0)):
            raise ValueError("initial point is infeasible")


def experiment_model(shares, q_upper=100.0, loss_gradient_includes_multiplier=True):
    """Build the shared experiment family for the given market shares."""
    markets = tuple(
        MarketParams(alpha=a, gamma=g, kappa=k)
        for a, g, k in zip(MARKET_SLOPES, MARKET_SECURITY_COEFFS, MARKET_INTERCEPTS)
    )
    retailers = []
    for t in shares:
        scale = 1.0 + t
        costs = tuple(
            TransactionCostParams(a=a, b=b, s=scale)
            for a, b in zip(MARKET_COST_QUAD, MARKET_COST_LIN)
        )
        retailers.append(RetailerParams(c=10.0 * scale, B=3.0 * scale, D=100.0 * scale,
                                        t=t, mu=scale, costs=costs))
    return ModelSpec(m=len(retailers), n=len(markets), retailers=tuple(retailers),
                     markets=markets, q_upper=q_upper,
                     loss_gradient_includes_multiplier=loss_gradient_includes_multiplier)


def experiment1():
    """Two retailers (shares 0.76 / 0.24), two markets."""
    return Scenario("exp1", experiment_model((0.76, 0.24)))


def experiment5():
    """Three retailers (shares 0.71 / 0.20 / 0.09), same market structure."""
    return Scenario("exp5", experiment_model((0.71, 0.20, 0.09)))


BUILTIN_SCENARIOS = {"exp1": experiment1, "exp5": experiment5}


def scenario_by_name(name):
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; builtins: "
                         f"{sorted(BUILTIN_SCENARIOS)}") from None


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sensitivity sweep over a base scenario.

    ``param`` names a retailer-indexed quantity such as "B1", "D1" or "t1";
    apply_parameter sets it at each grid value.  Both ends of the grid are
    applied on construction, so a value outside the field's domain is refused
    before any row is solved.
    """

    scenario: Scenario
    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep needs finite start and stop")
        if not self.start < self.stop:
            raise ValueError("sweep needs start < stop")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        parse_param(self.param, self.scenario.model.m)
        # Every field's domain is an interval, and so is the grid.
        for value in (self.start, self.stop):
            try:
                apply_parameter(self.scenario, self.param, value)
            except ValueError as exc:
                raise ValueError(f"{self.param} = {value:g}: {exc}") from exc

    def grid(self):
        return np.linspace(self.start, self.stop, self.steps)


# Sweeps mirror the sensitivity experiments over exp1: budget, attack loss
# and market share of retailer 1, as (param, start, stop, steps).
BUILTIN_SWEEPS = {
    "exp2": ("B1", 2.0, 3.5, 31),
    "exp3": ("D1", 120.0, 200.0, 81),
    "exp4": ("t1", 0.55, 0.89, 18),
}

# The tight tolerance keeps complementary slackness of the recovered
# multipliers inside its audited bound on rows where the budget binds.
_SWEEP_CONFIG = SolverConfig(tol=1e-9)


def builtin_sweep(name):
    try:
        grid = BUILTIN_SWEEPS[name]
    except KeyError:
        raise ValueError(f"unknown sweep {name!r}; builtins: "
                         f"{sorted(BUILTIN_SWEEPS)}") from None
    return SweepSpec(replace(experiment1(), config=_SWEEP_CONFIG), *grid)

_PARAM_RE = re.compile(r"^([A-Za-z]+)([0-9]+)$")
_SWEEPABLE_FIELDS = ("B", "D", "c", "mu", "t")


def parse_param(param, m):
    """Split a path like "B1" into (field, retailer index); validate both."""
    match = _PARAM_RE.match(param)
    if not match:
        raise ValueError(f"cannot parse parameter path {param!r}")
    fld, idx = match.group(1), int(match.group(2))
    if fld not in _SWEEPABLE_FIELDS:
        raise ValueError(f"unknown parameter field {fld!r}; one of {_SWEEPABLE_FIELDS}")
    if not 1 <= idx <= m:
        raise ValueError(f"retailer index {idx} out of range 1..{m}")
    return fld, idx - 1


def apply_parameter(scenario: Scenario, param, value):
    """Return a scenario with one parameter replaced.

    A market share "tN" rebuilds both retailers of a duopoly from the
    built-in family with shares (value, 1 - value); the share itself is
    metadata that no model function reads.  The model must be the member of
    that family its own shares give, or ValueError is raised rather than
    the model swapped.  Every other field overwrites the raw retailer value.
    """
    model = scenario.model
    fld, idx = parse_param(param, model.m)
    if fld == "t":
        if model.m != 2:
            raise ValueError("market-share parameters are defined for two retailers")
        kw = {"q_upper": model.q_upper,
              "loss_gradient_includes_multiplier": model.loss_gradient_includes_multiplier}
        if experiment_model(tuple(r.t for r in model.retailers), **kw) != model:
            raise ValueError("market-share parameters rebuild the built-in scenario "
                             "family, and this model is not a member of it")
        shares = (value, 1.0 - value) if idx == 0 else (1.0 - value, value)
        model = experiment_model(shares, **kw)
    else:
        retailers = list(model.retailers)
        retailers[idx] = replace(retailers[idx], **{fld: value})
        model = replace(model, retailers=tuple(retailers))
    return replace(scenario, model=model)


@dataclass
class SweepRow:
    """Equilibrium summary at one parameter value."""

    value: float
    u: np.ndarray
    Q: np.ndarray
    lam: np.ndarray
    eu: np.ndarray
    residual: float
    iterations: int
    converged: bool

    def columns(self):
        """The solution record as column name -> value, in CSV order:
        u_1..u_m, Q_1_1..Q_m_n, lambda_1..lambda_m, EU_1..EU_m, residual,
        iters, converged.  The only place these names are made."""
        m, n = self.Q.shape
        cols = {f"u_{i + 1}": self.u[i] for i in range(m)}
        cols.update((f"Q_{i + 1}_{j + 1}", self.Q[i, j]) for i in range(m) for j in range(n))
        cols.update((f"lambda_{i + 1}", self.lam[i]) for i in range(m))
        cols.update((f"EU_{i + 1}", self.eu[i]) for i in range(m))
        cols.update(residual=self.residual, iters=int(self.iterations),
                    converged=bool(self.converged))
        return cols


@dataclass
class SweepResult:
    """Rows of a completed sweep, ordered by parameter value."""

    spec: SweepSpec
    rows: list = field(default_factory=list)

    def columns(self, *names):
        """The named columns over the rows, name -> array, reading each row's
        columns() once: "param" or a key of SweepRow.columns(); any other
        name raises KeyError."""
        table = [dict(r.columns(), param=r.value) for r in self.rows]
        try:
            return {name: np.array([cols[name] for cols in table]) for name in names}
        except KeyError as exc:
            raise KeyError(f"unknown series {exc.args[0]!r}") from None

    def series(self, name):
        """One column over the rows; see columns."""
        return self.columns(name)[name]


def _solve_games(problems, config, x0, callback=None):
    """Solve each problem from its row of the (k, dim) stack ``x0`` of (Q, u)
    points as one stacked solve in Jacobi-scaled (z, w) coordinates.
    Returns one report per problem, its solution mapped back to (Q, u) and
    its residual the (Q, u) natural residual.  ``callback`` is solve's
    per-iteration hook and sees the (z, w) iterates."""
    view = InvestmentVi(*problems)
    stack = solve(view, config, x0=view.from_u(x0), callback=callback)
    solutions = view.to_u(np.array([r.solution for r in stack.reports]))
    for report, x in zip(stack.reports, solutions):
        report.solution = x
    return stack.reports


def solve_scenario(scenario: Scenario, callback=None):
    """Assemble and solve one scenario; returns (problem, report).
    ``callback`` is passed to solve as its per-iteration hook."""
    problem = ViProblem(scenario.model)
    report, = _solve_games([problem], scenario.config, scenario.x0.flat()[None], callback)
    return problem, report


def solution_row(problem, report, value=math.nan):
    """The solution record (u, Q, lambda, EU and solve status) of one solve."""
    point = problem.split(report.solution)
    model = problem.model
    eu = np.array([model.expected_utility(x, point.Q, point.u) for x in range(model.m)])
    return SweepRow(float(value), point.u, point.Q, point.lam, eu,
                    report.final_residual, report.iterations, report.converged)


def run_sweep(spec: SweepSpec):
    """Solve the scenario at every grid value of the swept parameter.

    Every row is a cold solve from its scenario's own initial point; all
    rows run as one stacked solve, and each row is bit for bit the
    solve_scenario of its scenario, iteration count included.  Rows are
    produced for every grid point even when a solve fails to converge (the
    row is flagged).  Row order follows the grid.
    """
    grid = spec.grid()
    scens = [apply_parameter(spec.scenario, spec.param, float(value)) for value in grid]
    problems = [ViProblem(scen.model) for scen in scens]
    reports = _solve_games(problems, spec.scenario.config,
                           np.array([scen.x0.flat() for scen in scens]))
    return SweepResult(spec, [solution_row(problem, report, value)
                              for problem, report, value in zip(problems, reports, grid)])


def find_crossing(result: SweepResult, series_a, series_b):
    """Locate where two named sweep series meet, by linear interpolation.

    Only converged rows are considered.  Returns the interpolated parameter
    value of the first sign change of (a - b), or None when the difference
    never strictly changes sign (constant or one-sided series give None).
    """
    cols = result.columns("converged", "param", series_a, series_b)
    mask = cols["converged"]
    p = cols["param"][mask]
    d = (cols[series_a] - cols[series_b])[mask]
    keep = d != 0.0
    p, d = p[keep], d[keep]
    for i in range(len(d) - 1):
        if d[i] * d[i + 1] < 0.0:
            frac = d[i] / (d[i] - d[i + 1])
            return float(p[i] + frac * (p[i + 1] - p[i]))
    return None


def reconciliation_report(scenario: Scenario, row: SweepRow):
    """Side-by-side comparison of the computed equilibrium and the recorded
    reference values, including the stationarity residuals at the reference
    point when one is available.  Values are printed, never forced to agree.
    ``row`` is the solve's solution_row.
    """
    model = scenario.model
    lines = [f"reconciliation [{scenario.name}]"]
    ref = REFERENCE_TARGETS.get(scenario.name)
    u_bar = float(row.u.mean())
    lines.append(f"  computed u      : {np.array2string(row.u, precision=6)}"
                 f"   mean {u_bar:.6f}")
    if ref is not None and "u" in ref:
        lines.append(f"  reference u     : {np.array2string(ref['u'], precision=6)}"
                     f"   mean {ref['u_bar']:.6f}")
        lines.append(f"  level gap       : "
                     f"{np.array2string(row.u - ref['u'], precision=6)}")
    lines.append(f"  computed Q      : {np.array2string(row.Q.ravel(), precision=4)}")
    if ref is not None and "Q" in ref and ref["Q"].shape == row.Q.shape:
        lines.append(f"  reference Q     : {np.array2string(ref['Q'].ravel(), precision=4)}")
        problem = ViProblem(model)
        ref_point = DecisionVector(ref["Q"], ref["u"])
        f_ref = problem.operator(ref_point.flat())
        mn = model.m * model.n
        lines.append("  stationarity residuals at the reference point "
                     "(zero would mean reproducible):")
        lines.append(f"    quantity block: "
                     f"{np.array2string(f_ref[:mn], precision=3)}")
        lines.append(f"    level block   : "
                     f"{np.array2string(f_ref[mn:mn + model.m], precision=3)}")
        lines.append("    the reference quantities do not satisfy the stationarity"
                     " conditions; the computed equilibrium is reported above.")
    if ref is not None and "u" in ref and "Q" not in ref:
        lines.append("    reference levels are recorded as unreconciled targets for"
                     " this scenario.")
    lines.append(f"  residual {row.residual:.3e}  iterations {row.iterations}"
                 f"  converged {row.converged}")
    return "\n".join(lines)


def crossing_reconciliation(name, crossing):
    """One line setting the recorded u1 = u2 crossing of sweep ``name`` (a key
    of CROSSING_BANDS) beside the computed ``crossing`` (None when the series
    do not meet).  The recorded value is reproduced when the computed one
    lies within its band; otherwise it is reported as not reproduced, never
    forced to agree.
    """
    param, band = CROSSING_BANDS[name]
    recorded = REFERENCE_TARGETS[name][f"crossing_{param}"]
    computed = ("none in the swept range" if crossing is None
                else f"{param}~{crossing:.4f}")
    reproduced = crossing is not None and abs(crossing - recorded) <= band
    verdict = "reproduced" if reproduced else "not reproduced"
    return (f"recorded crossing {param}~{recorded:g} (+-{band:g}) {verdict}; "
            f"computed: {computed}")
