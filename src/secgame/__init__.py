"""Nash-game solver for multi-retailer cybersecurity investment under
nonlinear budget constraints, built on a box-constrained variational
inequality and a self-adaptive projection-contraction method."""

from .model import (MarketParams, ModelSpec, RetailerParams, TransactionCostParams,
                    attack_probability, budget_gap, mean_security, security_cost,
                    security_cost_deriv)
from .scenarios import (REFERENCE_TARGETS, Scenario, SweepResult, SweepSpec,
                        builtin_sweep, experiment1, experiment5, experiment_model,
                        find_crossing, run_sweep, scenario_by_name, solve_scenario)
from .solver import (SolverConfig, SolverReport, StackReport, best_response_solve,
                     solve, verify_equilibrium)
from .vi import (U_CAP, BoxVi, DecisionVector, InvestmentVi, ViProblem, fd_check,
                 fd_check_random)

__version__ = "0.1.0"

__all__ = [
    "MarketParams", "ModelSpec", "RetailerParams", "TransactionCostParams",
    "attack_probability", "budget_gap", "mean_security", "security_cost",
    "security_cost_deriv",
    "REFERENCE_TARGETS", "Scenario", "SweepResult", "SweepSpec", "builtin_sweep",
    "experiment1", "experiment5", "experiment_model", "find_crossing", "run_sweep",
    "scenario_by_name", "solve_scenario",
    "SolverConfig", "SolverReport", "StackReport", "best_response_solve", "solve",
    "verify_equilibrium",
    "U_CAP", "BoxVi", "DecisionVector", "InvestmentVi", "ViProblem", "fd_check",
    "fd_check_random",
]
