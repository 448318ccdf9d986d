"""Command-line interface: solve, sweep, verify and gradcheck.

Scenario files are JSON documents with top-level keys ``model``, ``initial``
and ``solver``.  The keys of ``model`` and ``solver`` and of their records
are the fields of the parameter dataclasses and SolverConfig, required
exactly when the field has no default; unknown keys and non-finite numbers
are rejected with the offending path.  Exit codes: 0 success, 2 non-convergence (including a solve
stopped by a non-finite operator value), 3 validation error, 4 verification
failure.  Sweep CSV columns are param followed by SweepRow.columns(),
param,u_1..u_m,Q_1_1..Q_m_n,lambda_1..lambda_m,EU_1..EU_m,residual,iters,converged
with full-precision decimal numbers; ``solve --out`` writes the same columns
without param.  Identical invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, replace

import numpy as np

from .model import ModelSpec
from .scenarios import (BUILTIN_SCENARIOS, CROSSING_BANDS, REFERENCE_TARGETS, Scenario,
                        SweepSpec, builtin_sweep, crossing_reconciliation, find_crossing,
                        reconciliation_report, run_sweep, scenario_by_name, solution_row,
                        solve_scenario)
from .solver import SolverConfig, SolverNumericError, verify_equilibrium
from .vi import DecisionVector, FdDomainError, ViProblem, fd_check_random, level_caps

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_VALIDATION = 3
EXIT_VERIFICATION = 4


class SchemaError(ValueError):
    """A scenario document violated the schema; the path names the culprit."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required key")


def _number(obj, path):
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise SchemaError(path, "expected a number")
    try:
        value = float(obj)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(path, "expected a finite number")
    return value


def _integer(obj, path):
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaError(path, "expected an integer")
    return obj


def _flag(obj, path):
    if not isinstance(obj, bool):
        raise SchemaError(path, "expected true or false")
    return obj


def _array(obj, path):
    # scenario_to_data leaves the tuples of the dataclasses as tuples.
    if not isinstance(obj, (list, tuple)):
        raise SchemaError(path, "expected an array")
    return obj


def _vector(obj, path):
    """An array of numbers, each read by _number with its own path."""
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(_array(obj, path))]


def _matrix(obj, path):
    """An array of equal-length arrays of numbers."""
    rows = [_vector(row, f"{path}[{i}]") for i, row in enumerate(_array(obj, path))]
    if len({len(row) for row in rows}) > 1:
        raise SchemaError(path, "expected rows of equal length")
    return rows


_SCALAR_READERS = {float: _number, int: _integer, bool: _flag}


def _reader(annotation):
    """The function ``(obj, path) -> value`` that reads a field annotated
    ``annotation``: a scalar, or ``tuple[Record, ...]`` of a dataclass."""
    if annotation in _SCALAR_READERS:
        return _SCALAR_READERS[annotation]
    args = typing.get_args(annotation)
    if (typing.get_origin(annotation) is tuple and len(args) == 2 and args[1] is Ellipsis
            and dataclasses.is_dataclass(args[0])):
        return lambda obj, path: tuple(_record(args[0], item, f"{path}[{i}]")
                                       for i, item in enumerate(_array(obj, path)))
    raise TypeError(f"no scenario-file reader for the annotation {annotation!r}")


@functools.cache
def _schema(cls):
    """(key, required, reader) of every field of dataclass ``cls``; a key is
    required exactly when its field has no default."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.default is MISSING and f.default_factory is MISSING,
                  _reader(hints[f.name]))
                 for f in dataclasses.fields(cls))


def _record(cls, obj, path):
    """Read the JSON object ``obj`` at ``path`` into dataclass ``cls``."""
    schema = _schema(cls)
    _check_keys(obj, path, required=[key for key, required, _ in schema if required],
                optional=[key for key, required, _ in schema if not required])
    fields = {key: read(obj[key], f"{path}.{key}") for key, _, read in schema if key in obj}
    try:
        return cls(**fields)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def scenario_from_data(data, name="scenario"):
    """Validate a parsed scenario document and build the Scenario."""
    _check_keys(data, name, required=("model",), optional=("initial", "solver"))
    model = _record(ModelSpec, data["model"], f"{name}.model")

    ipath = f"{name}.initial"
    x0 = None
    if "initial" in data:
        idata = data["initial"]
        _check_keys(idata, ipath, required=("Q", "u"))
        Q = _matrix(idata["Q"], f"{ipath}.Q")
        u = _vector(idata["u"], f"{ipath}.u")
        try:
            x0 = DecisionVector(Q, u)  # checks the shapes
        except ValueError as exc:
            raise SchemaError(ipath, str(exc)) from exc

    config = SolverConfig()
    if "solver" in data:
        config = _record(SolverConfig, data["solver"], f"{name}.solver")

    try:
        scenario = Scenario(name, model, x0, config)
    except ValueError as exc:
        raise SchemaError(ipath, str(exc)) from exc
    # A start above a budget cap would be projected onto it without a word;
    # sweeps still project a valid base start into each row's box.
    for x, (u, cap) in enumerate(zip(scenario.x0.u, level_caps(model))):
        if u > cap:
            raise SchemaError(f"{ipath}.u", f"level {u!r} of retailer {x + 1} exceeds its "
                                            f"budget cap min(U_CAP, 1 - exp(-B)) = {cap!r}")
    return scenario


def load_scenario(source):
    """Resolve a builtin name or JSON file path into a Scenario."""
    if source in BUILTIN_SCENARIOS:
        return scenario_by_name(source)
    try:
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(source, f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(source, f"invalid JSON: {exc}") from exc
    return scenario_from_data(data, name=os.path.basename(source))


# The key order of the "model" section in written documents.
_MODEL_KEYS = ("m", "n", "q_upper", "loss_gradient_includes_multiplier", "retailers",
               "markets")


def scenario_to_data(scenario: Scenario):
    """Serialize a scenario to the document form accepted by load_scenario."""
    model = dataclasses.asdict(scenario.model)
    return {
        "model": {key: model[key] for key in _MODEL_KEYS},
        "initial": {"Q": scenario.x0.Q.tolist(), "u": scenario.x0.u.tolist()},
        "solver": dataclasses.asdict(scenario.config),
    }


def _cell(v):
    """Locale-independent CSV text for one value: true/false for a flag, the
    integer for a count, full-precision decimal for any other number."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _print_solution_table(scenario, row, report):
    model = scenario.model
    print(f"scenario: {scenario.name}  ({model.m} retailers x {model.n} markets)")
    status = "yes" if report.converged else "NO"
    print(f"converged: {status}   residual: {report.final_residual:.3e}   "
          f"iterations: {report.iterations}   beta retries: {report.beta_retries}")
    header = f"{'retailer':>8} {'u':>12} {'lambda':>12} {'E(U)':>14}  " + "  ".join(
        f"{'Q->mkt ' + str(j + 1):>12}" for j in range(model.n))
    print(header)
    for i in range(model.m):
        qvals = "  ".join(f"{row.Q[i, j]:12.6f}" for j in range(model.n))
        print(f"{i + 1:>8} {row.u[i]:12.6f} {row.lam[i]:12.6f} "
              f"{row.eu[i]:14.4f}  {qvals}")
    print(f"network mean security: {row.u.mean():.6f}")


def cmd_solve(args):
    if args.dump:
        # --dump solves nothing, so an output path would be dropped without
        # a word.
        for flag, value in (("--out", args.out), ("--trace", args.trace)):
            if value is not None:
                raise SchemaError(flag, "not accepted with --dump")
        print(json.dumps(scenario_to_data(load_scenario(args.scenario)), indent=2))
        return EXIT_OK
    scenario = load_scenario(args.scenario)
    trace = ["iteration,residual,beta,r"]

    def trace_line(k, x, residual, beta, r):
        trace.append(f"{k},{_cell(residual)},{_cell(beta)},{_cell(r)}")

    problem, report = solve_scenario(
        scenario, callback=trace_line if args.trace is not None else None)
    row = solution_row(problem, report)
    _print_solution_table(scenario, row, report)
    if scenario.name in REFERENCE_TARGETS:
        print(reconciliation_report(scenario, row))
    if args.out:
        cols = row.columns()
        _write_lines(args.out, [",".join(cols), ",".join(map(_cell, cols.values()))])
    if args.trace is not None:
        _write_lines(args.trace, trace)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _sweep_csv_lines(result):
    records = [{"param": row.value, **row.columns()} for row in result.rows]
    return [",".join(records[0])] + [",".join(map(_cell, rec.values())) for rec in records]


def cmd_sweep(args):
    if args.name:
        spec = builtin_sweep(args.name)
        # A built-in sweep fixes its scenario and grid; a given option would
        # otherwise be dropped without a word.
        for flag, value in (("--param", args.param), ("--from", args.start),
                            ("--to", args.stop), ("--steps", args.steps),
                            ("--scenario", args.scenario)):
            if value is not None:
                raise SchemaError(flag, f"not accepted with the built-in sweep "
                                        f"{args.name}, which fixes its own grid")
    else:
        if args.param is None or args.start is None or args.stop is None:
            raise SchemaError("sweep", "custom sweeps need --param, --from and --to")
        for flag, value in (("--from", args.start), ("--to", args.stop)):
            if not math.isfinite(value):
                raise SchemaError(flag, "expected a finite number")
        scenario = "exp1" if args.scenario is None else args.scenario
        steps = 31 if args.steps is None else args.steps
        base = load_scenario(scenario)
        try:
            spec = SweepSpec(base, args.param, args.start, args.stop, steps)
        except ValueError as exc:
            raise SchemaError("sweep", str(exc)) from exc

    result = run_sweep(spec)
    lines = _sweep_csv_lines(result)
    if args.out:
        _write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)

    info = sys.stdout if args.out else sys.stderr
    model = spec.scenario.model
    for i in range(model.m):
        for j in range(i + 1, model.m):
            crossing = find_crossing(result, f"u_{i + 1}", f"u_{j + 1}")
            if crossing is not None:
                print(f"crossing u{i + 1}=u{j + 1} at {spec.param}~{crossing:.4f}",
                      file=info)
            else:
                print(f"no crossing of u{i + 1} and u{j + 1} in "
                      f"[{spec.start}, {spec.stop}]", file=info)
    if args.name in CROSSING_BANDS:
        print(crossing_reconciliation(args.name, find_crossing(result, "u_1", "u_2")),
              file=info)
    all_ok = all(r.converged for r in result.rows)
    return EXIT_OK if all_ok else EXIT_NO_CONVERGENCE


def cmd_verify(args):
    if not (math.isfinite(args.eps) and args.eps >= 0.0):
        raise SchemaError("--eps", "expected a finite nonnegative number")
    scenario = load_scenario(args.scenario)
    problem, report = solve_scenario(scenario)
    if not report.converged:
        print(f"solve did not converge (residual {report.final_residual:.3e})")
        return EXIT_NO_CONVERGENCE
    point = problem.split(report.solution)
    try:
        audit = verify_equilibrium(scenario.model, point, grid_density=args.grid,
                                   eps_br=args.eps)
    except ValueError as exc:  # the library's bounds on the grid density
        raise SchemaError("--grid", str(exc)) from exc
    for i, gain in enumerate(audit.improvements):
        print(f"retailer {i + 1}: best unilateral improvement {gain:.6e}")
    if audit.certified:
        print(f"equilibrium certified at grid density {args.grid} "
              f"(threshold {audit.eps_br:g})")
        return EXIT_OK
    print(f"equilibrium NOT certified: improvement above {audit.eps_br:g}")
    return EXIT_VERIFICATION


def cmd_gradcheck(args):
    if args.points < 1:
        raise SchemaError("--points", "must be a positive integer")
    scenario = load_scenario(args.scenario)
    model = scenario.model
    if args.variant == "literal-eq13":
        model = replace(model, loss_gradient_includes_multiplier=False)
    problem = ViProblem(model)
    try:
        # Overflow shows as a non-finite error, which fails below.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = fd_check_random(problem, points=args.points, step=args.step)
    except FdDomainError as exc:
        raise SchemaError(f"{scenario.name}.model.{exc.field}", str(exc)) from exc
    except ValueError as exc:  # --points is checked above; the step is left
        raise SchemaError("--step", str(exc)) from exc
    print(f"gradient check over {args.points} interior points: {report}")
    if not report.max_rel_error <= 1e-5:  # a NaN error fails too
        print("FAIL: operator disagrees with finite differences")
        return EXIT_VERIFICATION
    print("PASS")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="secgame",
        description="Equilibrium solver for the retailer cybersecurity "
                    "investment game")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario and print the equilibrium")
    p_solve.add_argument("scenario", help="builtin name (exp1, exp5) or JSON file")
    p_solve.add_argument("--out", help="write the solution row as CSV")
    p_solve.add_argument("--trace", help="write per-iteration CSV trace")
    p_solve.add_argument("--dump", action="store_true",
                         help="print the resolved scenario JSON and exit")

    p_sweep = sub.add_parser("sweep", help="solve along a parameter grid, emit CSV")
    p_sweep.add_argument("name", nargs="?", default=None,
                         help="builtin sweep name (exp2, exp3, exp4)")
    # The custom-sweep options default to None so that cmd_sweep can refuse
    # them next to a built-in name.
    p_sweep.add_argument("--scenario",
                         help="base scenario for custom sweeps (default exp1)")
    p_sweep.add_argument("--param", help="parameter path, e.g. B1, D1, t1")
    p_sweep.add_argument("--from", dest="start", type=float, help="first grid value")
    p_sweep.add_argument("--to", dest="stop", type=float, help="last grid value")
    p_sweep.add_argument("--steps", type=int, help="grid points (default 31)")
    p_sweep.add_argument("--out", help="CSV output path (default: stdout)")

    p_verify = sub.add_parser("verify", help="audit a solved scenario by grid search")
    p_verify.add_argument("scenario", help="builtin name or JSON file")
    p_verify.add_argument("--grid", type=int, default=50, help="grid density")
    p_verify.add_argument("--eps", type=float, default=1e-3,
                          help="certification threshold")

    p_grad = sub.add_parser("gradcheck",
                            help="compare the operator against finite differences")
    p_grad.add_argument("scenario", help="builtin name or JSON file")
    p_grad.add_argument("--points", type=int, default=100, help="sample points")
    p_grad.add_argument("--step", type=float, default=1e-5, help="difference step")
    p_grad.add_argument("--variant", choices=("default", "literal-eq13"),
                        default="default", help="loss-gradient variant to check")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map onto the validation code.
        return EXIT_VALIDATION if exc.code not in (0, None) else 0

    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
    except SolverNumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    parser.error(f"unknown command {args.command!r}")
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
