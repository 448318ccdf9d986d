"""secgame benchmark: one seeded workload, its metrics, and a correctness verdict.

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 20 --trace 0

Run from the checkout root.  The benchmark imports secgame from
``<checkout>/src`` (never an installed copy), pins BLAS to one thread and
removes SECGAME_THREADS, so every workload is a closed loop: one process, one
client, each call waiting for its result.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics (see tracing.py) and
reports the tracing overhead against untraced passes of the same operations.
Every equilibrium is checked outside the timed region (see checks.py).  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  Run-time files (scenario documents, sweep CSVs, traces and the
per-seed count record) go to ``<checkout>/.perfbench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import program

program.pin_environment()  # before the modules below import numpy

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(program.CHECKOUT, ".perfbench")
SETUP_PROBES = 7

# Per-layer metrics the traced run prints in its JSON: every one is measured
# on every workload.  Layer times that only some workloads reach (see
# LAYER_ONLY_TIMES) are printed in the table and the trace file instead.
PER_LAYER = {
    "vi.operator_calls": "count", "vi.operator_s": "s", "vi.operator_us_per_call": "us",
    "vi.evals_per_iter": "ratio", "vi.project_calls": "count", "vi.project_s": "s",
    "vi.residual_s": "s", "vi.build_s": "s", "vi.fd_points": "count",
    "solver.iterations": "count", "solver.beta_retries": "count",
    "solver.retry_ratio": "ratio", "solver.solve_calls": "count", "solver.solve_s": "s",
    "solver.predict_s": "s", "solver.correct_s": "s", "solver.self_s": "s",
    "solver.best_response_sweeps": "count", "solver.verify_grid_points": "count",
    "scenarios.rows": "count", "scenarios.zero_iter_rows": "count",
    "scenarios.binding_share": "ratio", "model.expected_utility_calls": "count",
    "trace.overhead": "ratio",
}
LAYER_ONLY_TIMES = ("vi.fd_check_s", "solver.best_response_s", "solver.verify_s",
                    "scenarios.run_sweep_s", "scenarios.self_s", "model.expected_utility_s",
                    "cli.main_s", "cli.self_s")
DETERMINISTIC = ("solver.iterations", "vi.operator_calls", "solver.beta_retries",
                 "scenarios.rows")


class BenchmarkError(RuntimeError):
    """The benchmark itself misbehaved (e.g. counts that should repeat did not)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(args):
    """Everything before the first call: import, inputs, documents, deck."""
    sg = program.load()
    reference = load_reference()
    os.makedirs(WORKDIR, exist_ok=True)
    ops = workloads.build_ops(sg, args.workload, args.seed, WORKDIR, reference)
    return sg, reference, ops


def measure_setup(args):
    """Median over SETUP_PROBES fresh processes of start-to-ready time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchmarkError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return statistics.median(times), times


def source_digest():
    """Hash of the program and benchmark sources: count records are per code version."""
    h = hashlib.sha256()
    for root in (program.SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, program.CHECKOUT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_repeat(args, mode, counts):
    """Compare deterministic counts with earlier runs of this seed and code."""
    path = os.path.join(WORKDIR, "counts.json")
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    key = f"{args.workload}/seed{args.seed}/{mode}/{source_digest()}"
    earlier = record.get(key)
    if earlier is not None:
        for op_key, value in counts.items():
            if op_key in earlier and earlier[op_key] != value:
                raise BenchmarkError(f"{op_key}: counts {value} differ from an earlier "
                                     f"run of seed {args.seed}: {earlier[op_key]}")
        counts = {**earlier, **counts}
    record[key] = counts
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


class Run:
    """Executes operations, checks their equilibria and tallies the verdict."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference[workload]
        self.attempted = 0
        self.failed = 0
        self.counts = {}

    def execute(self, op):
        """Time one call; returns (wall s, cpu s, result or None)."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # the run must keep going and report the failure
            result = None
            traceback.print_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        return t1 - t0, c1 - c0, result

    def settle(self, op, result):
        """Untimed: check the equilibria of one call and its repeatable counts."""
        if result is None:
            self.attempted += op.equilibria
            self.failed += op.equilibria
            return []
        try:
            eqs, counts = op.collect(result)
        except Exception:  # e.g. no CSV written: a failed call, not a crash
            traceback.print_exc()
            return self.settle(op, None)
        if op.key in self.counts and self.counts[op.key] != counts:
            raise BenchmarkError(f"{op.key}: counts {counts} differ from an earlier "
                                 f"call in this run: {self.counts[op.key]}")
        self.counts[op.key] = counts
        self.attempted += max(op.equilibria, len(eqs))
        self.failed += max(0, op.equilibria - len(eqs))
        for eq in eqs:
            problems = checks.equilibrium_failures(eq, self.reference.get(eq.key))
            if problems:
                self.failed += 1
                print(f"rejected {self.workload} {op.key} {eq.key}: {'; '.join(problems)}",
                      file=sys.stderr)
        return eqs


def tail(samples):
    """Highest percentile with at least 10 samples beyond it, never below the
    median; the maximum when fewer than 21 samples allow none.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    rank = n - 11                      # 0-based; exactly 10 samples lie above it
    return ordered[rank], 100.0 * (rank + 1) / n, n


def timed_run(args, ops, run):
    """End-to-end run: cycle the deck until the window ends (one pass at least).

    Latency percentiles are taken over the deck's operations, each at the
    median of its repeats, so an operation that happened to run twice in the
    window does not weigh twice.
    """
    walls = [[] for _ in ops]
    cpus = [[] for _ in ops]
    completed = 0
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < args.seconds:
        k = i % len(ops)
        wall, cpu, result = run.execute(ops[k])
        walls[k].append(wall)
        cpus[k].append(cpu)
        completed += len(run.settle(ops[k], result))
        i += 1
    measured = sum(map(sum, walls))
    per_op = [statistics.median(w) for w in walls]
    value, pct, n = tail(per_op)
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "equilibria_per_s": (completed / measured, "1/s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "op_s.tail": (value, "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"operations": i, "deck": len(ops), "passes": i / len(ops),
             "tail_percentile": pct, "tail_samples": n, "measured_s": measured}
    return metrics, notes


def layer_metrics(tracer, equilibria):
    """Per-layer numbers of one traced pass."""
    hot = tracer.hot
    spans = tracer.span_totals()
    tally = tracer.tally

    def calls(name, table=hot):
        return table.get(name, [0, 0.0, 0.0])[0]

    def total(name, table=hot):
        return table.get(name, [0, 0.0, 0.0])[1]

    def own(name, table=spans):
        return table.get(name, [0, 0.0, 0.0])[2]

    iterations = tally["solver.iterations"]
    predictions = calls("solver.predict")
    return {
        "vi.operator_calls": calls("vi.operator"),
        "vi.operator_s": total("vi.operator"),
        "vi.operator_us_per_call": 1e6 * total("vi.operator") / max(1, calls("vi.operator")),
        "vi.evals_per_iter": calls("vi.operator") / max(1, iterations),
        "vi.project_calls": calls("vi.project"),
        "vi.project_s": total("vi.project"),
        "vi.residual_s": total("vi.residual"),
        "vi.build_s": total("vi.build"),
        "vi.fd_check_s": total("vi.fd_check", spans),
        "vi.fd_points": calls("vi.fd_point"),
        "solver.iterations": iterations,
        "solver.beta_retries": tally["solver.beta_retries"],
        "solver.retry_ratio": tally["solver.beta_retries"] / max(1, predictions),
        "solver.solve_calls": calls("solver.solve", spans),
        "solver.solve_s": total("solver.solve", spans),
        "solver.predict_s": total("solver.predict"),
        "solver.correct_s": total("solver.correct"),
        "solver.self_s": own("solver.solve"),
        "solver.best_response_s": total("solver.best_response", spans),
        "solver.best_response_sweeps": tally["solver.best_response_sweeps"],
        "solver.verify_s": total("solver.verify", spans),
        "solver.verify_grid_points": tally["solver.verify_grid_points"],
        "scenarios.rows": tally["scenarios.rows"],
        "scenarios.run_sweep_s": total("scenarios.run_sweep", spans),
        "scenarios.self_s": own("scenarios.run_sweep"),
        "scenarios.zero_iter_rows": tally["scenarios.zero_iter_rows"],
        "scenarios.binding_share": (sum(checks.binds(eq) for eq in equilibria)
                                    / max(1, len(equilibria))),
        "model.expected_utility_calls": calls("model.expected_utility"),
        "model.expected_utility_s": total("model.expected_utility"),
        "cli.main_s": total("cli.main", spans),
        "cli.self_s": own("cli.main"),
    }


def traced_run(args, sg, ops, run):
    """Alternate untraced and traced passes over the deck until the window ends."""
    tracer = tracing.Tracer(sg)
    plain_s = traced_s = 0.0
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        for op in ops:
            wall, _, result = run.execute(op)
            plain_s += wall
            run.settle(op, result)
        tracer.reset()
        results = []
        with tracer.installed():
            for op_id, op in enumerate(ops):
                tracer.op_id = op_id
                wall, _, result = run.execute(op)
                traced_s += wall
                results.append(result)
        equilibria = []
        for op, result in zip(ops, results):
            equilibria += run.settle(op, result)
        layer = layer_metrics(tracer, equilibria)
        if passes and any(layer[k] != passes[0][k] for k in DETERMINISTIC):
            raise BenchmarkError("per-layer counts differ between traced passes")
        passes.append(layer)
    tracer.write(os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.json"),
                 {"workload": args.workload, "seed": args.seed,
                  "environment": program.environment(), "last_pass": passes[-1]})
    metrics = {name: statistics.mean(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    notes = {"traced_passes": len(passes), "untraced_s": plain_s, "traced_s": traced_s}
    return metrics, notes, {k: passes[0][k] for k in DETERMINISTIC}


def main(argv=None):
    args = parse_args(argv)
    try:
        sg, reference, ops = setup(args)
    except (program.ProgramMissing, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.probe_setup:
        print("ready", flush=True)
        return 0

    try:
        setup_s, probes = measure_setup(args)
        run = Run(args.workload, reference)
        if args.trace:
            layer, notes, counts = traced_run(args, sg, ops, run)
            check_repeat(args, "trace", {"pass": counts})
            metrics = {name: (layer[name], unit) for name, unit in PER_LAYER.items()}
            shown = dict(metrics, **{name: (layer[name], "s") for name in LAYER_ONLY_TIMES})
        else:
            metrics, notes = timed_run(args, ops, run)
            metrics["setup_s"] = (setup_s, "s")
            check_repeat(args, "plain", run.counts)
            shown = metrics
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    print(f"environment: {json.dumps(program.environment())}")
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(notes)}")
    print(f"set-up probes (s): {', '.join(f'{t:.4f}' for t in probes)}")
    for name, (value, unit) in sorted(shown.items()):
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(f"  equilibria attempted {run.attempted}, failed {run.failed}, "
          f"fail_ratio {run.failed / max(1, run.attempted):.6g}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
