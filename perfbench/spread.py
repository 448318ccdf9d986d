"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 perfbench/spread.py --workloads solve-mix,certify --seeds 1-10 \
        [--seconds 20] [--trace 0] [--out .perfbench/runs.jsonl]

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance over the median), the figure the benchmark's
bounds are set against.  Raw results are appended to ``--out`` as JSON lines.
Runs are sequential: the benchmark is a single-client closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seed_list, required=True)
    p.add_argument("--seconds", default="20")
    p.add_argument("--trace", default="0")
    p.add_argument("--out")
    args = p.parse_args(argv)

    status = 0
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=False)
            record = {"workload": workload, "seed": seed, "exit": proc.returncode,
                      "elapsed_s": time.perf_counter() - start}
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                record["result"] = json.loads(lines[-1])
                if not record["result"]["correct"]:
                    status = 1
                for name, metric in record["result"]["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            else:
                status = 1
                record["stderr"] = proc.stderr[-4000:]
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:13s} {name:30s} n={len(vals):2d} median={med:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} {units[name]}",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
