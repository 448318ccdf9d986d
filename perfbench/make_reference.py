"""Regenerate reference.json: the stored equilibria every run is compared with.

Each entry is a cold solve at tol 1e-10 (tighter than any workload uses) of
one pool draw or lattice value.  Run from the checkout root:

    python3 perfbench/make_reference.py

Regenerate only when a deliberate model change moves the equilibria; the
benchmark's reference check exists to catch changes that are not deliberate.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import program
import workloads as wl

REFERENCE_TOL = 1e-10
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def _solve(sg, model):
    config = sg.solver.SolverConfig(tol=REFERENCE_TOL, max_iter=5_000_000)
    problem = sg.vi.ViProblem(model)
    report = sg.solver.solve(problem, config)
    if not report.converged:
        raise RuntimeError("reference solve did not converge")
    point = problem.split(report.solution)
    eu = [model.expected_utility(x, point.Q, point.u) for x in range(model.m)]
    return {"Q": point.Q.tolist(), "u": point.u.tolist(), "lam": point.lam.tolist(),
            "eu": eu, "iterations": report.iterations}


def _with_retailer1(model, **fields):
    retailers = list(model.retailers)
    retailers[0] = replace(retailers[0], **fields)
    return replace(model, retailers=tuple(retailers))


def main():
    sg = program.load()
    exp1 = sg.scenarios.experiment1().model
    ref = {"tolerance": REFERENCE_TOL}
    ref["solve-mix"] = {
        f"pool{i}": dict(shares=list(s), **_solve(sg, sg.scenarios.experiment_model(s)))
        for i, s in enumerate(wl.solve_mix_pool())}
    ref["certify"] = {
        f"pool{i}": dict(shares=list(s), **_solve(sg, sg.scenarios.experiment_model(s)))
        for i, s in enumerate(wl.certify_pool())}
    ref["budget-sweep"] = {v: _solve(sg, _with_retailer1(exp1, B=float(v)))
                           for v in wl.budget_values()}
    ref["loss-sweep"] = {v: _solve(sg, _with_retailer1(exp1, D=float(v)))
                         for v in wl.loss_values()}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
