"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import checks
import program
import run
import tracing
import workloads as wl

SG = program.load()
REFERENCE = run.load_reference()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_move_with_it(workload):
    assert wl.draw_inputs(workload, 7) == wl.draw_inputs(workload, 7)
    assert any(wl.draw_inputs(workload, 7) != wl.draw_inputs(workload, s)
               for s in range(8, 12))


def test_decks_stay_inside_the_stored_references():
    for seed in range(20):
        for idx in wl.draw_inputs("solve-mix", seed):
            assert f"pool{idx}" in REFERENCE["solve-mix"]
        for idx, _ in wl.draw_inputs("certify", seed):
            assert f"pool{idx}" in REFERENCE["certify"]
    assert sorted(REFERENCE["budget-sweep"], key=float) == wl.budget_values()
    assert sorted(REFERENCE["loss-sweep"], key=float) == wl.loss_values()


def test_pools_match_the_reference_file():
    for name, pool in (("solve-mix", wl.solve_mix_pool()), ("certify", wl.certify_pool())):
        assert [tuple(REFERENCE[name][f"pool{i}"]["shares"]) for i in range(len(pool))] == pool


def test_wrappers_restore_the_originals_even_on_error():
    points = tracing.wrap_points(SG)
    originals = [tracing._raw(owner, attr) for owner, attr, _, _ in points]
    tracer = tracing.Tracer(SG)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(tracing._raw(owner, attr) is not orig
                       for (owner, attr, _, _), orig in zip(points, originals))
            raise RuntimeError("boom")
    assert all(tracing._raw(owner, attr) is orig
               for (owner, attr, _, _), orig in zip(points, originals))


def test_checks_reject_a_moved_equilibrium():
    model = SG.scenarios.experiment1().model
    ref = REFERENCE["certify"]["pool0"]
    Q, u, lam = (np.array(ref[k]) for k in ("Q", "u", "lam"))
    assert checks.kkt_violations(model, Q, u, lam) == []
    assert checks.kkt_violations(model, Q + 1e-3, u, lam)
    assert checks.kkt_violations(model, Q, u - 1e-4, lam)
    moved = wl.Equilibrium("pool0", model, Q, u * (1 - 1e-5), lam)
    assert checks.reference_violations(moved, ref)


def test_checks_reject_an_overspent_budget():
    model = SG.scenarios.experiment1().model
    ref = REFERENCE["budget-sweep"]["3.000000"]
    Q, u, lam = (np.array(ref[k]) for k in ("Q", "u", "lam"))
    assert lam[0] > 0
    bound = replace(model, retailers=(replace(model.retailers[0], B=3.0),
                                      model.retailers[1]))
    assert checks.kkt_violations(bound, Q, u, lam) == []
    assert any("budget" in p or "lambda" in p
               for p in checks.kkt_violations(bound, Q, u * 1.0001, lam))


def test_tail_is_never_below_the_median():
    assert run.tail(list(range(5))) == (4, 100.0, 5)
    value, pct, n = run.tail(list(range(100)))
    assert (value, n) == (89, 100) and pct == 90.0
    assert run.tail(list(range(21)))[0] >= 10


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_one_traced_operation_per_workload(workload, tmp_path):
    ops = wl.build_ops(SG, workload, 3, str(tmp_path), REFERENCE)
    op = min(ops, key=lambda o: o.key)
    bench = run.Run(workload, REFERENCE)
    tracer = tracing.Tracer(SG)
    with tracer.installed():
        _, _, result = bench.execute(op)
    bench.settle(op, result)
    assert (bench.attempted, bench.failed) == (op.equilibria, 0)
    layer = run.layer_metrics(tracer, [])
    assert layer["solver.iterations"] > 0 and layer["vi.operator_calls"] > 0
