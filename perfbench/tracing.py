"""The traced run: wrappers that time calls into secgame's layers from outside.

Each wrapper replaces a public callable *where it is looked up*: ``scenarios``
calls ``solve`` through its own module global, ``solve`` calls ``predict``
and ``correct`` as globals of ``solver``, and a ``ViProblem`` binds
``_assemble`` as its operator when it is built.  ``Tracer.installed()``
swaps the wrappers in and always puts every original back.

Coarse calls (``cli.main``, ``run_sweep``, ``solve``, best response, grid
audit, finite-difference check) record spans: name, start, end, parent span
and operation id.  Hot calls (operator, projection, residual, predict,
correct, expected utility, fd_check, problem build) would produce ~250k
spans per run, so they only add to in-memory counters and timers.  Both kinds
sit on one stack, so each span's self time is its duration minus the time
covered by the spans and timed calls directly beneath it.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


def wrap_points(sg):
    """(owner, attribute, metric name, kind) of every wrapped callable."""
    return [
        (sg.cli, "main", "cli.main", "span"),
        (sg.cli, "run_sweep", "scenarios.run_sweep", "span"),
        (sg.scenarios, "run_sweep", "scenarios.run_sweep", "span"),
        (sg.scenarios, "solve", "solver.solve", "span"),
        (sg.solver, "solve", "solver.solve", "span"),
        (sg.solver, "best_response_solve", "solver.best_response", "span"),
        (sg.solver, "verify_equilibrium", "solver.verify", "span"),
        (sg.vi, "fd_check_random", "vi.fd_check", "span"),
        (sg.vi, "fd_check", "vi.fd_point", "hot"),
        (sg.solver, "predict", "solver.predict", "hot"),
        (sg.solver, "correct", "solver.correct", "hot"),
        (sg.vi.ViProblem, "_assemble", "vi.operator", "hot"),
        (sg.vi.ViProblem, "__init__", "vi.build", "hot"),
        (sg.vi.BoxVi, "project", "vi.project", "hot"),
        (sg.vi.BoxVi, "natural_residual", "vi.residual", "hot"),
        (sg.model.ModelSpec, "expected_utility", "model.expected_utility", "hot"),
    ]


def _raw(owner, name):
    """The attribute as stored on its owner (a plain function for classes)."""
    if isinstance(owner, type):
        return vars(owner)[name]
    return getattr(owner, name)


class Tracer:
    """Spans, hot-call counters and result tallies of one traced stretch."""

    def __init__(self, sg):
        self._sg = sg
        self.op_id = 0
        self.reset()

    def reset(self):
        self.spans = []          # [op, id, parent, name, start, end, self]
        self.hot = {}            # name -> [calls, inclusive s, self s]
        self.tally = {"solver.iterations": 0, "solver.beta_retries": 0,
                      "solver.best_response_sweeps": 0, "solver.verify_grid_points": 0,
                      "scenarios.rows": 0, "scenarios.zero_iter_rows": 0}
        self._stack = []         # [child time, span id or None]

    def _enter(self):
        self._stack.append([0.0, None])
        return _clock()

    def _leave(self, start):
        """Pop a frame; returns (end, self time)."""
        end = _clock()
        child, _ = self._stack.pop()
        if self._stack:
            self._stack[-1][0] += end - start
        return end, end - start - child

    def _hot(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                end, own = self._leave(start)
                rec = self.hot.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += end - start
                rec[2] += own
        return wrapper

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            start = self._enter()
            span_id = len(self.spans)
            self._stack[-1][1] = span_id
            self.spans.append([self.op_id, span_id, parent, name, 0.0, 0.0, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end, own = self._leave(start)
                self.spans[span_id][4:] = [start, end, own]
            self._count(name, args, kwargs, result)
            return result
        return wrapper

    def _count(self, name, args, kwargs, result):
        tally = self.tally
        if name == "solver.solve":
            tally["solver.iterations"] += result.iterations
            tally["solver.beta_retries"] += result.beta_retries
        elif name == "solver.best_response":
            tally["solver.best_response_sweeps"] += result.iterations
        elif name == "solver.verify":
            model = args[0]
            density = kwargs.get("grid_density", args[2] if len(args) > 2 else 50)
            refinements = kwargs.get("refinements", args[4] if len(args) > 4 else 2)
            tally["solver.verify_grid_points"] += (
                model.m * (refinements + 1) * density ** (model.n + 1))
        elif name == "scenarios.run_sweep":
            tally["scenarios.rows"] += len(result.rows)
            tally["scenarios.zero_iter_rows"] += sum(r.iterations == 0 for r in result.rows)

    @contextmanager
    def installed(self):
        """Swap every wrapper in; restore every original on exit."""
        saved = []
        try:
            for owner, attr, name, kind in wrap_points(self._sg):
                original = _raw(owner, attr)
                saved.append((owner, attr, original))
                make = self._span if kind == "span" else self._hot
                setattr(owner, attr, make(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- per-layer metrics ------------------------------------------------

    def span_totals(self):
        """name -> [calls, total s, self s] over the recorded spans."""
        out = {}
        for _, _, _, name, start, end, own in self.spans:
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += end - start
            rec[2] += own
        return out

    def write(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=self.spans, hot=self.hot, tally=self.tally), fh)
