"""Spans recorded around the calls one nskwave layer makes into another.

The tracer replaces a module attribute or a class method with a wrapper
that records a span (name, start, end, parent, items) and calls the
original; ``remove`` puts every original back.  Nothing in the package is
edited: each wrapped name is the one a caller looks up at call time, such
as ``nskwave.solver._shift_rate`` inside ``_step_core`` or
``RarefactionWave.eval`` on any instance.  Spans stay in memory until the
benchmark writes them out.
"""
from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    """Span recorder for the set-up or one traced round; patches only while
    installed by ``instrument`` and until ``remove``."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, items]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name, items):
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), 0.0, parent, items])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name, items=0):
        """Span around a call the benchmark itself makes."""
        index = self._open(name, items)
        try:
            yield
        finally:
            self._close(index)

    def traced(self, name, fn, items=None):
        """``fn`` wrapped in a span; ``items(args, kwargs)`` sizes the call."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name, items(args, kwargs) if items else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def patch(self, owner, attr, name, items=None, body=None):
        """Replace ``owner.attr`` (a module function or a class method) by a
        span around ``body(original)``, or around the original itself."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.traced(name, body(original) if body else original, items))

    def remove(self):
        """Restore every patched attribute, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _size(position):
    """Items of a call: the number of points in its ``position``-th argument."""
    def items(args, kwargs):
        return int(getattr(args[position], "size", 1))
    return items


def instrument(tracer: Tracer):
    """Wrap every layer boundary of nskwave that the workloads cross."""
    from nskwave import cli, composite, solver
    from nskwave.composite import CompositeWave
    from nskwave.rarefaction import RarefactionWave
    from nskwave.shockprofile import ShockProfile

    # the names run() and _step_core look up in nskwave.solver
    tracer.patch(solver, "_step_core", "solver.step")
    tracer.patch(solver, "_rhs_arrays", "solver.rhs")
    tracer.patch(solver, "_shift_rate", "solver.shift_rate")
    tracer.patch(solver, "parabolic_dt", "solver.parabolic_dt")
    tracer.patch(solver, "collect_record", "diagnostics.collect_record")
    tracer.patch(solver, "build_composite", "solver.build_composite")
    tracer.patch(solver, "solve_profile", "shockprofile.solve_profile")
    # wave evaluation, whoever the caller
    tracer.patch(RarefactionWave, "eval", "rarefaction.eval", items=_size(2))
    tracer.patch(ShockProfile, "volume", "shockprofile.volume", items=_size(1))
    tracer.patch(CompositeWave, "eval_bar", "composite.eval_bar", items=_size(2))
    tracer.patch(CompositeWave, "interaction_norms", "composite.interaction_norms")

    # the quadrature calls back into the composite layer for its integrand
    def quadrature(original):
        def adaptive_simpson(f, breakpoints, *args, **kwargs):
            integrand = tracer.traced("composite.integrand", f, items=_size(0))
            return original(integrand, breakpoints, *args, **kwargs)
        return adaptive_simpson
    tracer.patch(composite, "adaptive_simpson", "quadrature.adaptive_simpson", body=quadrature)
    # output: formatting in write_csv / write_ndjson, the file write below them
    tracer.patch(cli, "write_csv", "cli.write_csv")
    tracer.patch(cli, "write_ndjson", "cli.write_ndjson")
    tracer.patch(cli, "_write_atomic", "cli.write_file",
                 items=lambda args, kwargs: len(args[1].encode()))


def layer_table(spans) -> dict:
    """name -> {calls, items, total_s, self_s, durations_s} over ``spans``.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            child_time[parent] += end - start
    table: dict = {}
    for i, (name, start, end, _, items) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "items": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations_s": []})
        row["calls"] += 1
        row["items"] += items
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["durations_s"].append(end - start)
    return table


def median_duration(table, name) -> float:
    row = table.get(name)
    return statistics.median(row["durations_s"]) if row else 0.0
