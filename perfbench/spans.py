"""Spans and counters around the public functions of each andloc layer.

install() rebinds the layer functions inside the andloc module namespaces to
timing wrappers, so the program's own files stay as they are.  A span's self
time is its duration minus the durations of the spans it encloses; the time
spent inside the wrappers' own bookkeeping (for example reading the fill of
an LU factorization) is excluded from every enclosing span.

parallel.map_ordered counts only the calls that start a process pool, and
its seconds are the pools' lives from start to shutdown.  The tasks they run
are traced in the worker and merged back into the caller's totals, so worker
seconds are summed over processes and can exceed the wall time of the round.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

#: (metric name, unit) of every per-layer metric a traced run reports
LAYER_METRICS = [
    ("anderson.sample_disorder.calls", "count"),
    ("anderson.sample_disorder.s", "s"),
    ("anderson.with_site_value.calls", "count"),
    ("anderson.with_site_value.s", "s"),
    ("anderson.ResolventColumns.calls", "count"),
    ("anderson.ResolventColumns.s", "s"),
    ("anderson.splu.calls", "count"),
    ("anderson.splu.s", "s"),
    ("anderson.lu_fill", "count"),
    ("anderson.column.calls", "count"),
    ("anderson.column.s", "s"),
    ("anderson.lu_solves", "count"),
    ("anderson.column.max_residual", "1"),
    ("anderson.green.calls", "count"),
    ("anderson.green.s", "s"),
    ("anderson.verify_depleted_identity.s", "s"),
    ("anderson.verify_resolvent_expansion.s", "s"),
    ("anderson.verify_schur_diagonal.s", "s"),
    ("moments.estimate_moments.calls", "count"),
    ("moments.estimate_moments.s", "s"),
    ("moments.apriori_integral.s", "s"),
    ("moments.check_drb_conditional.s", "s"),
    ("moments.ceiling_value.s", "s"),
    ("moments.fit_decay.s", "s"),
    ("saw.enumerate_walks.calls", "count"),
    ("saw.enumerate_walks.s", "s"),
    ("saw.endpoints", "count"),
    ("saw.walks", "count"),
    ("parallel.map_ordered.calls", "count"),
    ("parallel.map_ordered.s", "s"),
    ("parallel.pool_starts", "count"),
    ("parallel.tasks", "count"),
    ("cli.self.s", "s"),
]


class Tracer:
    """Per-span call counts and self seconds, plus plain counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        # one [child seconds, excluded seconds] pair per open span
        self._stack: list[list[float]] = []

    def enter(self) -> tuple[list, float]:
        """Open a span; pass what this returns to exit()."""
        frame = [0.0, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def exit(self, name: str, frame: list, t0: float) -> None:
        elapsed = time.perf_counter() - t0 - frame[1]
        self._stack.pop()
        self.calls[name] += 1
        self.seconds[name] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
            self._stack[-1][1] += frame[1]

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result) runs untimed to update counters."""

        def traced(*args, **kwargs):
            frame, t0 = self.enter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    t1 = time.perf_counter()
                    after(result)
                    frame[1] += time.perf_counter() - t1
                return result
            finally:
                self.exit(name, frame, t0)

        return traced

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def merge(self, snap: dict) -> None:
        for key, val in snap["calls"].items():
            self.calls[key] += val
        for key, val in snap["seconds"].items():
            self.seconds[key] += val
        for key, val in snap["counts"].items():
            self.counts[key] += val
        for key, val in snap["maxima"].items():
            self.peak(key, val)

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value; layers a round never reached read 0."""
        values = {}
        for name, _ in LAYER_METRICS:
            if name.endswith(".calls"):
                values[name] = float(self.calls[name[:-len(".calls")]])
            elif name.endswith(".s"):
                values[name] = self.seconds[name[:-len(".s")]]
        splus = self.calls["anderson.splu"]
        values["anderson.lu_fill"] = (self.counts["anderson.lu_nnz"] / splus
                                      if splus else 0.0)
        values["anderson.lu_solves"] = self.counts["anderson.lu_solves"]
        values["anderson.column.max_residual"] = self.maxima["anderson.column.residual"]
        for key in ("saw.endpoints", "saw.walks", "parallel.pool_starts",
                    "parallel.tasks"):
            values[key] = self.counts[key]
        return values


_active: Tracer | None = None
_installed_pid: int | None = None


class _CountingLU:
    """SuperLU stand-in that counts triangular solves."""

    def __init__(self, lu, tracer: Tracer):
        self.lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args):
        self._tracer.counts["anderson.lu_solves"] += 1
        return self.lu.solve(rhs, *args)


class _CountingPool(ProcessPoolExecutor):
    """A pool whose life, from start to shutdown, is the parallel.map_ordered
    span: map_ordered opens exactly one per call that runs in workers."""

    def __init__(self, *args, **kwargs):
        _active.counts["parallel.pool_starts"] += 1
        self._span = _active.enter()
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._span is not None:
                _active.exit("parallel.map_ordered", *self._span)
                self._span = None


def _in_worker(job):
    """Run one map_ordered task; from a pool worker, return its own trace."""
    fn, task = job
    if os.getpid() == _installed_pid:
        return fn(task), None
    tracer = _active if _active is not None else install()
    tracer.reset()
    return fn(task), tracer.snapshot()


def install() -> Tracer:
    """Wrap the layer boundaries of andloc and return the tracer they feed."""
    global _active, _installed_pid
    from andloc import anderson, cli, moments, parallel, saw

    tracer = Tracer()
    modules = (anderson, cli, moments, parallel, saw)

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def function(module, attr: str, name: str, after=None) -> None:
        original = getattr(module, attr)
        rebind(original, tracer.wrap(name, original, after))

    def method(cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))

    def count(key: str, value) -> None:
        tracer.counts[key] += value

    # anderson: disorder (and through it rng), assembly, LU, solves, verifiers
    function(anderson, "sample_disorder", "anderson.sample_disorder")
    method(anderson.DisorderSample, "with_site_value", "anderson.with_site_value")
    method(anderson.ResolventColumns, "__init__", "anderson.ResolventColumns")
    method(anderson.ResolventColumns, "column", "anderson.column",
           after=lambda r: tracer.peak("anderson.column.residual", r[1]))
    splu = anderson.splu

    def counted_splu(matrix, *args, **kwargs):
        return _CountingLU(splu(matrix, *args, **kwargs), tracer)

    rebind(splu, tracer.wrap(
        "anderson.splu", counted_splu,
        after=lambda r: count("anderson.lu_nnz", r.lu.L.nnz + r.lu.U.nnz)))
    for attr in ("green", "verify_depleted_identity", "verify_resolvent_expansion",
                 "verify_schur_diagonal"):
        function(anderson, attr, f"anderson.{attr}")

    # moments: estimator, quadrature, ceilings, decay fit
    for attr in ("estimate_moments", "apriori_integral", "check_drb_conditional",
                 "ceiling_value", "fit_decay"):
        function(moments, attr, f"moments.{attr}")

    # saw: walk tree, endpoint push-forward and series
    def walks(series) -> None:
        count("saw.endpoints", len(series.endpoints))
        count("saw.walks", sum(series.totals[1:]))

    function(saw, "enumerate_walks", "saw.enumerate_walks", after=walks)

    # parallel: pool sections and the tasks run in them; worker traces
    # merge into this one
    map_ordered = parallel.map_ordered

    def traced_map(fn, tasks, workers):
        results = []
        for result, snap in map_ordered(_in_worker, [(fn, t) for t in tasks], workers):
            if snap is not None:
                tracer.merge(snap)
                count("parallel.tasks", 1)
            results.append(result)
        return results

    rebind(map_ordered, traced_map)
    parallel.ProcessPoolExecutor = _CountingPool

    # cli: whatever main does outside the wrapped library calls
    function(cli, "main", "cli.self")

    _active, _installed_pid = tracer, os.getpid()
    return tracer
