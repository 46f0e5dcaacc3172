"""Span tracing around repro's public entry points, installed from outside.

Nothing in ``src/`` is instrumented for the benchmark.  Instead
:func:`install` replaces each layer's public entry point with a wrapper
that records one span per call (start, end, parent span, a few counts)
in the memory of the process that made the call:

==============  ============================================================
layer           entry points
==============  ============================================================
``uarch``       ``simulate_benchmark`` (the workload stream is consumed
                lazily inside it, so ``workloads`` time lands here)
``core``        ``run_control_experiment``; ``WaveletVoltageEstimator``
                construction (the scale-factor calibration)
``scenarios``   ``compile_scenario``
``power``       ``ConvolutionVoltageSimulator.voltage``
``kernels``     every callable ``get_kernel`` returns (``wavelets`` and
                ``stats`` work runs inside these)
``cache``       ``ResultCache.get`` / ``ResultCache.put``
``store``       ``TraceRef.resolve`` (mmap attach) / ``TraceStore.ingest``
``pipeline``    ``submit`` and ``execute_job`` (which runs blocks too)
``serve``       ``protocol.parse_request`` (server side)
==============  ============================================================

Functions are replaced wherever a loaded ``repro`` module bound them
(``from x import f`` copies the reference), methods on their class.

Pool workers are forked, so they inherit the wrappers.  Each worker
starts with an empty span list and writes it to ``spans-<pid>.json`` in
the spans directory when it exits; :meth:`Tracer.collect` merges those
files with the calling process's own spans.  All times are
``time.perf_counter()`` readings, which on Linux come from the
system-wide monotonic clock, so spans of different processes share one
time axis.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

__all__ = ["Span", "Tracer", "install", "layer_metrics", "union_length"]

#: Span kinds and the layer each belongs to.
LAYER_OF = {
    "uarch.simulate": "uarch",
    "core.control": "core.control",
    "core.calibrate": "core.calibrate",
    "scenarios.compile": "scenarios",
    "power.voltage": "power",
    "kernels.call": "kernels",
    "cache.get": "cache",
    "cache.put": "cache",
    "store.attach": "store",
    "store.ingest": "store",
    # a job runs inside an inline submit: keep the two apart
    "pipeline.submit": "pipeline.submit",
    "pipeline.job": "pipeline.job",
    "serve.parse": "serve",
}


class Span:
    """One recorded call: ``kind``, process, start/end, parent, counts."""

    __slots__ = ("kind", "pid", "t0", "t1", "index", "parent", "attrs")

    def __init__(self, kind, pid, t0, t1, index, parent, attrs) -> None:
        self.kind = kind
        self.pid = pid
        self.t0 = t0
        self.t1 = t1
        self.index = index
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Per-process span recorder; survives ``fork`` into pool workers."""

    def __init__(self, spans_dir: str | Path) -> None:
        self.spans_dir = Path(spans_dir)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.active = True
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.rows: list[list] = []
        self._local = threading.local()

    def _after_fork(self) -> None:
        # A forked pool worker: forget the parent's spans and write this
        # worker's own when multiprocessing runs its exit finalizers.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, kind: str, func, measure=None):
        """``func`` recording a ``kind`` span per call while active.

        ``measure(args, kwargs, result)`` returns the span's count
        attributes; it runs only when the call returned.
        """
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack = tracer._stack()
            row = [kind, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.rows))
            tracer.rows.append(row)
            try:
                result = func(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                row[4] = measure(args, kwargs, result)
            return result

        return traced

    # -- output ----------------------------------------------------------------

    def flush(self) -> None:
        """Write this process's spans to ``spans-<pid>.json`` (if any)."""
        if not self.rows:
            return
        path = self.spans_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": self.pid, "rows": self.rows}, fh)
        os.replace(tmp, path)

    def collect(self) -> list[Span]:
        """This process's spans plus every flushed worker's."""
        by_pid = {self.pid: self.rows}
        for path in sorted(self.spans_dir.glob("spans-*.json")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if doc["pid"] != self.pid:
                by_pid[doc["pid"]] = doc["rows"]
        return [
            Span(row[0], pid, row[1], row[2], index, row[3], row[4] or {})
            for pid, rows in by_pid.items()
            for index, row in enumerate(rows)
        ]


# -- what each entry point counts ----------------------------------------------


def _simulated_cycles(args, kwargs, result):
    warmup = kwargs.get("warmup_cycles", args[5] if len(args) > 5 else 4096)
    return {"cycles": int(len(result.current) + warmup)}


def _voltage_samples(args, kwargs, result):
    return {"samples": int(np.asarray(args[1]).size)}


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    fields = getattr(value, "__dict__", None)
    if fields:
        return sum(
            v.nbytes for v in fields.values() if isinstance(v, np.ndarray)
        )
    return 0


def _kernel_counts(args, kwargs, result):
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    samples = arrays[0].size if arrays else 0
    moved = sum(a.nbytes for a in arrays) + _array_bytes(result)
    return {"samples": int(samples), "bytes": int(moved)}


def _cache_hit(args, kwargs, result):
    return {"hit": int(bool(result[0]))}


def _written_bytes(args, kwargs, result):
    try:
        return {"bytes": int(Path(result).stat().st_size)}
    except OSError:
        return {"bytes": 0}


def _attached_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _ingested_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _batch_counts(args, kwargs, result):
    return {
        "jobs": len(result.outcomes),
        "workers": int(result.workers),
        "retries": int(result.retries),
        "failed": len(result.errors),
    }


def _job_counts(args, kwargs, result):
    spec = args[0]
    if getattr(spec, "is_block", False):
        return {"block": 1, "members": len(spec.members)}
    return {"block": 0, "members": 1}


def _replace_function(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded repro module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(spans_dir: str | Path) -> Tracer:
    """Wrap every traced entry point; returns the process's tracer."""
    # Import every module that binds an entry point before rebinding.
    import repro.cli  # noqa: F401
    import repro.kernels as kernels
    import repro.pipeline.blocks  # noqa: F401
    import repro.pipeline.executor as executor
    import repro.pipeline.stages  # noqa: F401
    import repro.pipeline.supervisor  # noqa: F401
    import repro.scenarios as scenarios
    import repro.serve.protocol as protocol
    import repro.serve.server  # noqa: F401
    import repro.uarch as uarch
    from repro.core import WaveletVoltageEstimator, run_control_experiment
    from repro.pipeline import submit
    from repro.pipeline.cache import ResultCache
    from repro.power import ConvolutionVoltageSimulator
    from repro.store import TraceRef, TraceStore

    tracer = Tracer(spans_dir)
    functions = [
        ("uarch.simulate", uarch.simulate_benchmark, _simulated_cycles),
        ("core.control", run_control_experiment, None),
        ("scenarios.compile", scenarios.compile_scenario, None),
        ("pipeline.submit", submit, _batch_counts),
        ("pipeline.job", executor.execute_job, _job_counts),
        ("serve.parse", protocol.parse_request, None),
    ]
    for kind, func, measure in functions:
        _replace_function(func, tracer.wrap(kind, func, measure))

    get_kernel = kernels.get_kernel

    @functools.wraps(get_kernel)
    def traced_get_kernel(name, backend=None):
        return tracer.wrap("kernels.call", get_kernel(name, backend), _kernel_counts)

    _replace_function(get_kernel, traced_get_kernel)

    methods = [
        (WaveletVoltageEstimator, "__init__", "core.calibrate", None),
        (ConvolutionVoltageSimulator, "voltage", "power.voltage", _voltage_samples),
        (ResultCache, "get", "cache.get", _cache_hit),
        (ResultCache, "put", "cache.put", _written_bytes),
        (TraceRef, "resolve", "store.attach", _attached_bytes),
        (TraceStore, "ingest", "store.ingest", _ingested_bytes),
    ]
    for owner, attr, kind, measure in methods:
        setattr(owner, attr, tracer.wrap(kind, getattr(owner, attr), measure))
    return tracer


# -- per-layer metrics ---------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _outermost(spans: list[Span], by_key: dict) -> list[Span]:
    """Spans with no ancestor of the same layer (no double counting)."""
    kept = []
    for span in spans:
        layer = LAYER_OF[span.kind]
        parent = span.parent
        nested = False
        while parent >= 0:
            ancestor = by_key[(span.pid, parent)]
            if LAYER_OF[ancestor.kind] == layer:
                nested = True
                break
            parent = ancestor.parent
        if not nested:
            kept.append(span)
    return kept


def layer_metrics(spans: list[Span], window: tuple[float, float]) -> dict:
    """Every traced per-layer metric over spans starting inside ``window``.

    ``core.calibrate.*`` covers every span regardless of the window: the
    calibration runs during set-up, which is what it should move.
    """
    by_key = {(s.pid, s.index): s for s in spans}
    lo, hi = window
    inside = _outermost([s for s in spans if lo <= s.t0 <= hi], by_key)
    of = {}
    for span in inside:
        of.setdefault(span.kind, []).append(span)
    calibrations = _outermost(
        [s for s in spans if s.kind == "core.calibrate"], by_key
    )

    def busy(kind_spans) -> float:
        return float(sum(s.duration for s in kind_spans))

    def total(kind_spans, attr) -> int:
        return int(sum(s.attrs.get(attr, 0) for s in kind_spans))

    sims = of.get("uarch.simulate", [])
    cycles = total(sims, "cycles")
    kernel_calls = of.get("kernels.call", [])
    reads = of.get("cache.get", [])
    writes = of.get("cache.put", [])
    attaches = of.get("store.attach", [])
    ingests = of.get("store.ingest", [])
    submits = of.get("pipeline.submit", [])
    jobs = of.get("pipeline.job", [])
    hits = total(reads, "hit")

    # pipeline self time: a submit's wall time no job span (any process)
    # covers, plus each job's time not covered by its in-process children
    children: dict[tuple, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault((span.pid, span.parent), []).append(span)
    self_s = 0.0
    capacity = 0.0
    job_time = 0.0
    for sub in submits:
        # its inline jobs are its children; pool jobs run in other
        # processes while it waits
        covered = [
            (max(j.t0, sub.t0), min(j.t1, sub.t1))
            for j in jobs
            if (j.pid == sub.pid and j.parent == sub.index)
            or (j.pid != sub.pid and j.t1 > sub.t0 and j.t0 < sub.t1)
        ]
        self_s += sub.duration - union_length(covered)
        capacity += sub.duration * max(1, sub.attrs.get("workers", 1))
        job_time += sum(hi_ - lo_ for lo_, hi_ in covered)
    for job in jobs:
        kids = children.get((job.pid, job.index), [])
        self_s += job.duration - union_length((k.t0, k.t1) for k in kids)

    return {
        "uarch.calls": len(sims),
        "uarch.cycles": cycles,
        "uarch.busy_s": busy(sims),
        "uarch.us_per_cycle": busy(sims) / cycles * 1e6 if cycles else 0.0,
        "core.control.calls": len(of.get("core.control", [])),
        "core.control.busy_s": busy(of.get("core.control", [])),
        "core.calibrate.calls": len(calibrations),
        "core.calibrate.busy_s": busy(calibrations),
        "scenarios.calls": len(of.get("scenarios.compile", [])),
        "scenarios.busy_s": busy(of.get("scenarios.compile", [])),
        "power.voltage.calls": len(of.get("power.voltage", [])),
        "power.voltage.samples": total(of.get("power.voltage", []), "samples"),
        "power.voltage.busy_s": busy(of.get("power.voltage", [])),
        "kernels.calls": len(kernel_calls),
        "kernels.samples": total(kernel_calls, "samples"),
        "kernels.busy_s": busy(kernel_calls),
        "kernels.bytes_computed": total(kernel_calls, "bytes"),
        "cache.reads": len(reads),
        "cache.hits": hits,
        "cache.hit_ratio": hits / len(reads) if reads else 0.0,
        "cache.read_s": busy(reads),
        "cache.writes": len(writes),
        "cache.write_bytes": total(writes, "bytes"),
        "cache.write_s": busy(writes),
        "store.attach.calls": len(attaches),
        "store.attach.bytes": total(attaches, "bytes"),
        "store.attach_s": busy(attaches),
        "store.ingest.calls": len(ingests),
        "store.ingest.bytes": total(ingests, "bytes"),
        "store.ingest_s": busy(ingests),
        "pipeline.jobs": total(submits, "jobs"),
        "pipeline.blocks": total(jobs, "block"),
        "pipeline.retries": total(submits, "retries"),
        "pipeline.failed": total(submits, "failed"),
        "pipeline.self_s": self_s,
        "pipeline.worker_util": job_time / capacity if capacity else 0.0,
        "serve.parse_s": busy(of.get("serve.parse", [])),
    }
