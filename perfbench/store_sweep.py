"""``store-sweep``: a design-space sweep over a stored trace corpus.

Set-up simulates a few fixed workload segments, composes them into a
corpus of long traces (segment choice, rotation and gain drawn from the
run seed; the first ``FIDELITY_TRACES`` traces use a fixed draw) and
ingests it into a :class:`~repro.store.TraceStore`.  Each lap of the
measured window is one ``submit`` of ``build_store_jobs`` for every
impedance x threshold design point, on the ``batched`` kernel backend
with block dispatch and no result cache, so every lap recomputes: zero
simulation, the time goes to the kernels, the voltage convolution, the
mmap attach and the pipeline's dispatch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .common import WORKERS, Outcome, median, percentile

NAME = "store-sweep"
BACKEND = "batched"

#: Fixed set-up segments: (benchmark, stream seed).
SEGMENTS = (("gzip", 301), ("mcf", 302), ("swim", 303), ("mgrid", 304))
SEGMENT_CYCLES = 4096
SEGMENT_WARMUP = 512
PARTS_PER_TRACE = 8
TRACE_CYCLES = SEGMENT_CYCLES * PARTS_PER_TRACE
CORPUS_TRACES = 48
#: Traces composed from a fixed draw, so prediction_rms_pct is the same
#: for every run seed.
FIDELITY_TRACES = 8
FIDELITY_POINT = (150.0, 0.97)

IMPEDANCES = (125.0, 150.0, 200.0)
THRESHOLDS = (0.96, 0.97, 0.98)
#: Results per run recomputed per trace on the vectorized backend.
RECHECK_SAMPLES = 12

L2_BYTES = 4 * 2**20
L3_BYTES = 300 * 2**20


def compose_trace(segments: list, rng: np.random.Generator) -> np.ndarray:
    """One corpus trace: rotated, gain-scaled segments back to back."""
    parts = []
    for _ in range(PARTS_PER_TRACE):
        segment = segments[int(rng.integers(len(segments)))]
        shifted = np.roll(segment, int(rng.integers(segment.size)))
        parts.append(shifted * rng.uniform(0.8, 1.2))
    return np.concatenate(parts)


@dataclass
class Pass:
    window: tuple[float, float]
    wall_s: float
    laps: list = field(default_factory=list)  # BatchResult per lap
    lap_s: list = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        """Per job: its stage times in the worker (block share included)."""
        return [sum(o.timings.values()) for batch in self.laps for o in batch.outcomes]


def lap_results(batch) -> dict:
    """``(impedance, threshold, trace_id) -> (estimated, observed)``."""
    results = {}
    for o in batch.outcomes:
        if o.ok:
            key = (o.spec.impedance, o.spec.threshold, o.spec.resolve_trace_ref().trace_id)
            results[key] = (o.artifacts["characterize"]["estimated"],
                            o.artifacts["voltage"]["observed"])
    return results


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.backend = BACKEND

    def setup(self) -> None:
        from repro.core import calibrated_supply
        from repro.kernels import KernelConfig
        from repro.pipeline import BatchOptions, JobSpec, StageContext, submit
        from repro.store import TraceStore
        from repro.uarch import simulate_benchmark

        self.networks = {pct: calibrated_supply(pct) for pct in IMPEDANCES}
        for network in self.networks.values():
            StageContext(JobSpec.make("corpus", network=network)).estimator
        segments = [
            simulate_benchmark(name, cycles=SEGMENT_CYCLES, seed=seed,
                               warmup_cycles=SEGMENT_WARMUP).current
            for name, seed in SEGMENTS
        ]
        self.store = TraceStore(self.workdir / "store", mode="a")
        fixed = np.random.default_rng(0)
        drawn = np.random.default_rng([self.seed, 13])
        self.records = []
        for k in range(CORPUS_TRACES):
            rng = fixed if k < FIDELITY_TRACES else drawn
            trace = compose_trace(segments, rng)
            self.records.append(self.store.ingest(trace, f"corpus-{k:02d}"))
        self.fidelity_ids = {r.trace_id for r in self.records[:FIDELITY_TRACES]}
        self.options = BatchOptions(jobs=WORKERS, kernels=KernelConfig(backend=BACKEND),
                                    raise_on_error=False)
        # one design point through the pool: lazy imports and first-use
        # set-up happen here, not in the first measured lap
        submit(self.design_jobs(((IMPEDANCES[0], THRESHOLDS[0]),)), self.options)

    def close(self) -> None:
        pass

    def design_jobs(self, points) -> list:
        from repro.pipeline import build_store_jobs

        specs = []
        for pct, threshold in points:
            specs += build_store_jobs(self.store, self.networks[pct],
                                      threshold=threshold, impedance=pct)
        return specs

    def measure(self, seconds: float, traced: bool = False) -> Pass:
        from repro.pipeline import submit

        points = [(pct, th) for pct in IMPEDANCES for th in THRESHOLDS]
        rng = np.random.default_rng([self.seed, 17])
        laps, lap_s = [], []
        t0 = time.perf_counter()
        while True:
            order = [points[i] for i in rng.permutation(len(points))]
            specs = self.design_jobs(order)
            t_submit = time.perf_counter()
            laps.append(submit(specs, self.options))
            lap_s.append(time.perf_counter() - t_submit)
            if time.perf_counter() - t0 >= seconds:
                break
        t1 = time.perf_counter()
        return Pass(window=(t0, t1), wall_s=t1 - t0, laps=laps, lap_s=lap_s)

    def recompute(self, keys) -> dict:
        """Per-trace vectorized results for ``keys``, no blocks, inline."""
        from repro.kernels import KernelConfig
        from repro.pipeline import BatchOptions, build_store_jobs, submit

        options = BatchOptions(jobs=1, block="never", kernels=KernelConfig(backend="vectorized"))
        expected = {}
        for pct, threshold, trace_id in keys:
            specs = build_store_jobs(self.store, self.networks[pct], trace_ids=[trace_id],
                                     threshold=threshold, impedance=pct)
            expected.update(lap_results(submit(specs, options)))
        return expected

    def evaluate(self, p: Pass, outcome: Outcome) -> None:
        laps = [lap_results(batch) for batch in p.laps]
        jobs = sum(len(batch.outcomes) for batch in p.laps)
        errors = sum(len(batch.errors) for batch in p.laps)
        for batch in p.laps:
            for o in batch.outcomes:
                outcome.check(o.ok, f"store-sweep: job {o.spec.label} failed")
                outcome.check(o.spec.stages[0] == "load_trace",
                              f"store-sweep: job {o.spec.label} simulates")
                if o.ok:
                    outcome.extend(checks.check_fractions(o.spec.label, o.artifacts))
        outcome.extend(checks.check_laps_identical(laps))
        keys = sorted(laps[0])
        rng = np.random.default_rng([self.seed, 19])
        sample = [keys[i] for i in rng.choice(len(keys), size=min(RECHECK_SAMPLES, len(keys)),
                                              replace=False)]
        expected = self.recompute(sample)
        outcome.extend(checks.check_predictions_close(laps[-1], expected))

        errors_rms = [
            est - obs for (pct, th, tid), (est, obs) in laps[0].items()
            if (pct, th) == FIDELITY_POINT and tid in self.fidelity_ids
        ]
        corpus_bytes = sum(r.nbytes for r in self.records)
        # the median lap rate: a stall of the shared host during one lap
        # moves it less than the mean over the window
        lap_rate = median(
            (len(batch.outcomes) - len(batch.errors)) / t for batch, t in zip(p.laps, p.lap_s)
        )
        outcome.attempted += jobs
        outcome.failed += errors
        outcome.metrics.update(
            {
                "throughput_ops_per_s": lap_rate,
                "cycles_per_s": lap_rate * TRACE_CYCLES,
                "latency_p50_s": percentile(p.latencies, 50),
                "latency_p90_s": percentile(p.latencies, 90),
                "prediction_rms_pct": float(np.sqrt(np.mean(np.square(errors_rms))) * 100),
            }
        )
        outcome.sizes.update(
            {
                "laps": len(p.laps),
                "jobs": jobs,
                "design_points": len(IMPEDANCES) * len(THRESHOLDS),
                "corpus_traces": CORPUS_TRACES,
                "trace_cycles": TRACE_CYCLES,
                "corpus_bytes": corpus_bytes,
                "corpus_vs_L2": corpus_bytes / L2_BYTES,
                "corpus_vs_L3": corpus_bytes / L3_BYTES,
                "latency_samples": len(p.latencies),
                "rechecked_results": len(sample),
                "lap_s": [round(t, 4) for t in p.lap_s],
                "measured_s": p.wall_s,
            }
        )

    def layer_checks(self, layers: dict, outcome: Outcome) -> None:
        outcome.check(layers["uarch.calls"] == 0,
                      f"store-sweep: traced uarch.calls = {layers['uarch.calls']}, expected 0")

    def layer_extras(self, p: Pass) -> dict:
        return {}

    def share_lines(self, layers: dict, p: Pass) -> list[str]:
        capacity = p.wall_s * WORKERS
        parts = {
            "kernels": layers["kernels.busy_s"],
            "power": layers["power.voltage.busy_s"],
            "store": layers["store.attach_s"],
            "pipeline.self": layers["pipeline.self_s"],
        }
        share = sum(parts.values()) / capacity
        verdict = "confirmed" if share > 0.5 else "NOT confirmed"
        return [
            f"share of worker time ({capacity:.1f} s): "
            + ", ".join(f"{k} {v / capacity:.1%}" for k, v in parts.items()),
            f"predicted share: kernels+power+store+pipeline are most of store-sweep "
            f"({share:.1%}): {verdict}",
        ]
