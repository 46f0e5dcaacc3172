"""``eval-cold``: the paper's evaluation as a fresh sweep.

Every round is one ``submit`` of §4 characterization jobs
(``simulate → voltage → characterize``), a §5 control pair (the
``wavelet`` and ``damping`` schemes on one benchmark) and one composed
stress scenario, against an empty result cache with two pool workers.
Round 0 is the fidelity sweep: all 26 SPEC2000 models at a fixed stream
seed, which gives the deterministic ``prediction_rms_pct``.  Later
rounds draw (benchmark, stream seed) pairs from the reference pool in a
seeded order; every pair is used once per run, so neither the result
cache nor the in-process simulation memo ever hits.  A run that uses up
the pool ends there, before its measured seconds, so every
characterization job is checked against the reference.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .common import WORKERS, Outcome, percentile

NAME = "eval-cold"
IMPEDANCE = 150.0

CHAR_CYCLES = 4096
CHAR_WARMUP = 1024
#: Stream seed of the fidelity round (round 0).
FIDELITY_SEED = 1
#: Stream seeds of the reference pool: (benchmark, seed) pairs whose
#: integer run statistics are recorded in ``reference_stats.json``.
#: 26 models x 60 seeds cover about 25 times the characterization jobs
#: a 10 s run completes on a 2-vCPU Xeon host.
POOL_SEEDS = tuple(range(101, 161))
CHAR_PER_ROUND = 10

CONTROL_CYCLES = 2048
CONTROL_WARMUP = 1024
#: Control benchmarks of similar closed-loop cost; mgrid, vortex and
#: apsi raise emergencies uncontrolled, so the emergency check bites.
CONTROL_BENCHMARKS = (
    "mgrid", "vortex", "apsi", "gzip", "gcc",
    "crafty", "parser", "eon", "wupwise", "galgel",
)
CONTROL_PARAMS = {
    "wavelet": {"terms": 13, "margin": 0.012},
    "damping": {"damping_delta": 6.0, "damping_window": 8},
}

SCENARIO_CYCLES = 2048
SCENARIO_WARMUP = 512
#: Scenarios whose cores share no atom stream (no memo hits inside one).
SCENARIOS = ("quad-core-dvfs", "memory-storm", "dual-core-aligned", "burst-train")
SCENARIO_SEED_BASE = 500_000

REFERENCE_PATH = Path(__file__).with_name("reference_stats.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def stats_key(benchmark: str, seed: int) -> str:
    return f"{benchmark}/{seed}"


def run_statistics(stats) -> dict:
    """The integer fields of a ``RunStatistics`` the reference pins."""
    return {name: int(getattr(stats, name)) for name in checks.STAT_FIELDS}


def schedule_cycles(node, cycles: int, warmup: int) -> int:
    """Machine cycles ``compile_schedule`` simulates for one schedule.

    Mirrors the compiler's proportional split: every atom span runs its
    own warm-up before the measured span.
    """
    from repro.scenarios import Atom, Overlay, Ramp, Repeat, Seq

    if isinstance(node, Atom):
        return cycles + warmup
    if isinstance(node, Overlay):
        return sum(schedule_cycles(c, cycles, warmup) for c in node.children)
    if isinstance(node, Ramp):
        return schedule_cycles(node.child, cycles, warmup)
    if isinstance(node, Seq):
        children = node.children
    elif isinstance(node, Repeat):
        children = (node.child,) * node.count
    else:
        raise TypeError(f"unknown schedule node {type(node).__name__}")
    total_units = sum(c.units() for c in children)
    units = spent = simulated = 0
    for child in children:
        units += child.units()
        span = int(round(cycles * units / total_units)) - spent
        simulated += schedule_cycles(child, span, warmup)
        spent += span
    return simulated


def control_results(batch) -> list:
    """The batch's control results, in submission order."""
    from repro.pipeline.stages import control_result_from_artifact

    return [
        control_result_from_artifact(o.artifacts["control"])
        for o in batch.outcomes
        if o.ok and "control" in o.artifacts
    ]


def scenario_cycles(name: str, cycles: int, warmup: int) -> int:
    from repro.scenarios import parse_schedule, resolve_scenario

    scenario = resolve_scenario(name)
    return sum(
        schedule_cycles(parse_schedule(core.schedule), cycles, warmup)
        for core in scenario.cores
    )


@dataclass
class Round:
    specs: list
    control: tuple | None  # (benchmark, cycles)
    scenario: str | None
    fidelity: bool = False


@dataclass
class Pass:
    """One measured window's raw outputs."""

    window: tuple[float, float]
    wall_s: float
    outcomes: list = field(default_factory=list)  # (Round, BatchResult)
    pool_exhausted: bool = False

    @property
    def latencies(self) -> list[float]:
        """Per job: its stage times in the worker, cache lookups included."""
        return [sum(o.timings.values()) for _, batch in self.outcomes for o in batch.outcomes]

    @property
    def jobs(self) -> int:
        return sum(len(batch.outcomes) for _, batch in self.outcomes)

    @property
    def errors(self) -> int:
        return sum(len(batch.errors) for _, batch in self.outcomes)


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.backend = "vectorized"
        self.passes = 0

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        from repro.core import calibrated_supply
        from repro.kernels import resolve_backend
        from repro.pipeline import JobSpec, StageContext

        self.network = calibrated_supply(IMPEDANCE)
        # warm the per-process estimator memo; forked workers inherit it
        StageContext(JobSpec.make("gzip", network=self.network)).estimator
        self.backend = resolve_backend()
        self.reference = load_reference()

    def close(self) -> None:
        pass

    # -- the job sequence ------------------------------------------------------

    def rounds(self):
        """The run's rounds: fidelity first, then seeded pool draws."""
        from repro.pipeline import (
            build_characterization_jobs,
            build_control_jobs,
            build_scenario_jobs,
        )
        from repro.workloads import SPEC2000

        names = tuple(SPEC2000)
        rng = np.random.default_rng([self.seed, 11])
        bench_order = [names[i] for i in rng.permutation(len(names))]
        control_order = [CONTROL_BENCHMARKS[i] for i in rng.permutation(len(CONTROL_BENCHMARKS))]
        offset = int(rng.integers(len(SCENARIOS)))

        def char(pairs):
            specs = []
            for benchmark, seed in pairs:
                specs += build_characterization_jobs(
                    (benchmark,),
                    self.network,
                    cycles=CHAR_CYCLES,
                    warmup_cycles=CHAR_WARMUP,
                    seed=seed,
                    impedance=IMPEDANCE,
                )
            return specs

        fidelity = [(name, FIDELITY_SEED) for name in names]
        yield Round(char(fidelity), None, None, fidelity=True)
        drawn = 0
        r = 0
        while drawn + CHAR_PER_ROUND <= len(names) * len(POOL_SEEDS):
            r += 1
            pairs = []
            for _ in range(CHAR_PER_ROUND):
                lap, k = divmod(drawn, len(names))
                pairs.append((bench_order[k], POOL_SEEDS[lap]))
                drawn += 1
            lap, k = divmod(r - 1, len(CONTROL_BENCHMARKS))
            control = (control_order[k], CONTROL_CYCLES + 256 * lap)
            # longest jobs first, so no worker idles on a long job
            # started last in the round
            scenario = SCENARIOS[(offset + r) % len(SCENARIOS)]
            specs = build_scenario_jobs(
                (scenario,),
                self.network,
                cycles=SCENARIO_CYCLES,
                warmup_cycles=SCENARIO_WARMUP,
                seed=SCENARIO_SEED_BASE + 1000 * (self.seed % 1000) + r,
                impedance=IMPEDANCE,
            )
            for scheme, params in CONTROL_PARAMS.items():
                specs += build_control_jobs(
                    (control[0],),
                    self.network,
                    scheme=scheme,
                    cycles=control[1],
                    warmup_cycles=CONTROL_WARMUP,
                    impedance=IMPEDANCE,
                    **params,
                )
            specs += char(pairs)
            yield Round(specs, control, scenario)

    # -- measurement -----------------------------------------------------------

    def measure(self, seconds: float, traced: bool = False) -> Pass:
        from repro.pipeline import BatchOptions, submit

        self.passes += 1
        options = BatchOptions(
            jobs=WORKERS,
            cache_dir=str(self.workdir / f"cache-{self.passes}"),
            raise_on_error=False,
        )
        outcomes = []
        exhausted = True
        t0 = time.perf_counter()
        for rnd in self.rounds():
            outcomes.append((rnd, submit(rnd.specs, options)))
            if time.perf_counter() - t0 >= seconds:
                exhausted = False
                break
        t1 = time.perf_counter()
        return Pass(window=(t0, t1), wall_s=t1 - t0, outcomes=outcomes,
                    pool_exhausted=exhausted)

    # -- checks and metrics ----------------------------------------------------

    def simulated_cycles(self, p: Pass) -> tuple[int, int]:
        """(cycles simulated by simulate_benchmark, all cycles simulated)."""
        sim = control = 0
        for rnd, batch in p.outcomes:
            for outcome in batch.outcomes:
                if not outcome.ok:
                    continue
                stages = outcome.spec.stages
                if stages[0] == "simulate":
                    sim += outcome.artifacts["simulate"].cycles + outcome.spec.warmup_cycles
                elif stages[0] == "scenario":
                    sim += scenario_cycles(
                        rnd.scenario, outcome.spec.cycles, outcome.spec.warmup_cycles
                    )
            for result in control_results(batch):
                # uncontrolled run to fix the work, then the controlled
                # re-run until the same work commits; each after warm-up
                control += 2 * CONTROL_WARMUP + rnd.control[1] + result.controlled_cycles
        return sim, sim + control

    def evaluate(self, p: Pass, outcome: Outcome) -> None:
        from repro.pipeline import predictions_from

        observed: dict[str, dict] = {}
        pairs = []
        hits = 0
        fidelity = None
        expected_fidelity = -1
        for rnd, batch in p.outcomes:
            hits += batch.cache_hits
            for o in batch.outcomes:
                outcome.check(o.ok, f"eval-cold: job {o.spec.label} failed")
                if o.ok and o.spec.stages[0] == "simulate":
                    key = stats_key(o.spec.benchmark, o.spec.seed)
                    observed[key] = run_statistics(o.artifacts["simulate"].stats)
                if o.ok and "characterize" in o.artifacts:
                    outcome.extend(checks.check_fractions(o.spec.label, o.artifacts))
            if rnd.fidelity and batch.ok:
                fidelity = predictions_from(batch)
                expected_fidelity = len(rnd.specs)
            controls = control_results(batch)
            if len(controls) == 2:
                pairs.append((rnd.control[0], controls[0], controls[1]))
        outcome.extend(checks.check_run_statistics(observed, self.reference))
        outcome.extend(checks.check_control_pairs(pairs))
        # self-check: a cold sweep never reads a cached artifact
        outcome.check(hits == 0, f"eval-cold: {hits} result-cache hits in a cold sweep")
        outcome.check(fidelity is not None and len(fidelity) == expected_fidelity,
                      "eval-cold: the fidelity round did not complete")
        outcome.check(
            (self.reference["cycles"], self.reference["warmup_cycles"]) == (CHAR_CYCLES, CHAR_WARMUP),
            "eval-cold: reference_stats.json was recorded for other cycle counts",
        )

        sim, total = self.simulated_cycles(p)
        ok_jobs = p.jobs - p.errors
        outcome.attempted += p.jobs
        outcome.failed += p.errors
        errors = [pred.error for pred in (fidelity or {}).values()]
        outcome.metrics.update(
            {
                "throughput_ops_per_s": ok_jobs / p.wall_s,
                "cycles_per_s": total / p.wall_s,
                "latency_p50_s": percentile(p.latencies, 50),
                "latency_p90_s": percentile(p.latencies, 90),
                "prediction_rms_pct": float(np.sqrt(np.mean(np.square(errors))) * 100) if errors else 0.0,
            }
        )
        if p.pool_exhausted:
            outcome.notes.append(
                f"eval-cold used up its reference pool after {p.wall_s:.1f} s; "
                "add POOL_SEEDS and re-run make_reference.py to measure longer"
            )
        referenced = sum(1 for key in observed if key in self.reference["stats"])
        outcome.sizes.update(
            {
                "rounds": len(p.outcomes),
                "jobs": p.jobs,
                "latency_samples": len(p.latencies),
                "char_cycles": CHAR_CYCLES,
                "char_warmup_cycles": CHAR_WARMUP,
                "control_cycles": CONTROL_CYCLES,
                "scenario_cycles": SCENARIO_CYCLES,
                "simulated_cycles": total,
                "simulate_benchmark_cycles": sim,
                "reference_checked_runs": referenced,
                "measured_s": p.wall_s,
            }
        )
        self._sim_cycles = sim

    def layer_checks(self, layers: dict, outcome: Outcome) -> None:
        outcome.check(layers["cache.hits"] == 0,
                      f"eval-cold: traced cache.hits = {layers['cache.hits']}, expected 0")
        outcome.check(layers["uarch.cycles"] == self._sim_cycles,
                      f"eval-cold: traced uarch.cycles {layers['uarch.cycles']} != "
                      f"{self._sim_cycles} derived from the outputs")

    def layer_extras(self, p: Pass) -> dict:
        return {}

    def share_lines(self, layers: dict, p: Pass) -> list[str]:
        capacity = p.wall_s * WORKERS
        busy = {
            "uarch": layers["uarch.busy_s"],
            "core.control": layers["core.control.busy_s"],
            "power": layers["power.voltage.busy_s"],
            "kernels": layers["kernels.busy_s"],
            "cache": layers["cache.read_s"] + layers["cache.write_s"],
            "pipeline.self": layers["pipeline.self_s"],
        }
        largest = max(busy, key=busy.get)
        verdict = "confirmed" if largest == "uarch" else f"NOT confirmed (largest: {largest})"
        return [
            f"share of worker time ({capacity:.1f} s): "
            + ", ".join(f"{k} {v / capacity:.1%}" for k, v in busy.items()),
            f"predicted share: uarch.busy_s is the largest on eval-cold: {verdict}",
        ]
