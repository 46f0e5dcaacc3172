"""Tests of the benchmark itself: its contract, output shape and checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, common, eval_cold, serve_mix, store_sweep, tracing  # noqa: E402
from perfbench.common import Outcome  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec() -> dict:
    return common.load_spec()


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    # serve-mix is left out until TraceStore.ingest is safe under
    # concurrent uploads (see README.md)
    assert [w["name"] for w in spec["workloads"]] == ["eval-cold", "store-sweep"]
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_every_metric_name_is_valid_and_has_a_unit(spec):
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert len(names) == len(set(names))


def test_end_to_end_bounds(spec):
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_are_all_produced(spec):
    """Every per-layer name comes from the tracer, a workload or run.py."""
    produced = set(tracing.layer_metrics([], (0.0, 1.0)))
    produced |= {"serve.requests", "serve.fastpath", "serve.coalesced",
                 "serve.dispatched_jobs", "serve.batches", "serve.queue_s",
                 "serve.compute_s", "loadgen.cpu_s",
                 "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                 "trace.overhead_pct"}
    produced |= {f"serve.latency_p50_s.{kind}" for kind in set(serve_mix.BLOCK)}
    assert {m["name"] for m in spec["per_layer"]} == produced


# -- the output shape ----------------------------------------------------------


def test_result_line_shape(spec):
    outcome = Outcome(attempted=12, failed=0)
    outcome.metrics = {m["name"]: 1.5 for m in spec["end_to_end"]}
    line = json.loads(json.dumps(common.result_line(outcome, spec, trace=False)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] == 12 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for entry in spec["end_to_end"]:
        assert line["metrics"][entry["name"]] == {"value": 1.5, "unit": entry["unit"]}


def test_result_line_reports_failed_checks_and_missing_metrics(spec):
    outcome = Outcome(attempted=3)
    outcome.layers = {m["name"]: 0 for m in spec["per_layer"]}
    outcome.check(False, "corrupted")
    line = common.result_line(outcome, spec, trace=True)
    assert line["correct"] is False
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    del outcome.layers["uarch.calls"]
    with pytest.raises(KeyError):
        common.result_line(outcome, spec, trace=True)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    """A directory with only BENCHMARK.json and perfbench/ cannot run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- each correctness check catches a corrupted output ----------------------------


def test_run_statistics_check():
    reference = eval_cold.load_reference()
    key = "gzip/101"
    good = {key: dict(reference["stats"][key])}
    assert checks.check_run_statistics(good, reference) == []
    bad = {key: dict(good[key], committed=good[key]["committed"] + 1)}
    assert checks.check_run_statistics(bad, reference)
    # a run with no recorded reference is not silently skipped
    assert checks.check_run_statistics({"gzip/600000": {}}, reference)


def test_reference_covers_the_whole_pool():
    from repro.workloads import SPEC2000

    stats = eval_cold.load_reference()["stats"]
    for seed in (eval_cold.FIDELITY_SEED, *eval_cold.POOL_SEEDS):
        for benchmark in SPEC2000:
            assert eval_cold.stats_key(benchmark, seed) in stats


def test_rounds_end_when_the_reference_pool_is_used_up(monkeypatch, tmp_path):
    from repro.core import calibrated_supply

    monkeypatch.setattr(eval_cold, "POOL_SEEDS", (101,))
    workload = eval_cold.Workload(1, tmp_path)
    workload.network = calibrated_supply(eval_cold.IMPEDANCE)
    rounds = list(workload.rounds())
    # the fidelity round, then as many whole rounds as 26 pool pairs fill
    assert len(rounds) == 1 + 26 // eval_cold.CHAR_PER_ROUND
    stats = eval_cold.load_reference()["stats"]
    for rnd in rounds:
        for spec in rnd.specs:
            if spec.stages[0] == "simulate":
                assert eval_cold.stats_key(spec.benchmark, spec.seed) in stats


def test_reference_matches_the_simulator():
    from repro.uarch import simulate_benchmark

    reference = eval_cold.load_reference()
    assert (reference["cycles"], reference["warmup_cycles"]) == (
        eval_cold.CHAR_CYCLES, eval_cold.CHAR_WARMUP)
    for benchmark, seed in (("mcf", 101), ("mgrid", eval_cold.FIDELITY_SEED)):
        result = simulate_benchmark(benchmark, cycles=eval_cold.CHAR_CYCLES, seed=seed,
                                    warmup_cycles=eval_cold.CHAR_WARMUP, use_cache=False)
        observed = {eval_cold.stats_key(benchmark, seed): eval_cold.run_statistics(result.stats)}
        assert checks.check_run_statistics(observed, reference) == []


class _Control:
    def __init__(self, baseline_faults, controlled_faults, slowdown):
        self.baseline_faults = baseline_faults
        self.controlled_faults = controlled_faults
        self.slowdown = slowdown


def test_control_check():
    good = [("mgrid", _Control(4, 0, 0.0), _Control(4, 0, 0.35))]
    assert checks.check_control_pairs(good) == []
    more_faults = [("mgrid", _Control(4, 5, 0.0), _Control(4, 0, 0.35))]
    assert checks.check_control_pairs(more_faults)
    slower = [("mgrid", _Control(4, 0, 0.4), _Control(4, 0, 0.35))]
    assert checks.check_control_pairs(slower)


def test_fraction_check():
    good = {"characterize": {"estimated": 0.2}, "voltage": {"observed": 0.25}}
    assert checks.check_fractions("job", good) == []
    assert checks.check_fractions("job", {**good, "characterize": {"estimated": 1.5}})
    assert checks.check_fractions("job", {**good, "voltage": {"observed": float("nan")}})


def test_prediction_check():
    expected = {("150", "0.97", "tr-1"): (0.25, 0.3)}
    assert checks.check_predictions_close({("150", "0.97", "tr-1"): (0.25 + 1e-12, 0.3)},
                                          expected) == []
    assert checks.check_predictions_close({("150", "0.97", "tr-1"): (0.25 + 1e-6, 0.3)},
                                          expected)
    assert checks.check_predictions_close({}, expected)


def test_lap_check():
    lap = {("a",): (0.1, 0.2), ("b",): (0.3, 0.4)}
    assert checks.check_laps_identical([lap, dict(lap)]) == []
    assert checks.check_laps_identical([lap, {**lap, ("b",): (0.3, 0.41)}])


def test_serve_response_check():
    expected = {"gzip/201": (0.1, 0.2), "inline-0": (0.3, 0.4)}
    primed = {"gzip/201": (0.1, 0.2)}
    good = [
        {"kind": "hit", "key": "gzip/201", "status": 200,
         "result": {"estimated": 0.1, "observed": 0.2}},
        {"kind": "inline", "key": "inline-0", "status": 200,
         "result": {"estimated": 0.3, "observed": 0.4}},
    ]
    assert checks.check_responses(good, expected, primed) == []
    corrupted = [dict(good[1], result={"estimated": 0.31, "observed": 0.4})]
    assert checks.check_responses(corrupted, expected, primed)
    stale_hit = checks.check_responses(good[:1], {"gzip/201": (0.1, 0.2)},
                                       {"gzip/201": (0.1, 0.21)})
    assert stale_hit


def test_serve_count_check():
    counts = {"hit": 40, "inline": 40, "cold": 20}
    good = {"cache_fastpath": 40, "dispatched_jobs": 60}
    assert checks.check_serve_counts(good, counts) == []
    assert checks.check_serve_counts({**good, "cache_fastpath": 39}, counts)
    assert checks.check_serve_counts({**good, "dispatched_jobs": 61}, counts)


def test_workload_self_checks():
    spec = common.load_spec()
    layers = {m["name"]: 0 for m in spec["per_layer"]}
    cold = eval_cold.Workload(1, Path("."))
    cold._sim_cycles = 0
    outcome = Outcome()
    cold.layer_checks(layers, outcome)
    assert outcome.failures == []
    cold.layer_checks({**layers, "cache.hits": 1}, outcome)
    assert outcome.failures

    outcome = Outcome()
    store_sweep.Workload(1, Path(".")).layer_checks({**layers, "uarch.calls": 2}, outcome)
    assert outcome.failures

    outcome = Outcome()
    serve = serve_mix.Workload(1, Path("."))
    serve.layer_checks({**layers, "cache.hit_ratio": 0.4}, outcome)
    assert outcome.failures == []
    serve.layer_checks({**layers, "cache.hit_ratio": 0.35}, outcome)
    assert outcome.failures


# -- span arithmetic ---------------------------------------------------------------


def test_union_length():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert tracing.union_length([(0, 10), (2, 3)]) == pytest.approx(10)


def test_layer_metrics_self_time_and_nesting():
    span = tracing.Span
    spans = [
        # an inline submit running one job, whose stages call a kernel
        # inside a kernel (counted once) and write the cache
        span("pipeline.submit", 1, 0.0, 10.0, 0, -1, {"jobs": 1, "workers": 1}),
        span("pipeline.job", 1, 1.0, 9.0, 1, 0, {"block": 0}),
        span("kernels.call", 1, 2.0, 5.0, 2, 1, {"samples": 8, "bytes": 64}),
        span("kernels.call", 1, 3.0, 4.0, 3, 2, {"samples": 8, "bytes": 64}),
        span("cache.put", 1, 6.0, 7.0, 4, 1, {"bytes": 100}),
        span("cache.get", 1, 7.0, 7.5, 5, 1, {"hit": 1}),
        span("uarch.simulate", 2, 20.0, 21.0, 0, -1, {"cycles": 5}),  # outside window
    ]
    m = tracing.layer_metrics(spans, (0.0, 10.0))
    assert m["kernels.calls"] == 1 and m["kernels.busy_s"] == pytest.approx(3.0)
    assert m["cache.writes"] == 1 and m["cache.write_bytes"] == 100
    assert m["cache.hits"] == 1 and m["cache.hit_ratio"] == 1.0
    assert m["uarch.calls"] == 0
    # submit: 10 s minus 8 s of job; job: 8 s minus 4.5 s of children
    assert m["pipeline.self_s"] == pytest.approx(2.0 + 3.5)
    assert m["pipeline.worker_util"] == pytest.approx(0.8)
    assert m["pipeline.jobs"] == 1


def test_schedule_cycles_counts_every_atom_warmup():
    from repro.scenarios import parse_schedule

    node = parse_schedule("seq(cache-thrash, memory-burst)")
    assert eval_cold.schedule_cycles(node, 1000, 100) == 1000 + 2 * 100
    overlay = parse_schedule("overlay(cache-thrash, memory-burst)")
    assert eval_cold.schedule_cycles(overlay, 1000, 100) == 2 * (1000 + 100)
