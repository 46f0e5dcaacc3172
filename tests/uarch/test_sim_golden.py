"""Golden simulator outputs: bit-exact digests of representative runs.

Every simulator optimisation must leave its outputs bit-identical — the
result cache keys, the perfbench reference statistics and the paper's
prediction error all rest on it.  This test pins, for a handful of
workload models chosen to exercise every cache-prewarm shape (small
footprints, gcc's 512 KiB code, the 4 MiB warm regions of mcf/swim/art
and mgrid's composite loop), the sha256 of the per-cycle current and
L2-outstanding arrays plus every ``RunStatistics`` field; and, one level
up, a closed-loop control experiment, the calibrated supply's peak
impedance and a multi-core scenario trace.

The fixture is regenerated with::

    PYTHONPATH=src python tests/uarch/test_sim_golden.py --record

which is only legitimate when an output change is intended (and then
the result cache schema version must move with it).
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "sim_golden.json"

BENCHMARKS = ("gzip", "gcc", "mcf", "swim", "art", "mgrid")
SEED = 7
CYCLES = 2048
WARMUP = 512

CONTROL_BENCHMARK = "mgrid"
CONTROL_IMPEDANCE = 150.0
CONTROL_CYCLES = 2048
CONTROL_WARMUP = 512

SCENARIO = "quad-core-dvfs"
SCENARIO_CYCLES = 2048
SCENARIO_WARMUP = 256
SCENARIO_SEED = 7


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def simulation_digest(benchmark: str) -> dict:
    from repro.uarch import simulate_benchmark

    result = simulate_benchmark(
        benchmark,
        cycles=CYCLES,
        seed=SEED,
        warmup_cycles=WARMUP,
        use_cache=False,
    )
    return {
        "current_sha256": _sha(result.current),
        "l2_outstanding_sha256": _sha(result.l2_outstanding),
        "stats": asdict(result.stats),
    }


def control_digest() -> dict:
    from repro.core import (
        ThresholdController,
        WaveletVoltageMonitor,
        calibrated_supply,
        run_control_experiment,
    )

    network = calibrated_supply(CONTROL_IMPEDANCE)
    result = run_control_experiment(
        CONTROL_BENCHMARK,
        network,
        lambda: ThresholdController(
            WaveletVoltageMonitor(network, terms=13), network, 0.012
        ),
        cycles=CONTROL_CYCLES,
        warmup_cycles=CONTROL_WARMUP,
    )
    return asdict(result)


def supply_digest() -> str:
    from repro.core import calibrated_supply

    return float(calibrated_supply(100.0).peak_impedance).hex()


def scenario_digest() -> str:
    from repro.scenarios import compile_scenario, resolve_scenario

    trace = compile_scenario(
        resolve_scenario(SCENARIO),
        SCENARIO_CYCLES,
        seed=SCENARIO_SEED,
        warmup_cycles=SCENARIO_WARMUP,
    )
    return _sha(trace)


def record() -> dict:
    return {
        "simulations": {name: simulation_digest(name) for name in BENCHMARKS},
        "control": control_digest(),
        "calibrated_supply_100_peak_impedance": supply_digest(),
        "scenario_sha256": scenario_digest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_simulation_is_bit_identical(golden, name):
    assert simulation_digest(name) == golden["simulations"][name]


def test_control_experiment_is_identical(golden):
    assert control_digest() == golden["control"]


def test_calibrated_supply_is_identical(golden):
    assert supply_digest() == golden["calibrated_supply_100_peak_impedance"]


def test_scenario_trace_is_bit_identical(golden):
    assert scenario_digest() == golden["scenario_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_sim_golden.py --record")
    FIXTURE.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
