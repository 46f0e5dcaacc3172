"""Correctness checks: pure functions from outputs to failure messages.

Each returns a list of human-readable failures (empty when the outputs
are right), so the workloads can run them all and the tests can feed
them deliberately corrupted outputs.
"""

from __future__ import annotations

import math

#: The integer ``RunStatistics`` fields pinned per (benchmark, seed).
STAT_FIELDS = (
    "cycles",
    "committed",
    "l1i_misses",
    "l1d_misses",
    "l2_misses",
    "stall_cycles",
)

#: Block/batched vs per-trace vectorized predictions may differ by this.
PREDICTION_TOLERANCE = 1e-9


def check_run_statistics(observed: dict, reference: dict) -> list[str]:
    """Integer run statistics must equal the recorded reference.

    ``observed`` maps ``"benchmark/seed"`` to the statistics of one run;
    a run the reference does not list fails, so none goes unchecked.
    """
    failures = []
    pinned = reference["stats"]
    for key, stats in sorted(observed.items()):
        expected = pinned.get(key)
        if expected is None:
            failures.append(f"run statistics of {key}: no reference recorded")
            continue
        for name in STAT_FIELDS:
            if stats.get(name) != expected.get(name):
                failures.append(
                    f"run statistics of {key}: {name} = {stats.get(name)}, "
                    f"reference {expected.get(name)}"
                )
    return failures


def check_control_pairs(pairs) -> list[str]:
    """§5 control: wavelet adds no emergencies and beats damping.

    ``pairs`` holds ``(benchmark, wavelet_result, damping_result)`` with
    ``ControlResult``-like results (``baseline_faults``,
    ``controlled_faults``, ``slowdown``).
    """
    failures = []
    for benchmark, wavelet, damping in pairs:
        if wavelet.controlled_faults > wavelet.baseline_faults:
            failures.append(
                f"control {benchmark}: wavelet control left "
                f"{wavelet.controlled_faults} emergencies, uncontrolled "
                f"{wavelet.baseline_faults}"
            )
        if not wavelet.slowdown < damping.slowdown:
            failures.append(
                f"control {benchmark}: wavelet slowdown {wavelet.slowdown:.4f} "
                f"not below damping {damping.slowdown:.4f}"
            )
    return failures


def check_fractions(label: str, artifacts: dict) -> list[str]:
    """Estimated and observed below-threshold fractions lie in [0, 1]."""
    failures = []
    for stage, key in (("characterize", "estimated"), ("voltage", "observed")):
        value = artifacts.get(stage, {}).get(key)
        if value is None or not (0.0 <= value <= 1.0) or math.isnan(value):
            failures.append(f"{label}: {stage} {key} = {value!r} outside [0, 1]")
    return failures


def check_predictions_close(
    got: dict, expected: dict, tolerance: float = PREDICTION_TOLERANCE
) -> list[str]:
    """Each ``(estimated, observed)`` in ``got`` is within ``tolerance``
    of ``expected`` for the same key (missing keys fail)."""
    failures = []
    for key, want in sorted(expected.items()):
        have = got.get(key)
        if have is None:
            failures.append(f"prediction {key}: missing")
            continue
        for name, a, b in zip(("estimated", "observed"), have, want):
            if not abs(a - b) <= tolerance:
                failures.append(
                    f"prediction {key}: {name} {a!r} differs from the "
                    f"per-trace recomputation {b!r}"
                )
    return failures


def check_laps_identical(laps: list[dict]) -> list[str]:
    """Every lap of a deterministic sweep gives the first lap's results."""
    failures = []
    first = laps[0] if laps else {}
    for number, lap in enumerate(laps[1:], start=2):
        if lap != first:
            changed = sorted(k for k in first if lap.get(k) != first[k])
            failures.append(
                f"sweep lap {number} differs from lap 1 on {len(changed)} "
                f"results (first: {changed[:1]})"
            )
    return failures


def check_responses(responses, expected: dict, primed: dict) -> list[str]:
    """Served results equal the in-process results for the same spec.

    ``responses`` are dicts with ``kind`` (request class), ``key``
    (the request's spec identity), ``status`` and ``result`` (the
    ``result`` event, or ``None``).  ``expected`` maps a key to the
    in-process ``(estimated, observed)``; ``primed`` maps each ``hit``
    key to the value served when set-up primed the cache.
    """
    failures = []
    for response in responses:
        if response["status"] != 200 or response["result"] is None:
            continue  # counted as failed, not as a wrong answer
        key = response["key"]
        result = response["result"]
        got = (result.get("estimated"), result.get("observed"))
        if got != expected.get(key):
            failures.append(
                f"serve {response['kind']} {key}: served {got}, in-process "
                f"{expected.get(key)}"
            )
        if response["kind"] == "hit" and got != primed.get(key):
            failures.append(
                f"serve hit {key}: served {got}, fresh value {primed.get(key)}"
            )
    return failures


def check_serve_counts(delta: dict, counts: dict) -> list[str]:
    """Server counters agree with the request mix that was sent.

    ``delta`` is the ``/stats`` difference over the measured window and
    ``counts`` the number of requests per class.
    """
    failures = []
    if delta.get("cache_fastpath") != counts.get("hit", 0):
        failures.append(
            f"serve: {delta.get('cache_fastpath')} cache fast-path answers, "
            f"{counts.get('hit', 0)} hit requests sent"
        )
    dispatched = counts.get("inline", 0) + counts.get("cold", 0)
    if delta.get("dispatched_jobs") != dispatched:
        failures.append(
            f"serve: {delta.get('dispatched_jobs')} jobs dispatched, "
            f"{dispatched} inline + cold requests sent"
        )
    return failures
