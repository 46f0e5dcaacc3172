"""Record the integer run statistics ``eval-cold`` checks against.

Simulates every (benchmark, stream seed) pair ``eval-cold`` can draw —
the fidelity round and the reference pool — and writes their
``RunStatistics`` integers to ``reference_stats.json``.  Re-run it only
when a change to the simulator is meant to change its results::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parents[1])]

from perfbench import eval_cold  # noqa: E402
from perfbench.common import WORKERS  # noqa: E402


def main() -> int:
    from repro.pipeline import BatchOptions, build_characterization_jobs, submit
    from repro.workloads import SPEC2000

    specs = []
    for seed in (eval_cold.FIDELITY_SEED, *eval_cold.POOL_SEEDS):
        specs += build_characterization_jobs(
            tuple(SPEC2000),
            None,
            cycles=eval_cold.CHAR_CYCLES,
            warmup_cycles=eval_cold.CHAR_WARMUP,
            seed=seed,
            stages=("simulate",),
        )
    batch = submit(specs, BatchOptions(jobs=WORKERS))
    stats = {
        eval_cold.stats_key(o.spec.benchmark, o.spec.seed): eval_cold.run_statistics(
            o.artifacts["simulate"].stats
        )
        for o in batch.outcomes
    }
    lines = [
        f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(stats.items())
    ]
    eval_cold.REFERENCE_PATH.write_text(
        f'{{"cycles": {eval_cold.CHAR_CYCLES}, '
        f'"warmup_cycles": {eval_cold.CHAR_WARMUP}, "stats": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    print(f"wrote {len(stats)} reference runs to {eval_cold.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
