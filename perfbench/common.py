"""Helpers every workload shares: paths, run record, statistics, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, stores, spans and run records (git-ignored).
WORK_ROOT = ROOT / ".perfbench"

#: Pool workers per batch and client connections: the host's two CPUs.
WORKERS = 2

#: The held-out seed: never used while the benchmark or a change is tuned,
#: run once at the end to confirm a claim.
HELD_OUT_SEED = 9001


@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # failed checks
    sizes: dict[str, object] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Record a failed correctness or self-check."""
        if not ok:
            self.failures.append(message)

    def extend(self, failures: list[str]) -> None:
        self.failures.extend(failures)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def make_workdir(label: str) -> Path:
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def subprocess_env() -> dict:
    """The environment for a child Python that imports ``repro`` from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


# -- run record ----------------------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict[str, str]:
    """L2/L3 sizes from sysfs (per-instance sizes, as the kernel lists)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, trace: bool, backend: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend,
    }


def write_record(record: dict, outcome: Outcome) -> Path:
    """Keep the run record (with sizes and metrics) under ``.perfbench``."""
    runs = WORK_ROOT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-{os.getpid()}.json"
    doc = {
        **record,
        "sizes": outcome.sizes,
        "metrics": outcome.metrics,
        "layers": outcome.layers,
        "failures": outcome.failures,
    }
    path = runs / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


# -- output --------------------------------------------------------------------


def result_line(outcome: Outcome, spec: dict, trace: bool) -> dict:
    """The final JSON object: the end-to-end or the per-layer metrics."""
    table = spec["per_layer"] if trace else spec["end_to_end"]
    source = outcome.layers if trace else outcome.metrics
    metrics = {}
    for entry in table:
        name = entry["name"]
        if name not in source:
            raise KeyError(f"workload did not produce metric {name!r}")
        metrics[name] = {"value": source[name], "unit": entry["unit"]}
    return {
        "correct": not outcome.failures,
        "attempted": int(max(outcome.attempted, 1)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def say(text: str) -> None:
    """One human-readable line on stdout (the JSON result comes last)."""
    print(text, flush=True)


def fail(text: str, code: int = 2) -> None:
    print(f"perfbench: {text}", file=sys.stderr, flush=True)
    raise SystemExit(code)
