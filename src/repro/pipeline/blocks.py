"""Block dispatch: one fused job for N compatible characterization jobs.

The batched kernel tier (``repro.kernels.batched``) only pays off when
the pipeline actually hands it stacks of traces.  This module is that
wiring:

* :func:`group_blocks` partitions a batch's ``(index, spec)`` pairs into
  :class:`BlockSpec` units — specs that share every characterization
  parameter (cycles, window, threshold, network, params, stage chain,
  trace dtype) and whose stage chain ends in ``characterize``.  The
  supervisor then dispatches **one** block job instead of N trace jobs.
* :func:`execute_block` runs a block: every member runs its prefix
  stages (``simulate``/``load_trace``/``voltage``) through the
  executor's own stage step (:func:`~repro.pipeline.executor.run_stage`)
  under its **own** ``pipeline.job`` span, then probes its **own**
  per-trace characterize key and passes its fault point; only the
  cache-missing members' traces are stacked — zero-copy attached when
  store-backed — into one ``characterize_block`` kernel call, whose
  result is split back into per-member artifacts and cached under each
  member's key.

A single job's ``characterize`` stage is the same kernel call over a
one-row stack, and both paths build the artifact with
:func:`~repro.pipeline.stages.characterize_artifact`.  Every kernel
reduction is row-local, so a block job and N single jobs produce
byte-identical cache entries — the property
``tests/pipeline/test_blocks.py`` pins.

Failures stay member-granular where possible: a member whose prefix
stage, trace attach or injected fault raises fails alone; a failure of
the fused pass itself falls back to the per-trace stage step for every
member.  The block container carries telemetry once; retries operate on
the whole block (already-cached members are satisfied from cache on the
next attempt).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import SpecError
from ..obs import trace as obs
from . import executor as _executor
from . import faults
from .executor import (
    DEFAULT_MAX_BLOCK,
    JobOutcome,
    note_job_status,
    note_pickle_bytes,
    record_failure,
    record_stage_time,
    run_stage,
)
from .spec import CACHE_SALT, JobSpec, hash_payload, trace_identity
from .stages import (
    StageContext,
    characterize_artifact,
    get_stage,
    stage_cache_keys,
)

__all__ = ["BlockSpec", "BlockOutcome", "block_key", "group_blocks", "execute_block"]

def block_key(spec: JobSpec) -> tuple:
    """The compatibility key two specs must share to ride one block."""
    ident = trace_identity(spec)
    # The "scenario" param only shapes per-member trace production in
    # the prefix pass (like differing benchmarks under "simulate"); the
    # fused characterize is indifferent to it, so two different
    # scenarios of equal geometry still stack into one block.
    params = tuple(p for p in spec.params if p[0] != "scenario")
    return (
        spec.stages,
        spec.cycles,
        spec.window,
        spec.threshold,
        spec.network,
        params,
        ident.get("dtype"),
        ident.get("samples", spec.cycles),
    )


def _groupable(spec: JobSpec) -> bool:
    # Only chains *ending* in characterize fuse: the prefix stages run
    # per member, the final characterize runs once for the whole stack.
    return spec.stages[-1] == "characterize"


@dataclass(frozen=True)
class BlockSpec:
    """N compatible :class:`JobSpec` dispatched as one supervised unit.

    Carries the members' original batch indices so results (and
    supervisor-synthesized failures) can be fanned back out per trace.
    Opaque to the supervisor, which only needs ``digest()``, ``label``
    and picklability — exactly the :class:`JobSpec` surface.
    """

    members: tuple[JobSpec, ...]
    indices: tuple[int, ...]

    #: Cheap runtime marker so the executor avoids an isinstance import.
    is_block = True

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise SpecError("a block needs at least two members")
        if len(self.indices) != len(self.members):
            raise SpecError("indices and members must be parallel")
        keys = {block_key(m) for m in self.members}
        if len(keys) != 1:
            raise SpecError(
                "block members must share cycles/window/threshold/network/"
                f"params/stages/trace dtype; got {len(keys)} distinct keys"
            )
        if any(not _groupable(m) for m in self.members):
            raise SpecError("block members must end with 'characterize'")

    def digest(self) -> str:
        """Content hash over the member digests (order-sensitive)."""
        return hash_payload(
            {"salt": CACHE_SALT, "block": [m.digest() for m in self.members]}
        )

    @property
    def benchmark(self) -> str:
        first = self.members[0].benchmark
        return f"block:{first}+{len(self.members) - 1}"

    @property
    def label(self) -> str:
        return f"block[{len(self.members)}]({self.members[0].label}…)"

    def obs_attrs(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "cycles": self.members[0].cycles,
            "stages": ",".join(self.members[0].stages),
            "members": len(self.members),
        }


@dataclass
class BlockOutcome(JobOutcome):
    """The container a block job ships back: per-member outcomes inside.

    ``spec`` is the :class:`BlockSpec`; ``members`` pairs each member's
    original batch index with its :class:`JobOutcome`.  Member outcomes
    carry no telemetry payloads of their own — the container ships the
    worker's metric delta and span records exactly once.
    """

    members: list = field(default_factory=list)


def group_blocks(
    indexed_specs: list[tuple[int, JobSpec]],
    max_block: int = DEFAULT_MAX_BLOCK,
) -> list:
    """Partition ``(index, spec)`` pairs into dispatch units.

    Compatible characterization specs become :class:`BlockSpec` chunks
    of at most ``max_block`` members, dispatched at the position of
    their first member; everything else passes through untouched.
    Singleton groups stay plain specs — a block of one buys nothing.
    """
    if max_block < 2:
        return list(indexed_specs)
    groups: dict[tuple, list[tuple[int, JobSpec]]] = {}
    for index, spec in indexed_specs:
        if _groupable(spec):
            groups.setdefault(block_key(spec), []).append((index, spec))
    emitted: set[int] = set()
    units: list = []
    for index, spec in indexed_specs:
        if index in emitted:
            continue
        members = groups.get(block_key(spec)) if _groupable(spec) else None
        if not members or len(members) < 2:
            units.append((index, spec))
            continue
        for start in range(0, len(members), max_block):
            chunk = members[start : start + max_block]
            emitted.update(i for i, _ in chunk)
            if len(chunk) == 1:
                units.append(chunk[0])
            else:
                units.append(
                    (
                        chunk[0][0],
                        BlockSpec(
                            members=tuple(s for _, s in chunk),
                            indices=tuple(i for i, _ in chunk),
                        ),
                    )
                )
    return units


def synthesize_member_failures(outcome: JobOutcome) -> list:
    """Per-member failures for a block that died without member data.

    The supervisor's timeout/crash paths synthesize a bare container
    (``JobOutcome`` around the :class:`BlockSpec`) in the parent — fan
    its error out so every member index still gets an outcome.
    """
    block = outcome.spec
    return [
        (
            index,
            JobOutcome(
                spec=member,
                error=outcome.error,
                error_kind=outcome.error_kind,
                failed_stage=outcome.failed_stage,
                attempts=outcome.attempts,
                elapsed=outcome.elapsed,
                pid=outcome.pid,
            ),
        )
        for index, member in zip(block.indices, block.members)
    ]


class _MemberRun:
    """Executor-side state of one member inside a running block."""

    __slots__ = ("spec", "outcome", "ctx", "keys", "trace")

    def __init__(self, spec: JobSpec, attempt: int) -> None:
        self.spec = spec
        self.outcome = JobOutcome(
            spec=spec, pid=os.getpid(), attempts=attempt
        )
        self.ctx: StageContext | None = None
        self.keys: dict[str, str] | None = None
        # set when characterize missed the cache: the fused pass's input
        self.trace: np.ndarray | None = None


def _member_prefix(spec: JobSpec, cache, attempt: int, plan) -> _MemberRun:
    """Run one member under its own ``pipeline.job`` span, short of the
    fused pass: every pre-characterize stage through the executor's
    stage step, then the characterize step deferred after its probe and
    fault point, with the member's trace attached for the stack."""
    run = _MemberRun(spec, attempt)
    t_job = time.perf_counter()
    with obs.span(
        "pipeline.job", attempt=attempt, blocked=1, **spec.obs_attrs()
    ) as job_span:
        try:
            run.keys = keys = stage_cache_keys(spec)
            run.ctx = ctx = StageContext(spec)
            for name in spec.stages[:-1]:
                run_stage(run.outcome, ctx, keys, name, cache, plan)
            name = spec.stages[-1]
            if not run_stage(
                run.outcome, ctx, keys, name, cache, plan, defer=True
            ):
                run.trace = ctx.current_trace()
        except Exception as exc:
            record_failure(run.outcome, exc)
    run.outcome.elapsed = time.perf_counter() - t_job
    run.outcome.peak_rss_bytes = int(job_span.rss_peak)
    return run


def _fused_characterize(pending: list[_MemberRun], cache) -> None:
    """One ``characterize_block`` kernel call for every cache-miss member."""
    name = pending[0].spec.stages[-1]
    stage = get_stage(name)
    t0 = time.perf_counter()
    try:
        estimator = pending[0].ctx.estimator
        traces = np.stack([run.trace for run in pending])
        with obs.span("stage.characterize_block", members=len(pending)):
            probs, terms = estimator.characterize_traces(
                traces, pending[0].spec.threshold
            )
    except Exception:
        # The fused pass itself failed (shape surprise, kernel bug):
        # degrade to the per-trace stage so one bad stack cannot take
        # down every member.  Its fault point already ran (plan=None).
        for run in pending:
            try:
                run_stage(run.outcome, run.ctx, run.keys, name, cache, None)
            except Exception as exc:
                record_failure(run.outcome, exc)
        return
    share = (time.perf_counter() - t0) / len(pending)
    for k, run in enumerate(pending):
        artifact = characterize_artifact(probs[k], terms[k], estimator.levels)
        if cache is not None:
            cache.put(name, run.keys[name], stage.kind, artifact)
        record_stage_time(run.outcome, name, share, False)
        run.ctx.artifacts[name] = artifact
        run.outcome.artifacts[name] = artifact


def execute_block(
    block: BlockSpec, cache=None, attempt: int = 1
) -> BlockOutcome:
    """Run one block, never raising: a container of per-member outcomes.

    Every member keeps its per-trace cache keys, its own
    ``pipeline.job`` span and its own failure entry; the fused
    ``characterize_block`` pass covers exactly the members whose
    characterize artifact was not already cached.  The container's
    ``error`` is set when any member failed, so the existing retry
    machinery re-dispatches the whole block (cached members are
    satisfied from cache on the next attempt).
    """
    container = BlockOutcome(spec=block, pid=os.getpid(), attempts=attempt)
    plan = faults.active_plan()
    snap_before = obs.registry().snapshot() if obs.ENABLED else None
    t_block = time.perf_counter()
    runs: list[tuple[int, _MemberRun]] = []
    with obs.span(
        "pipeline.block", attempt=attempt, **block.obs_attrs()
    ) as block_span:
        for index, spec in zip(block.indices, block.members):
            runs.append((index, _member_prefix(spec, cache, attempt, plan)))
        pending = [run for _, run in runs if run.trace is not None]
        if pending:
            _fused_characterize(pending, cache)
        if obs.ENABLED:
            for _, run in runs:
                note_job_status(run.outcome)
    container.elapsed = time.perf_counter() - t_block
    container.peak_rss_bytes = int(block_span.rss_peak)
    container.members = [(index, run.outcome) for index, run in runs]
    failed = [run for _, run in runs if not run.outcome.ok]
    if failed:
        first = failed[0].outcome
        container.error = (
            f"block {block.label}: {len(failed)} of {len(runs)} members "
            f"failed on attempt {attempt}; first ({failed[0].spec.label}):\n"
            f"{first.error}"
        )
        container.error_kind = first.error_kind or "exception"
        container.failed_stage = first.failed_stage
    if obs.ENABLED:
        obs.counter_inc(
            "pipeline_blocks_total",
            1,
            "fused block jobs executed by outcome status",
            status="ok" if container.ok else "error",
        )
        if _executor._IN_POOL_WORKER:
            note_pickle_bytes(*(run.outcome.artifacts for _, run in runs))
        container.metrics = obs.snapshot_delta(snap_before)
        container.obs_records = obs.drain_records()
    return container
