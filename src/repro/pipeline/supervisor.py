"""The supervised worker pool behind the fault-tolerant executor.

Unlike ``multiprocessing.Pool`` — which offers no per-task timeout and
degrades badly when a worker dies — this pool is supervised directly:

* each worker is a dedicated :class:`multiprocessing.Process` with its
  own inbox and its own result pipe, so the parent always knows *which*
  job a worker holds and since when, and a worker that dies mid-send
  can only break its own channel;
* the parent's event loop dispatches eligible jobs to idle workers,
  collects results, enforces per-job wall-clock deadlines (a hung worker
  is SIGKILLed and its job requeued), detects dead workers (the job is
  requeued, the pool replenished) and applies the retry policy's
  backoff schedule;
* results are tagged with their attempt number, so a result racing a
  kill is recognized as stale and dropped instead of double-counting.

The module is deliberately free of policy decisions: what to retry and
how long to wait lives in :class:`~repro.pipeline.executor.RetryPolicy`;
what failures *look like* lives in :mod:`repro.errors`; how failures are
manufactured for testing lives in :mod:`repro.pipeline.faults`.
"""

from __future__ import annotations

import heapq
import os
import time
from multiprocessing.connection import wait

from ..errors import RetryExhaustedError, StageTimeoutError, WorkerCrashError
from ..obs import trace as obs
from .cache import ResultCache
from .executor import JobOutcome, RetryPolicy, _pool_context, execute_job, note_retry
from .spec import JobSpec

__all__ = ["run_supervised"]

#: Event-loop tick: the longest the parent sleeps before re-checking
#: deadlines, eligibility and worker liveness.
TICK_S = 0.05


def _worker_main(
    inbox, results, cache_dir, obs_enabled, profile_interval=0.0
) -> None:
    """Worker loop: take ``(index, spec, attempt, trace_ctx)`` until
    ``None``."""
    from . import executor

    executor._IN_POOL_WORKER = True
    obs.worker_mode(obs_enabled, profile_interval=profile_interval)
    cache = ResultCache(cache_dir) if cache_dir else None
    while True:
        item = inbox.get()
        if item is None:
            return
        index, spec, attempt, trace_ctx = item
        # adopt the supervisor's trace context: this worker's root span
        # (pipeline.job) parents on the supervisor's pipeline.batch span
        obs.set_trace_context(trace_ctx)
        outcome = execute_job(spec, cache, attempt=attempt)
        results.send((index, attempt, os.getpid(), outcome))


class _JobState:
    """Supervisor-side view of one job's progress."""

    __slots__ = ("spec", "attempt", "done")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.attempt = 0  # attempts dispatched so far
        self.done = False


class _Worker:
    """One supervised worker process and its dispatch bookkeeping."""

    __slots__ = ("proc", "inbox", "results", "job_index", "dispatched_at")

    def __init__(
        self, ctx, cache_dir, obs_enabled, profile_interval=0.0
    ) -> None:
        self.inbox = ctx.SimpleQueue()
        # A private, synchronous result channel.  A queue shared by all
        # workers is written under one cross-process lock (by a feeder
        # thread, after put() returns): a worker killed while holding it
        # would wedge every other worker's results.
        self.results, sender = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(
                self.inbox,
                sender,
                cache_dir,
                obs_enabled,
                profile_interval,
            ),
            daemon=True,
        )
        self.proc.start()
        # the worker now holds the only write end: its death reads as EOF
        sender.close()
        self.job_index: int | None = None
        self.dispatched_at = 0.0

    def dispatch(
        self, index: int, spec: JobSpec, attempt: int, trace_ctx=None
    ) -> None:
        self.job_index = index
        self.dispatched_at = time.monotonic()
        self.inbox.put((index, spec, attempt, trace_ctx))

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()


def run_supervised(
    indexed_specs: list[tuple[int, JobSpec]],
    workers: int,
    cache_dir: str | None,
    policy: RetryPolicy,
    collect,
    trace_ctx=None,
    profile_interval: float = 0.0,
) -> None:
    """Run ``indexed_specs`` on a supervised pool, finalizing each job
    exactly once through ``collect(index, outcome)``.

    ``trace_ctx`` is the executor's propagation context (the batch
    span); it rides along with every dispatched job so worker spans join
    the batch's causal tree.  ``profile_interval`` > 0 starts a resource
    profiler in every worker at that period.
    """
    ctx = _pool_context()
    obs_enabled = obs.ENABLED
    jobs = {index: _JobState(spec) for index, spec in indexed_specs}
    ready: list[int] = [index for index, _ in indexed_specs]
    waiting: list[tuple[float, int]] = []  # (eligible_at, index) heap
    open_jobs = len(jobs)
    pool = [
        _Worker(ctx, cache_dir, obs_enabled, profile_interval)
        for _ in range(workers)
    ]

    def finalize(index: int, outcome: JobOutcome) -> None:
        nonlocal open_jobs
        jobs[index].done = True
        open_jobs -= 1
        collect(index, outcome)

    def handle_failure(state: _JobState, index: int, outcome: JobOutcome) -> None:
        """Retry a failed attempt, or finalize it as exhausted."""
        kind = outcome.error_kind or "exception"
        if state.attempt < policy.max_attempts:
            delay = policy.delay_before(
                state.attempt + 1, state.spec.digest()
            )
            note_retry(state.spec, state.attempt + 1, kind, delay)
            obs.counter_inc(
                "pipeline_requeues_total",
                1,
                "jobs put back on the queue after a failed attempt",
                kind=kind,
            )
            heapq.heappush(waiting, (time.monotonic() + delay, index))
            return
        if policy.retries_enabled:
            outcome.error = (
                f"{RetryExhaustedError.__name__}: job {state.spec.label} "
                f"failed on all {state.attempt} attempts\n{outcome.error}"
            )
        finalize(index, outcome)

    def synthesized_failure(
        state: _JobState, worker: _Worker, error: str, kind: str
    ) -> JobOutcome:
        return JobOutcome(
            spec=state.spec,
            error=error,
            error_kind=kind,
            attempts=state.attempt,
            elapsed=time.monotonic() - worker.dispatched_at,
            pid=os.getpid(),  # synthesized by the parent
        )

    def replace(worker: _Worker) -> _Worker:
        worker.results.close()
        fresh = _Worker(ctx, cache_dir, obs_enabled, profile_interval)
        pool[pool.index(worker)] = fresh
        obs.counter_inc(
            "pipeline_worker_respawns_total",
            1,
            "replacement workers started after a kill or crash",
        )
        return fresh

    def receive(timeout: float):
        """The next result any worker sent, or None after ``timeout``."""
        for conn in wait([w.results for w in pool], timeout):
            try:
                return conn.recv()
            except (EOFError, OSError):
                # the worker died, perhaps mid-send: the liveness check
                # requeues its job and replaces it
                continue
        return None

    try:
        while open_jobs:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                ready.append(heapq.heappop(waiting)[1])
            for worker in pool:
                if worker.job_index is None and ready:
                    index = ready.pop(0)
                    state = jobs[index]
                    state.attempt += 1
                    worker.dispatch(
                        index, state.spec, state.attempt, trace_ctx
                    )

            # Sleep until something can happen: a result, a deadline
            # expiring, or a backoff elapsing.
            timeout = TICK_S
            if waiting:
                timeout = min(timeout, max(waiting[0][0] - now, 0.001))
            if policy.timeout_s is not None:
                for worker in pool:
                    if worker.job_index is not None:
                        left = (
                            worker.dispatched_at + policy.timeout_s - now
                        )
                        timeout = min(timeout, max(left, 0.001))
            message = receive(timeout)
            if message is not None:
                index, attempt, pid, outcome = message
                state = jobs.get(index)
                worker = next(
                    (w for w in pool if w.proc.pid == pid), None
                )
                if worker is not None and worker.job_index == index:
                    worker.job_index = None
                if state is None or state.done or attempt != state.attempt:
                    continue  # stale result racing a kill: drop it
                if not outcome.ok and state.attempt < policy.max_attempts:
                    # a retried attempt never reaches collect(); fold its
                    # telemetry in here so no worker metrics are lost
                    if outcome.pid != os.getpid():
                        obs.absorb(outcome.metrics, outcome.obs_records)
                    outcome.metrics = None
                    outcome.obs_records = []
                if outcome.ok:
                    finalize(index, outcome)
                else:
                    handle_failure(state, index, outcome)
                continue  # drain results before re-checking liveness

            now = time.monotonic()
            # deadline enforcement: kill and requeue hung jobs
            if policy.timeout_s is not None:
                for worker in pool:
                    index = worker.job_index
                    if index is None:
                        continue
                    if now - worker.dispatched_at < policy.timeout_s:
                        continue
                    state = jobs[index]
                    err = StageTimeoutError(
                        f"job {state.spec.label} exceeded its "
                        f"{policy.timeout_s:g}s wall-clock budget on "
                        f"attempt {state.attempt}; worker pid "
                        f"{worker.proc.pid} killed",
                        job=state.spec.label,
                        attempt=state.attempt,
                        timeout_s=policy.timeout_s,
                    )
                    obs.counter_inc(
                        "pipeline_timeouts_total",
                        1,
                        "jobs killed for exceeding the wall-clock budget",
                    )
                    obs.event(
                        "job_timeout",
                        job=state.spec.label,
                        attempt=state.attempt,
                        timeout_s=policy.timeout_s,
                    )
                    outcome = synthesized_failure(
                        state,
                        worker,
                        f"{type(err).__name__}: {err}",
                        "timeout",
                    )
                    worker.kill()
                    replace(worker)
                    handle_failure(state, index, outcome)

            # liveness: a dead worker's job is requeued, the pool refilled
            for worker in pool:
                if worker.proc.is_alive():
                    continue
                index = worker.job_index
                exitcode = worker.proc.exitcode
                worker.proc.join()
                fresh = replace(worker)
                if index is None or jobs[index].done:
                    continue
                state = jobs[index]
                detail = (
                    f"signal {-exitcode}" if exitcode and exitcode < 0
                    else f"exit code {exitcode}"
                )
                err = WorkerCrashError(
                    f"worker pid {worker.proc.pid} died ({detail}) while "
                    f"running job {state.spec.label} "
                    f"(attempt {state.attempt}); job requeued, pool "
                    f"replenished with pid {fresh.proc.pid}",
                    job=state.spec.label,
                    attempt=state.attempt,
                    exitcode=exitcode,
                )
                obs.counter_inc(
                    "pipeline_worker_crashes_total",
                    1,
                    "worker processes that died mid-job",
                )
                obs.event(
                    "worker_crash",
                    job=state.spec.label,
                    attempt=state.attempt,
                    exitcode=exitcode,
                )
                outcome = synthesized_failure(
                    state, worker, f"{type(err).__name__}: {err}", "crash"
                )
                handle_failure(state, index, outcome)
    finally:
        for worker in pool:
            if worker.proc.is_alive():
                worker.inbox.put(None)
        for worker in pool:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.kill()
            worker.results.close()
