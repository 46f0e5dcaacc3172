"""The single batch-submission entry point: ``submit(specs, options)``.

Every execution knob that used to travel as a growing kwarg list on
``run_batch`` (and drift between the CLI and ``serve/``) lives on one
frozen :class:`BatchOptions` value.  Spec *construction* stays with the
builders (``build_characterization_jobs`` and friends) — they describe
*what* to compute; :class:`BatchOptions` describes *how hard and where*
to compute it.

``submit`` also owns the two environment bridges that the CLI used to
set up by hand:

* ``options.kernels`` (a :class:`~repro.kernels.KernelConfig`) is
  entered as a context for the run and mirrored into
  ``REPRO_KERNEL_BACKEND`` so spawn-started pool workers resolve the
  same backend;
* ``options.fault_plan`` is mirrored into ``REPRO_FAULT_PLAN`` for the
  run (workers read the plan from the environment).

Both are restored on exit, so nested/serial submits cannot leak state
into each other.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

from ..errors import SpecError
from ..kernels import ENV_VAR as KERNEL_ENV_VAR
from ..kernels import KernelConfig
from . import faults
from .executor import (
    DEFAULT_MAX_BLOCK,
    BatchResult,
    PipelineExecutor,
    RetryPolicy,
)

__all__ = ["BatchOptions", "submit"]


@dataclass(frozen=True)
class BatchOptions:
    """How a batch of specs is executed — the whole surface, one value.

    Attributes
    ----------
    jobs:
        Worker processes (1 = inline, no pool; negative = CPU count).
    cache_dir:
        On-disk result cache root, or ``None`` for no cache.
    retries / timeout_s / backoff_s:
        Fault-tolerance shorthand: ``retries`` extra attempts per job,
        an optional per-dispatch wall-clock budget (a block job's budget
        covers all its members) and the base backoff delay.  Ignored
        when an explicit ``policy`` is given.
    policy:
        A full :class:`~repro.pipeline.RetryPolicy`, overriding the
        shorthand fields.
    resume:
        Pre-scan the cache and satisfy fully-cached jobs without
        occupying the pool.
    raise_on_error:
        Raise :class:`~repro.errors.PipelineError` on any failure
        (``False`` degrades to a structured failure report).
    store:
        Trace-store root the batch's specs were built against, recorded
        for provenance (the spec builders consume the live store; the
        executor never touches it).
    fault_plan:
        Fault-injection plan (directive string or named plan) exported
        to ``REPRO_FAULT_PLAN`` for the duration of the run.
    kernels:
        A :class:`~repro.kernels.KernelConfig` active for the run (and
        mirrored to the environment for spawned workers).
    block / max_block:
        Block-dispatch mode (``"auto"`` fuses compatible characterize
        jobs when the batched backend is active; ``"always"`` /
        ``"never"`` force it) and the member cap per block.
    """

    jobs: int = 1
    cache_dir: str | None = None
    retries: int = 0
    timeout_s: float | None = None
    backoff_s: float = 0.1
    policy: RetryPolicy | None = None
    resume: bool = False
    raise_on_error: bool = True
    store: str | None = None
    fault_plan: str | None = None
    kernels: KernelConfig | None = None
    block: str = "auto"
    max_block: int = DEFAULT_MAX_BLOCK

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise SpecError("retries must be non-negative")
        if self.block not in ("auto", "always", "never"):
            raise SpecError(
                f"block must be 'auto', 'always' or 'never', "
                f"not {self.block!r}"
            )

    def retry_policy(self) -> RetryPolicy:
        """The effective policy: explicit ``policy`` wins, else the
        shorthand fields build one."""
        if self.policy is not None:
            return self.policy
        return RetryPolicy(
            max_attempts=self.retries + 1,
            timeout_s=self.timeout_s,
            backoff_s=self.backoff_s,
        )

    def with_(self, **changes) -> "BatchOptions":
        """A copy with ``changes`` applied (frozen-dataclass ergonomics)."""
        return replace(self, **changes)


@contextmanager
def _env_var(name: str, value: str):
    """Set ``name`` for the duration, restoring the prior value after."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def submit(specs, options: BatchOptions | None = None, *, progress=None) -> BatchResult:
    """Execute ``specs`` under ``options`` — the one way batches run.

    ``progress``, if given, receives each per-job
    :class:`~repro.pipeline.JobOutcome` as it completes (block results
    are fanned out per member before reaching it).  Every internal
    caller — CLI, ``serve/``, experiments, benches — routes through
    here, so execution behavior cannot drift between entry points.
    """
    options = options or BatchOptions()
    executor = PipelineExecutor(
        workers=options.jobs,
        cache_dir=options.cache_dir,
        raise_on_error=options.raise_on_error,
        policy=options.retry_policy(),
        block=options.block,
        max_block=options.max_block,
    )
    with ExitStack() as stack:
        if options.kernels is not None:
            stack.enter_context(options.kernels)
            if options.kernels.backend is not None:
                stack.enter_context(
                    _env_var(KERNEL_ENV_VAR, options.kernels.backend)
                )
        if options.fault_plan is not None:
            stack.enter_context(_env_var(faults.ENV_VAR, options.fault_plan))
        return executor.run(
            specs, progress=progress, resume=options.resume
        )
