"""Chunked/streaming window iteration over current traces.

The §4 characterization consumes a trace strictly as a sequence of
non-overlapping power-of-two windows, so no stage ever needs the whole
trace resident: this module turns any source — an in-memory array, a
memory-mapped ``.npy`` file, or an arbitrary iterable of sample chunks —
into a stream of exact-size windows with O(window) working memory.

The streaming aggregators feed whole *blocks* of windows (one chunk's
worth at a time) through the same batched kernel path as
:class:`~repro.core.WaveletVoltageEstimator`'s whole-trace methods.
Because every kernel reduction is row-local and the final reduction runs
over the concatenated per-window results, a streamed estimate is
bit-identical to the in-memory one on either kernel backend.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..errors import SpecError
from ..obs import trace as obs

__all__ = [
    "as_chunks",
    "iter_windows",
    "iter_window_blocks",
    "streaming_fraction_below",
    "streaming_level_contributions",
]

#: Default samples per chunk when re-chunking an array-like source.
CHUNK = 1 << 16


def as_chunks(source, chunk: int = CHUNK) -> Iterator[np.ndarray]:
    """Yield 1-D float chunks from any trace source.

    Accepts a 1-D array (or memmap), a ``.npy``/``.npz`` path, or an
    iterable of scalars/arrays.  ``.npy`` files are memory-mapped so an
    arbitrarily long on-disk trace is never fully materialized; ``.npz``
    archives (our :mod:`~repro.uarch.traceio` format) decompress fully —
    prefer ``.npy`` for traces that do not fit in memory.
    """
    if chunk < 1:
        raise SpecError("chunk must be at least one sample")
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".npy":
            source = np.load(path, mmap_mode="r")
        else:
            from ..uarch.traceio import import_current_trace

            source = import_current_trace(path).current
    if isinstance(source, np.ndarray):
        if source.ndim != 1:
            raise SpecError("current trace must be 1-D")
        for start in range(0, len(source), chunk):
            yield np.asarray(source[start : start + chunk], dtype=float)
        return
    buf: list[float] = []
    for piece in source:
        arr = np.atleast_1d(np.asarray(piece, dtype=float))
        if arr.ndim != 1:
            raise SpecError("trace chunks must be scalars or 1-D arrays")
        if len(buf) + arr.size >= chunk:
            yield np.concatenate([np.asarray(buf), arr]) if buf else arr
            buf = []
        else:
            buf.extend(arr.tolist())
    if buf:
        yield np.asarray(buf, dtype=float)


def iter_windows(
    source, window: int, chunk: int = CHUNK
) -> Iterator[np.ndarray]:
    """Non-overlapping ``window``-sized views of a trace, streamed.

    The rows of :func:`iter_window_blocks`: the trailing partial window
    (fewer than ``window`` samples) is dropped, matching the whole-trace
    estimators' tiling.
    """
    for block in iter_window_blocks(source, window, chunk):
        yield from block


def iter_window_blocks(
    source, window: int, chunk: int = CHUNK
) -> Iterator[np.ndarray]:
    """Stream ``(k, window)`` matrices of consecutive full windows.

    Each yielded matrix holds every full window of one chunk (so the
    batched kernels get real work per call), the trailing partial window
    is dropped, and working memory stays O(chunk).
    """
    if window < 1:
        raise SpecError("window must be at least one sample")
    carry = np.empty(0)
    emitted = 0
    try:
        for arr in as_chunks(source, chunk=max(chunk, window)):
            if carry.size:
                arr = np.concatenate([carry, arr])
            count = len(arr) // window
            if count:
                yield arr[: count * window].reshape(count, window)
            emitted += count
            carry = arr[count * window :]
    finally:
        if emitted:
            obs.counter_inc(
                "pipeline_windows_total",
                emitted,
                "characterization windows analyzed",
            )


def streaming_fraction_below(
    estimator, source, threshold: float
) -> tuple[float, int]:
    """Streamed equivalent of ``estimator.estimate_fraction_below``.

    Returns ``(estimate, windows_seen)``.  Each block goes through the
    estimator's batched ``window_probs_below`` (kernel-dispatched), and
    the final reduction runs over the concatenated per-window
    probabilities — the same floats, reduced the same way, as the
    in-memory method, so results are bit-identical for the same trace.
    """
    probs = [
        estimator.window_probs_below(block, threshold)
        for block in iter_window_blocks(source, estimator.window)
    ]
    if not probs:
        raise SpecError(
            f"trace shorter than one {estimator.window}-cycle window"
        )
    flat = np.concatenate(probs)
    return float(flat.sum()) / len(flat), len(flat)


def streaming_level_contributions(estimator, source) -> dict[int, float]:
    """Streamed equivalent of ``estimator.level_contributions``."""
    blocks = [
        estimator.window_contribution_terms(block)
        for block in iter_window_blocks(source, estimator.window)
    ]
    if not blocks:
        raise SpecError(
            f"trace shorter than one {estimator.window}-cycle window"
        )
    terms = np.concatenate(blocks, axis=1)
    totals = terms.sum(axis=1)
    count = terms.shape[1]
    return {
        lvl: float(totals[lvl - 1]) / count
        for lvl in range(1, estimator.levels + 1)
    }

