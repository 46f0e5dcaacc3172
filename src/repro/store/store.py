"""The append-only, mmap-backed columnar trace store.

:class:`TraceStore` owns one store directory (see
:mod:`repro.store.format` for the layout) and exposes the full
lifecycle:

* ``ingest`` appends a trace's raw samples to the current chunk file and
  its metadata to the JSON-lines index — idempotently: re-ingesting
  identical content with identical metadata returns the existing record
  without writing a byte;
* ``attach`` memory-maps the trace's chunk (one shared read-only mapping
  per chunk per process) and returns a zero-copy ``numpy`` view of the
  samples — the hot path workers use to run kernels in place;
* ``verify`` re-hashes every record's bytes against the index and
  reports corruption, truncation and torn index lines;
* ``gc`` compacts: tombstoned traces and orphaned bytes (a crashed
  appender's tail) are dropped by rewriting chunks and index together.

Writes append data *before* index, so a crash can orphan bytes but never
index a trace whose bytes are missing; ``gc`` reclaims orphans.  Readers
in other processes attach through :func:`open_store`, which memoizes
read-only stores per path — the cheap operation a
:class:`~repro.store.TraceRef` resolution performs inside every worker.
"""

from __future__ import annotations

import json
import mmap
import os
import threading
from pathlib import Path

import numpy as np

from ..errors import SpecError, UsageError
from ..obs import trace as obs
from .format import (
    DEFAULT_CHUNK_BYTES,
    DTYPES,
    FORMAT_NAME,
    FORMAT_VERSION,
    TraceRecord,
    chunk_filename,
    content_hash,
    make_trace_id,
    read_index,
)

__all__ = ["TraceStore", "open_store"]

#: Process-wide chunk mappings: (resolved store root, chunk) -> mmap.
#: Shared across every store instance and every trace in a chunk, and
#: inherited for free by forked pool workers.
_CHUNK_MAPS: dict[tuple[str, int], mmap.mmap] = {}

#: Process-wide read-only store memo for TraceRef resolution.
_STORES: dict[str, "TraceStore"] = {}


def open_store(root: str | Path) -> "TraceStore":
    """A (memoized) read-only store for ``root`` — the worker-side entry
    point a :class:`~repro.store.TraceRef` resolves through."""
    key = str(Path(root).resolve())
    store = _STORES.get(key)
    if store is None:
        store = _STORES[key] = TraceStore(root, mode="r")
    return store


class TraceStore:
    """One trace-store directory, readable (``"r"``) or appendable
    (``"a"``; creates the directory and manifest when absent)."""

    def __init__(
        self,
        root: str | Path,
        mode: str = "r",
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> None:
        if mode not in ("r", "a"):
            raise UsageError(f"store mode must be 'r' or 'a', got {mode!r}")
        self.root = Path(root)
        self.mode = mode
        manifest_path = self.root / "manifest.json"
        if mode == "a":
            (self.root / "chunks").mkdir(parents=True, exist_ok=True)
            if not manifest_path.is_file():
                manifest = {
                    "format": FORMAT_NAME,
                    "version": FORMAT_VERSION,
                    "chunk_bytes": int(chunk_bytes),
                }
                tmp = manifest_path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(manifest, sort_keys=True) + "\n")
                os.replace(tmp, manifest_path)
        if not manifest_path.is_file():
            raise SpecError(
                f"{self.root} is not a trace store (no manifest.json)",
                store=str(self.root),
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != FORMAT_NAME:
            raise SpecError(
                f"{self.root} is not a {FORMAT_NAME} store",
                store=str(self.root),
            )
        if int(manifest.get("version", 0)) > FORMAT_VERSION:
            raise SpecError(
                f"{self.root} uses store version {manifest['version']}; "
                f"this library reads up to {FORMAT_VERSION}",
                store=str(self.root),
            )
        self.chunk_bytes = int(manifest.get("chunk_bytes", chunk_bytes))
        self._index: dict[str, TraceRecord] | None = None
        # Serializes index-load / dedupe / append / index-write, so
        # threads sharing this instance never claim the same chunk
        # offset.  Other processes appending to the same directory are
        # not covered.
        self._write_lock = threading.Lock()

    # -- paths / index ---------------------------------------------------------

    @property
    def index_path(self) -> Path:
        return self.root / "index.jsonl"

    def chunk_path(self, chunk: int) -> Path:
        return self.root / "chunks" / chunk_filename(chunk)

    def _load_index(self) -> dict[str, TraceRecord]:
        self._index = read_index(self.index_path)
        return self._index

    def records(self) -> list[TraceRecord]:
        """Every live trace record, in index order."""
        return list(self._load_index().values())

    def get(self, trace_id: str) -> TraceRecord:
        """One record by id; re-reads the index on a miss, so a reader
        opened before an ingest still sees the new trace."""
        index = self._index if self._index is not None else self._load_index()
        record = index.get(trace_id)
        if record is None:
            record = self._load_index().get(trace_id)
        if record is None:
            raise SpecError(
                f"no trace {trace_id!r} in store {self.root}",
                trace_id=trace_id,
                store=str(self.root),
            )
        return record

    def __len__(self) -> int:
        return len(self._load_index())

    def __contains__(self, trace_id: str) -> bool:
        return trace_id in self._load_index()

    # -- ingest ----------------------------------------------------------------

    def _append_chunk(self) -> tuple[int, Path]:
        """The chunk file new bytes go to (the highest-numbered one)."""
        chunks = sorted(
            int(p.stem.split("-")[1])
            for p in (self.root / "chunks").glob("chunk-*.bin")
        )
        chunk = chunks[-1] if chunks else 0
        return chunk, self.chunk_path(chunk)

    def ingest(
        self,
        current: np.ndarray,
        benchmark: str,
        *,
        dtype: str | None = None,
        generator: dict | None = None,
        meta: dict | None = None,
    ) -> TraceRecord:
        """Append one trace; returns its (possibly pre-existing) record.

        ``dtype`` selects the stored sample width (default: keep the
        array's own dtype when storable, else float64).  ``generator``
        records the exact simulator invocation so the pipeline can dedupe
        this trace against a regenerated one; pass ``None`` for external
        traces.  Ingest is idempotent: identical (content, benchmark,
        dtype, generator) collapses to the existing record.  Threads
        sharing this instance may ingest concurrently; processes
        appending to one directory must not.
        """
        if self.mode != "a":
            raise UsageError(
                f"store {self.root} is opened read-only; "
                "open with mode='a' to ingest"
            )
        current = np.asarray(current)
        if current.ndim != 1:
            raise SpecError("a trace must be a 1-D sample array")
        if dtype is None:
            dtype = (
                str(current.dtype)
                if str(current.dtype) in DTYPES
                else "float64"
            )
        data = np.ascontiguousarray(current, dtype=DTYPES[dtype])
        if not np.isfinite(data).all():
            bad = int(np.flatnonzero(~np.isfinite(data))[0])
            raise SpecError(
                f"trace {benchmark!r} has a non-finite sample at index "
                f"{bad}; sanitize before ingest "
                "(see repro.uarch.sanitize_current)",
                benchmark=benchmark,
                index=bad,
            )
        sha = content_hash(data)
        trace_id = make_trace_id(sha, benchmark, dtype, generator)
        with self._write_lock:
            index = self._load_index()
            existing = index.get(trace_id)
            if existing is not None:
                obs.counter_inc(
                    "store_ingest_dedups_total",
                    1,
                    "ingests satisfied by an existing identical trace",
                )
                return existing

            with obs.span(
                "store.ingest", benchmark=benchmark, nbytes=data.nbytes
            ):
                chunk, path = self._append_chunk()
                size = path.stat().st_size if path.is_file() else 0
                if size and size + data.nbytes > self.chunk_bytes:
                    chunk += 1
                    path = self.chunk_path(chunk)
                    size = 0
                record = TraceRecord(
                    trace_id=trace_id,
                    benchmark=benchmark,
                    dtype=dtype,
                    cycles=int(data.size),
                    chunk=chunk,
                    offset=size,
                    nbytes=int(data.nbytes),
                    sha256=sha,
                    generator=dict(generator) if generator else None,
                    meta=dict(meta) if meta else {},
                )
                # Data first, index second: a crash here orphans bytes that
                # gc() reclaims, but never indexes a trace with no bytes.
                with open(path, "ab") as fh:
                    fh.write(data.tobytes())
                    fh.flush()
                    os.fsync(fh.fileno())
                with open(self.index_path, "a", encoding="utf-8") as fh:
                    fh.write(record.to_json() + "\n")
                    fh.flush()
            index[trace_id] = record
            obs.counter_inc("store_ingests_total", 1, "traces ingested")
            obs.counter_inc(
                "store_ingested_bytes_total",
                data.nbytes,
                "sample bytes appended to chunk files",
            )
            return record

    def remove(self, trace_id: str) -> None:
        """Tombstone a trace (bytes are reclaimed by the next ``gc``)."""
        if self.mode != "a":
            raise UsageError(f"store {self.root} is opened read-only")
        self.get(trace_id)  # raise on unknown id
        line = json.dumps({"op": "remove", "trace_id": trace_id})
        with self._write_lock:
            with open(self.index_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._load_index()

    # -- attach (the zero-copy read path) --------------------------------------

    def _chunk_map(self, chunk: int, needed: int) -> mmap.mmap:
        """The shared read-only mapping of one chunk file, remapped when
        the file has grown past the existing mapping."""
        key = (str(self.root.resolve()), chunk)
        m = _CHUNK_MAPS.get(key)
        if m is None or m.closed or len(m) < needed:
            path = self.chunk_path(chunk)
            if not path.is_file():
                raise SpecError(
                    f"store {self.root} is missing {path.name}",
                    store=str(self.root),
                    chunk=chunk,
                )
            with open(path, "rb") as fh:
                m = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            _CHUNK_MAPS[key] = m
        return m

    def attach(
        self,
        trace_id: str | TraceRecord,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """A zero-copy, read-only view of (a slice of) one trace.

        The underlying chunk file is memory-mapped once per process and
        shared by every trace in it; the returned array is a
        ``frombuffer`` view into that mapping — no sample bytes are
        copied, and the OS page cache shares the physical pages across
        every attached process.
        """
        record = (
            trace_id
            if isinstance(trace_id, TraceRecord)
            else self.get(trace_id)
        )
        lo, hi, _ = slice(start, stop).indices(record.cycles)
        count = max(hi - lo, 0)
        dt = DTYPES[record.dtype]
        if count == 0:
            view = np.empty(0, dtype=dt)
        else:
            m = self._chunk_map(record.chunk, record.offset + record.nbytes)
            view = np.frombuffer(
                m,
                dtype=dt,
                count=count,
                offset=record.offset + lo * dt.itemsize,
            )
        obs.counter_inc("store_attaches_total", 1, "zero-copy trace attaches")
        obs.counter_inc(
            "store_attached_bytes_total",
            view.nbytes,
            "trace bytes exposed through mmap views (never copied)",
        )
        return view

    def ref(
        self,
        trace_id: str | TraceRecord,
        start: int = 0,
        stop: int | None = None,
    ):
        """A spec-embeddable :class:`~repro.store.TraceRef` to one trace."""
        from .ref import ref_for

        record = (
            trace_id
            if isinstance(trace_id, TraceRecord)
            else self.get(trace_id)
        )
        return ref_for(str(self.root), record, start, stop)

    # -- integrity -------------------------------------------------------------

    def verify(self) -> list[dict]:
        """Re-check every record against its bytes; returns problems.

        Each problem is a dict with a ``problem`` key (``missing-chunk``,
        ``truncated``, ``corrupt``, ``torn-index-line``) plus identifying
        context.  An empty list means the store is fully intact.
        """
        problems: list[dict] = []
        with obs.span("store.verify", store=str(self.root)):
            if self.index_path.is_file():
                with open(self.index_path, encoding="utf-8") as fh:
                    for lineno, line in enumerate(fh, 1):
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            json.loads(line)
                        except ValueError:
                            problems.append(
                                {"problem": "torn-index-line", "line": lineno}
                            )
            for record in self.records():
                path = self.chunk_path(record.chunk)
                if not path.is_file():
                    problems.append(
                        {
                            "problem": "missing-chunk",
                            "trace_id": record.trace_id,
                            "chunk": record.chunk,
                        }
                    )
                    continue
                if path.stat().st_size < record.offset + record.nbytes:
                    problems.append(
                        {
                            "problem": "truncated",
                            "trace_id": record.trace_id,
                            "chunk": record.chunk,
                        }
                    )
                    continue
                data = self.attach(record)
                if content_hash(data) != record.sha256:
                    problems.append(
                        {
                            "problem": "corrupt",
                            "trace_id": record.trace_id,
                            "benchmark": record.benchmark,
                            "chunk": record.chunk,
                        }
                    )
        if problems:
            obs.counter_inc(
                "store_verify_failures_total",
                len(problems),
                "integrity problems found by store verify",
            )
        return problems

    def gc(self) -> dict:
        """Compact the store: drop tombstoned traces and orphaned bytes.

        Rewrites chunk files and index atomically from the live records.
        Requires exclusive access (concurrent readers must re-attach
        afterwards — existing mappings keep reading the *old* bytes
        safely until then, since POSIX keeps mapped pages alive).
        Returns ``{"live", "reclaimed_bytes"}``.
        """
        if self.mode != "a":
            raise UsageError(f"store {self.root} is opened read-only")
        live = self.records()
        before = sum(
            p.stat().st_size
            for p in (self.root / "chunks").glob("chunk-*.bin")
        )
        chunks_dir = self.root / "chunks"
        tmp_paths: list[Path] = []
        new_records: list[TraceRecord] = []
        chunk, offset, out = 0, 0, None
        try:
            for record in live:
                data = self.attach(record)
                if out is None or (
                    offset and offset + record.nbytes > self.chunk_bytes
                ):
                    if out is not None:
                        out.close()
                    if out is not None:
                        chunk += 1
                    offset = 0
                    tmp = chunks_dir / f".gc-{os.getpid()}-{chunk}.bin"
                    tmp_paths.append(tmp)
                    out = open(tmp, "wb")
                out.write(np.ascontiguousarray(data).tobytes())
                new_records.append(
                    TraceRecord(
                        **{
                            **record.__dict__,
                            "chunk": chunk,
                            "offset": offset,
                        }
                    )
                )
                offset += record.nbytes
            if out is not None:
                out.close()
                out = None
            index_tmp = self.root / f".index-{os.getpid()}.tmp"
            with open(index_tmp, "w", encoding="utf-8") as fh:
                for record in new_records:
                    fh.write(record.to_json() + "\n")
            # Point of no return: replace index first (it only references
            # tmp chunks after the renames below complete; a crash in
            # between is repaired by verify/gc re-run reading old chunks).
            for old in chunks_dir.glob("chunk-*.bin"):
                old.unlink()
            for i, tmp in enumerate(tmp_paths):
                os.replace(tmp, self.chunk_path(i))
            os.replace(index_tmp, self.index_path)
        finally:
            if out is not None:
                out.close()
            for tmp in tmp_paths:
                tmp.unlink(missing_ok=True)
        # Old mappings describe deleted files; drop this process's memos.
        root_key = str(self.root.resolve())
        for key in [k for k in _CHUNK_MAPS if k[0] == root_key]:
            del _CHUNK_MAPS[key]
        self._load_index()
        after = sum(
            p.stat().st_size for p in chunks_dir.glob("chunk-*.bin")
        )
        reclaimed = max(before - after, 0)
        obs.counter_inc(
            "store_gc_reclaimed_bytes_total",
            reclaimed,
            "bytes reclaimed by store compaction",
        )
        return {"live": len(new_records), "reclaimed_bytes": reclaimed}

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Footprint summary for ``repro store ls``."""
        records = self.records()
        chunk_files = sorted((self.root / "chunks").glob("chunk-*.bin"))
        chunk_bytes = sum(p.stat().st_size for p in chunk_files)
        live_bytes = sum(r.nbytes for r in records)
        by_dtype: dict[str, int] = {}
        for r in records:
            by_dtype[r.dtype] = by_dtype.get(r.dtype, 0) + 1
        return {
            "root": str(self.root),
            "traces": len(records),
            "cycles": sum(r.cycles for r in records),
            "live_bytes": live_bytes,
            "chunk_files": len(chunk_files),
            "chunk_bytes": chunk_bytes,
            "reclaimable_bytes": max(chunk_bytes - live_bytes, 0),
            "by_dtype": by_dtype,
        }
