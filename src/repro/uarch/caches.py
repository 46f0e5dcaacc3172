"""Cache hierarchy: Table 1's L1 I/D, unified L2 and main memory.

Set-associative caches with true LRU replacement.  The hierarchy returns,
for each access, the total latency and the deepest level that serviced it —
the pipeline charges the latency, and the characterization code uses the
service level to correlate voltage behaviour with L2 misses (§4.3).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

from .config import CacheConfig, ProcessorConfig

__all__ = ["ServiceLevel", "Cache", "CacheHierarchy"]


class ServiceLevel(IntEnum):
    """Deepest structure touched by an access."""

    L1 = 1
    L2 = 2
    MEMORY = 3


class Cache:
    """One set-associative cache level with LRU replacement."""

    def __init__(self, config: CacheConfig, name: str) -> None:
        self.config = config
        self.name = name
        self._offset_bits = config.line_bytes.bit_length() - 1
        if config.sets & (config.sets - 1):
            raise ValueError("set count must be a power of two")
        self._set_mask = config.sets - 1
        # Per set: list of tags, most recently used first.
        self._sets: list[list[int]] = [[] for _ in range(config.sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr >> self._offset_bits
        return line & self._set_mask, line

    def access(self, addr: int) -> bool:
        """Access one address; returns True on hit.  Misses allocate."""
        idx, tag = self._locate(addr)
        tags = self._sets[idx]
        try:
            pos = tags.index(tag)
        except ValueError:
            self.misses += 1
            tags.insert(0, tag)
            del tags[self.config.ways :]
            return False
        if pos:
            tags.insert(0, tags.pop(pos))
        self.hits += 1
        return True

    def install(self, ranges: Sequence[range]) -> None:
        """Fill an empty cache as touching every address of ``ranges`` would.

        The addresses are touched in order, range after range.  An LRU set
        ends up holding its ``ways`` most recently touched distinct lines,
        most recent first, so walking the ranges backwards and keeping the
        first ``ways`` distinct lines per set yields the final state
        without simulating a single access; the walk stops once every set
        is full.  Hit and miss counters are left alone.
        """
        sets = self._sets
        if any(sets):
            raise ValueError(f"{self.name}: install needs an empty cache")
        ways = self.config.ways
        mask = self._set_mask
        unfilled = len(sets)
        for addrs in reversed(ranges):
            for line in reversed(self._lines(addrs)):
                tags = sets[line & mask]
                if len(tags) < ways and line not in tags:
                    tags.append(line)
                    if len(tags) == ways:
                        unfilled -= 1
                        if not unfilled:
                            return

    def _lines(self, addrs: range) -> range:
        """The distinct lines an ascending address range touches, in order."""
        if not addrs:
            return range(0)
        line_bytes = self.config.line_bytes
        step = addrs.step
        if step < 0 or (step % line_bytes and line_bytes % step):
            raise ValueError(
                f"{self.name}: address ranges must ascend in a step that "
                f"divides or is a multiple of the {line_bytes}-byte line, "
                f"not {step}"
            )
        return range(
            addrs.start >> self._offset_bits,
            (addrs[-1] >> self._offset_bits) + 1,
            max(1, addrs.step >> self._offset_bits),
        )

    @property
    def untouched(self) -> bool:
        """True until the first access (or install) reaches this cache."""
        return not (self.hits or self.misses or any(self._sets))

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or counters."""
        idx, tag = self._locate(addr)
        return tag in self._sets[idx]

    @property
    def accesses(self) -> int:
        """Total accesses so far."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio over the run."""
        return self.misses / self.accesses if self.accesses else 0.0

    def flush(self) -> None:
        """Invalidate all lines (counters are preserved)."""
        for tags in self._sets:
            tags.clear()


class CacheHierarchy:
    """L1I + L1D backed by a unified L2 backed by main memory."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self.l1i = Cache(config.l1i, "L1I")
        self.l1d = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.memory_accesses = 0
        self.prefetches = 0

    def prewarm(self, data: Sequence[range], code: Sequence[range]) -> None:
        """Install the state left by touching ``data``, then ``code``.

        Equivalent to one :meth:`access_data` per address of ``data``
        followed by one :meth:`access_instruction` per address of
        ``code``, then zeroing every counter — but computed in closed
        form by :meth:`Cache.install`.  Ranges must be ascending and must
        not share L1 lines with each other, so the first touch of every
        L1 line misses and the L2 sees exactly those first touches.  Only
        a fresh hierarchy can be prewarmed: on a used one the L1 misses
        would depend on what is already resident.
        """
        caches = (self.l1i, self.l1d, self.l2)
        if self.memory_accesses or not all(c.untouched for c in caches):
            raise ValueError("prewarm needs a fresh, never-accessed hierarchy")
        l2_touches = _first_touches(
            data, self.config.l1d.line_bytes
        ) + _first_touches(code, self.config.l1i.line_bytes)
        self.l1d.install(data)
        self.l1i.install(code)
        self.l2.install(l2_touches)

    def _through_l2(self, addr: int, l1_latency: int) -> tuple[int, ServiceLevel]:
        if self.l2.access(addr):
            return l1_latency + self.config.l2.latency, ServiceLevel.L2
        self.memory_accesses += 1
        return (
            l1_latency + self.config.l2.latency + self.config.memory_latency,
            ServiceLevel.MEMORY,
        )

    def prefetch_data(self, addr: int) -> bool:
        """Pull ``addr``'s *next* line toward the L1D (sequential prefetch).

        Returns True when the prefetch had to fetch the line (i.e. it was
        not already L1-resident).  Latency is hidden by the prefetcher;
        only the cache state and the prefetch counter change.
        """
        next_line = addr + self.config.l1d.line_bytes
        if self.l1d.probe(next_line):
            return False
        self.l1d.access(next_line)
        self.l2.access(next_line)
        self.prefetches += 1
        return True

    def access_instruction(self, pc: int) -> tuple[int, ServiceLevel]:
        """Instruction fetch: (total latency, deepest level)."""
        if self.l1i.access(pc):
            return self.config.l1i.latency, ServiceLevel.L1
        return self._through_l2(pc, self.config.l1i.latency)

    def access_data(self, addr: int) -> tuple[int, ServiceLevel]:
        """Data access: (total latency, deepest level)."""
        if self.l1d.access(addr):
            return self.config.l1d.latency, ServiceLevel.L1
        return self._through_l2(addr, self.config.l1d.latency)


def _first_touches(ranges: Sequence[range], line_bytes: int) -> list[range]:
    """The addresses of ``ranges`` that touch a line for the first time.

    These are the L1 misses of a walk over disjoint ascending ranges, and
    so the accesses the L2 sees.  A range whose step is a multiple of the
    line touches a new line every address; a finer step touches a new
    line at its first address and at the first address past each line
    boundary after it.
    """
    spans = sorted((r.start, r[-1]) for r in ranges if r)
    for (_, last), (start, _) in zip(spans, spans[1:]):
        if start // line_bytes <= last // line_bytes:
            raise ValueError("prewarm ranges must not share cache lines")
    out: list[range] = []
    for r in ranges:
        if not r or r.step % line_bytes == 0:
            out.append(r)
            continue
        boundary = (r.start // line_bytes + 1) * line_bytes
        following = r.start + -(-(boundary - r.start) // r.step) * r.step
        out.append(range(r.start, r.start + 1))
        out.append(range(following, r.stop, line_bytes))
    return out
