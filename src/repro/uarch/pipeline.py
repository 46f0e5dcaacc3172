"""The out-of-order core: fetch → dispatch → issue → writeback → commit.

A trace-driven superscalar model in the SimpleScalar mould (§3.2): a deep
front end feeding an 80-entry RUU and 40-entry LSQ, dependency-driven
dynamic issue onto Table 1's functional units, a combined branch predictor
with the paper's 12-cycle misprediction penalty, and the three-level cache
hierarchy.  Every cycle it tallies microarchitectural activity into the
Wattch power model and emits one per-cycle current sample — the signal all
of the paper's wavelet analyses consume.

Two external control knobs implement the dI/dt actuation mechanisms of §5:
``stall_issue`` (halt instruction issue for a cycle, dropping current) and
``inject_noops`` (issue dummy operations, raising current).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .branch import BranchTargetBuffer, ReturnAddressStack, make_predictor
from .caches import CacheHierarchy
from .config import ProcessorConfig
from .events import RunStatistics
from .funits import FunctionalUnits
from .isa import Instruction, OpClass
from .power_model import ActivityCounters, WattchPowerModel

__all__ = ["Pipeline"]

# Enum members bound once: on the per-cycle path an Enum class-attribute
# lookup costs several times the comparison it feeds.
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_FPALU = OpClass.FPALU
_INT_ALU_OPS = (OpClass.IALU, OpClass.BRANCH, OpClass.NOP)
_INT_MULT_OPS = (OpClass.IMULT, OpClass.IDIV)


class _Entry:
    """An RUU slot: one in-flight instruction and its dataflow state."""

    __slots__ = (
        "seq",
        "inst",
        "deps",
        "consumers",
        "issued",
        "completed",
        "mispredicted",
        "deep_load",
    )

    def __init__(self, seq: int, inst: Instruction, mispredicted: bool) -> None:
        self.seq = seq
        self.inst = inst
        self.deps = 0
        self.consumers: list[_Entry] = []
        self.issued = False
        self.completed = False
        self.mispredicted = mispredicted
        self.deep_load = False


class Pipeline:
    """Cycle-accurate core model producing a per-cycle current stream.

    Parameters
    ----------
    config:
        Machine parameters (Table 1 by default).
    stream:
        Iterator of dynamic :class:`Instruction` objects (the workload).
    power_model:
        Activity-to-current mapping; defaults to the Wattch-style model.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        stream: Iterator[Instruction],
        power_model: WattchPowerModel | None = None,
        track_breakdown: bool = False,
    ) -> None:
        self.config = config
        self.power = power_model or WattchPowerModel()
        self._stream = iter(stream)
        self._stream_done = False

        self.caches = CacheHierarchy(config)
        self.predictor = make_predictor(config)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.funits = FunctionalUnits(config)
        self.activity = ActivityCounters()
        self.stats = RunStatistics()

        self.cycle = 0
        self._seq = 0
        self._fetch_stall_until = 0
        self._fetch_blocked = False  # waiting on a mispredicted branch
        self._fetch_buffer: deque[tuple[Instruction, bool]] = deque()
        self._ruu: deque[_Entry] = deque()
        self._lsq_count = 0
        self._pending: dict[int, _Entry] = {}  # seq -> uncompleted entry
        self._ready: list[_Entry] = []
        self._completions: dict[int, list[_Entry]] = {}
        self._mem_outstanding = 0  # loads currently being serviced past L1
        self._pending_stores: dict[int, int] = {}  # addr -> in-flight count
        self._lookahead: Instruction | None = None

        # dI/dt controller hooks (set externally before each tick).
        self.stall_issue = False
        self.inject_noops = 0

        # Optional per-unit energy accounting (off by default: hot path).
        self._track_breakdown = track_breakdown
        self._unit_energy: dict[str, float] = {}

    # -- public api ----------------------------------------------------------

    def tick(self) -> float:
        """Advance one cycle; returns the cycle's current draw in amperes."""
        activity = self.activity
        activity.reset()
        # The functional-unit limiters reset themselves on the new cycle.
        ports_left = self._commit(self.config.memory_ports)
        self._writeback()
        if self.stall_issue:
            self.stats.stall_cycles += 1
        else:
            self._issue(ports_left)
        self._dispatch()
        self._fetch()

        if self.inject_noops:
            activity.injected_noops = self.inject_noops
            self.stats.noops_injected += self.inject_noops

        current = self.power.current(activity)
        if self._track_breakdown:
            for name, amps in self.power.unit_currents(activity).items():
                self._unit_energy[name] = (
                    self._unit_energy.get(name, 0.0) + amps
                )
        self.cycle += 1
        self.stats.cycles = self.cycle
        return current

    @property
    def power_breakdown(self) -> dict[str, float]:
        """Mean per-unit current (amps) so far; needs ``track_breakdown``."""
        if not self._track_breakdown:
            raise RuntimeError("construct the Pipeline with track_breakdown=True")
        if self.cycle == 0:
            return {}
        return {k: v / self.cycle for k, v in self._unit_energy.items()}

    @property
    def drained(self) -> bool:
        """True when the stream ended and the machine has emptied."""
        return self._stream_done and not self._ruu and not self._fetch_buffer

    @property
    def branch_recovery(self) -> bool:
        """Is the front end blocked on a mispredicted branch? (§4.3 signal)"""
        return self._fetch_blocked or self.cycle < self._fetch_stall_until

    @property
    def l2_miss_outstanding(self) -> bool:
        """Is any load currently being serviced past the L1? (§4.3 signal)"""
        return self._mem_outstanding > 0

    # -- pipeline stages (in reverse order to avoid same-cycle races) --------

    def _commit(self, ports_left: int) -> int:
        ruu = self._ruu
        width = self.config.commit_width
        committed = 0
        while committed < width and ruu:
            head = ruu[0]
            if not head.completed:
                break
            inst = head.inst
            if inst.op is _STORE:
                if ports_left == 0:
                    break
                ports_left -= 1
                self._store_writeback(inst.addr)
                stores = self._pending_stores
                remaining = stores.get(inst.addr, 1) - 1
                if remaining:
                    stores[inst.addr] = remaining
                else:
                    stores.pop(inst.addr, None)
            ruu.popleft()
            if inst.is_mem:
                self._lsq_count -= 1
            committed += 1
        self.activity.committed += committed
        self.stats.committed += committed
        return ports_left

    def _store_writeback(self, addr: int) -> None:
        """Retire a store through the write buffer (charges cache energy)."""
        before_l1 = self.caches.l1d.misses
        before_l2 = self.caches.l2.misses
        self.caches.access_data(addr)
        self.activity.dcache_accesses += 1
        self.stats.l1d_accesses += 1
        if self.caches.l1d.misses != before_l1:
            self.stats.l1d_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1

    def _writeback(self) -> None:
        done = self._completions.pop(self.cycle, None)
        if not done:
            return
        activity = self.activity
        pending = self._pending
        ready = self._ready
        wakeups = 0
        for entry in done:
            entry.completed = True
            pending.pop(entry.seq, None)
            if entry.deep_load:
                # An L1-missing load finished being serviced.
                self._mem_outstanding -= 1
            consumers = entry.consumers
            wakeups += len(consumers)
            for consumer in consumers:
                consumer.deps -= 1
                if consumer.deps == 0 and not consumer.issued:
                    ready.append(consumer)
            if entry.mispredicted:
                # Resolution: redirect the front end after the penalty.
                self._fetch_blocked = False
                self._fetch_stall_until = max(
                    self._fetch_stall_until,
                    self.cycle + self.config.branch_penalty,
                )
        activity.completions += len(done)
        activity.regfile_writes += len(done)
        activity.wakeups += wakeups

    def _issue(self, ports_left: int) -> None:
        ready = self._ready
        width = self.config.issue_width
        if not ready or width == 0:
            return
        activity = self.activity
        completions = self._completions
        pending_stores = self._pending_stores
        try_issue = self.funits.try_issue
        cycle = self.cycle
        leftovers: list[_Entry] = []
        issued = 0
        for k, entry in enumerate(ready):
            if issued >= width:
                leftovers.extend(ready[k:])
                break
            inst = entry.inst
            op = inst.op
            if op is _LOAD:
                if ports_left == 0:
                    leftovers.append(entry)
                    continue
                if inst.addr in pending_stores:
                    # Store-to-load forwarding: an in-flight store to the
                    # same address supplies the data from the LSQ in one
                    # cycle, no cache access.
                    latency = 1
                    activity.lsq_issues += 1
                    self.stats.store_forwards += 1
                elif self._mem_outstanding >= self.config.mshr_entries:
                    # All miss-status registers busy: the load must wait.
                    leftovers.append(entry)
                    continue
                else:
                    ports_left -= 1
                    latency, deep = self._load_latency(inst.addr)
                    activity.lsq_issues += 1
                    if deep:
                        entry.deep_load = True
                        self._mem_outstanding += 1
            elif op is _STORE:
                # Address generation only; data is written at commit.
                latency = 1
                activity.lsq_issues += 1
            else:
                latency = try_issue(op, cycle)
                if latency is None:
                    leftovers.append(entry)
                    continue
                self._count_fu(op)
            entry.issued = True
            issued += 1
            completions.setdefault(cycle + latency, []).append(entry)
        activity.regfile_reads += 2 * issued
        self.stats.issued += issued
        self._ready = leftovers

    def _count_fu(self, op: OpClass) -> None:
        if op in _INT_ALU_OPS:
            self.activity.issued_ialu += 1
        elif op in _INT_MULT_OPS:
            self.activity.issued_imult += 1
        elif op is _FPALU:
            self.activity.issued_fpalu += 1
        else:
            self.activity.issued_fpmult += 1

    def _load_latency(self, addr: int) -> tuple[int, bool]:
        before_l1 = self.caches.l1d.misses
        before_l2 = self.caches.l2.misses
        latency, _ = self.caches.access_data(addr)
        self.activity.dcache_accesses += 1
        self.stats.l1d_accesses += 1
        deep = self.caches.l1d.misses != before_l1
        if deep:
            self.stats.l1d_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1
            if self.config.prefetch_next_line:
                # Sequential prefetcher: start pulling the next line; the
                # extra traffic costs cache energy but no stall.
                if self.caches.prefetch_data(addr):
                    self.activity.dcache_accesses += 1
                    self.activity.l2_accesses += 1
        return latency, deep

    def _dispatch(self) -> None:
        fetch_buffer = self._fetch_buffer
        if not fetch_buffer:
            return
        config = self.config
        width = config.decode_width
        room = config.ruu_size - len(self._ruu)
        if room <= 0 or width == 0:
            return
        if room < width:
            width = room
        lsq_size = config.lsq_size
        ruu = self._ruu
        pending = self._pending
        ready = self._ready
        seq = self._seq
        dispatched = 0
        while dispatched < width and fetch_buffer:
            inst, mispredicted = fetch_buffer[0]
            if inst.is_mem and self._lsq_count >= lsq_size:
                break
            fetch_buffer.popleft()
            entry = _Entry(seq, inst, mispredicted)
            for dist in (inst.src1_dist, inst.src2_dist):
                if dist > 0:
                    producer = pending.get(seq - dist)
                    if producer is not None and not producer.completed:
                        producer.consumers.append(entry)
                        entry.deps += 1
            ruu.append(entry)
            pending[seq] = entry
            seq += 1
            if inst.is_mem:
                self._lsq_count += 1
                if inst.op is _STORE:
                    stores = self._pending_stores
                    stores[inst.addr] = stores.get(inst.addr, 0) + 1
            if entry.deps == 0:
                ready.append(entry)
            dispatched += 1
        self._seq = seq
        activity = self.activity
        activity.decoded += dispatched
        activity.dispatched += dispatched
        self.stats.dispatched += dispatched

    def _fetch(self) -> None:
        if (
            self._fetch_blocked
            or self.cycle < self._fetch_stall_until
            or self._stream_done
        ):
            return
        if len(self._fetch_buffer) >= self.config.fetch_queue_size:
            return

        first = self._next_instruction()
        if first is None:
            return
        # One I-cache line access per fetch cycle.
        before_l1 = self.caches.l1i.misses
        before_l2 = self.caches.l2.misses
        latency, _ = self.caches.access_instruction(first.pc)
        self.activity.icache_accesses += 1
        if self.caches.l1i.misses != before_l1:
            self.stats.l1i_misses += 1
            self.activity.l2_accesses += 1
            self.stats.l2_accesses += 1
            if self.caches.l2.misses != before_l2:
                self.stats.l2_misses += 1
                self.activity.memory_accesses += 1
            # The line is being filled; retry the same instruction later.
            self._fetch_stall_until = self.cycle + latency
            self._unfetch(first)
            return

        fetch_buffer = self._fetch_buffer
        fetch_width = self.config.fetch_width
        queue_size = self.config.fetch_queue_size
        stream = self._stream
        fetched = 0
        inst = first
        while True:
            fetched += 1
            if inst.is_branch:
                if self._fetch_branch(inst):
                    break
            else:
                fetch_buffer.append((inst, False))
            if fetched >= fetch_width or len(fetch_buffer) >= queue_size:
                break
            # The lookahead slot was emptied by the first fetch above.
            try:
                inst = next(stream)
            except StopIteration:
                self._stream_done = True
                break
            if inst is None:
                break
        self.stats.fetched += fetched

    def _fetch_branch(self, inst: Instruction) -> bool:
        """Predict and buffer one branch; True = stop fetching."""
        mispredicted = False
        stop = False
        self.activity.bpred_lookups += 1
        self.stats.branches += 1
        correct = self.predictor.update(inst.pc, inst.taken)
        if inst.is_call:
            self.ras.push(inst.pc + 4)
        if inst.is_return:
            correct = correct and self.ras.pop() is not None
        if inst.taken:
            target = self.btb.lookup(inst.pc)
            self.btb.update(inst.pc, inst.addr)
            if correct and target is None and not inst.is_return:
                # Right direction, unknown target: one-cycle bubble.
                self._fetch_stall_until = max(
                    self._fetch_stall_until, self.cycle + 2
                )
            stop = True  # taken branches end the fetch group
        if not correct:
            mispredicted = True
            self.stats.mispredictions += 1
            self._fetch_blocked = True
            stop = True
        self._fetch_buffer.append((inst, mispredicted))
        return stop

    def _next_instruction(self) -> Instruction | None:
        if self._stream_done:
            return None
        if self._lookahead is not None:
            inst, self._lookahead = self._lookahead, None
            return inst
        try:
            return next(self._stream)
        except StopIteration:
            self._stream_done = True
            return None

    def _unfetch(self, inst: Instruction) -> None:
        """Put an instruction back (I-cache miss before it was consumed)."""
        self._lookahead = inst
