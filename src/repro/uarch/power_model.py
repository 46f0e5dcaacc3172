"""Wattch-style activity-based power accounting.

Per-cycle power is the sum, over microarchitectural structures, of an
access-proportional dynamic term plus a conditional-clocking residual for
idle structures (Wattch's ``cc3`` scheme: gated-off units still draw a
fraction of their active power).  With the paper's Vdd = 1.0 V, one watt is
one ampere, so the model emits per-cycle *current* directly (§3.2).

The absolute numbers are chosen to land in the envelope of a 3 GHz
high-performance core of the era — roughly 13 A fully stalled to ~55 A at
peak issue — because the paper's phenomena depend on the *dynamic range*
and *event structure* of the current, not on its absolute calibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Callable

__all__ = ["ActivityCounters", "UnitPower", "WattchPowerModel", "ClockGating"]


class ActivityCounters:
    """Per-cycle activity, reset every cycle by the pipeline."""

    __slots__ = (
        "fetches",
        "icache_accesses",
        "bpred_lookups",
        "decoded",
        "dispatched",
        "issued_ialu",
        "issued_imult",
        "issued_fpalu",
        "issued_fpmult",
        "lsq_issues",
        "dcache_accesses",
        "l2_accesses",
        "memory_accesses",
        "wakeups",
        "completions",
        "regfile_reads",
        "regfile_writes",
        "committed",
        "injected_noops",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (start of cycle)."""
        # Straight-line stores: this runs every simulated cycle.
        self.fetches = 0
        self.icache_accesses = 0
        self.bpred_lookups = 0
        self.decoded = 0
        self.dispatched = 0
        self.issued_ialu = 0
        self.issued_imult = 0
        self.issued_fpalu = 0
        self.issued_fpmult = 0
        self.lsq_issues = 0
        self.dcache_accesses = 0
        self.l2_accesses = 0
        self.memory_accesses = 0
        self.wakeups = 0
        self.completions = 0
        self.regfile_reads = 0
        self.regfile_writes = 0
        self.committed = 0
        self.injected_noops = 0


class ClockGating(Enum):
    """Conditional-clocking styles (Wattch's cc1/cc3 spectrum)."""

    NONE = "none"  # idle units draw full active power
    CC3 = "cc3"  # idle units draw a fixed fraction (default)
    IDEAL = "ideal"  # idle units draw nothing


@dataclass(frozen=True)
class UnitPower:
    """One structure's power characteristics (amps at Vdd = 1 V)."""

    name: str
    counter: str  # ActivityCounters field (or "" for always-on)
    per_access: float
    idle: float
    max_per_cycle: int  # structural bound, for the NONE gating style


@dataclass(frozen=True)
class WattchPowerModel:
    """Maps per-cycle activity to per-cycle current.

    Frozen: :meth:`current` runs off a per-unit plan built once at
    construction, which must never go stale.

    Parameters
    ----------
    gating:
        Conditional-clocking style; ``CC3`` (default) reproduces the
        activity-sensitive behaviour the paper's current traces show.
    idle_fraction:
        Fraction of active power an idle unit draws under ``CC3``.
    """

    gating: ClockGating = ClockGating.CC3
    idle_fraction: float = 0.10
    clock_tree: float = 8.0
    static: float = 3.0
    units: tuple[UnitPower, ...] = field(default_factory=lambda: _DEFAULT_UNITS)
    # The plan :meth:`current` runs off: a getter reading every unit's
    # counter and then the no-op count, the activity-independent floor,
    # and per activity-dependent unit its (per_access, idle) pair.
    _counts: Callable = field(init=False, repr=False, compare=False)
    _floor: float = field(init=False, repr=False, compare=False)
    _terms: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.idle_fraction <= 1.0:
            raise ValueError("idle_fraction must be in [0, 1]")
        # attrgetter of a single name returns the bare value: the trailing
        # no-op count keeps a one-unit table a tuple, and an empty table
        # reads it twice.
        names = [u.counter for u in self.units] + ["injected_noops"]
        if len(names) == 1:
            names *= 2
        floor = self.clock_tree + self.static
        if self.gating is ClockGating.NONE:
            # Every unit draws its structural maximum whatever the
            # activity: the same additions, in the same order, up front.
            for u in self.units:
                floor += u.per_access * u.max_per_cycle
            terms = ()
        else:
            idle = self.gating is ClockGating.CC3
            terms = tuple(
                (u.per_access, u.idle if idle else 0.0) for u in self.units
            )
        object.__setattr__(self, "_counts", attrgetter(*names))
        object.__setattr__(self, "_floor", floor)
        object.__setattr__(self, "_terms", terms)

    def unit_currents(self, activity: ActivityCounters) -> dict[str, float]:
        """Per-structure current draw for one cycle's activity.

        Keys are unit names plus ``clock``, ``static`` and ``noops``; the
        values sum to exactly :meth:`current` (tested).  This is the
        Wattch-style power-breakdown view.
        """
        out = {"clock": self.clock_tree, "static": self.static}
        for unit in self.units:
            count = getattr(activity, unit.counter)
            if self.gating is ClockGating.NONE:
                out[unit.name] = unit.per_access * unit.max_per_cycle
            elif count > 0:
                out[unit.name] = unit.per_access * count
            elif self.gating is ClockGating.CC3:
                out[unit.name] = unit.idle
            else:
                out[unit.name] = 0.0
        out["noops"] = 4.0 * activity.injected_noops
        return out

    def current(self, activity: ActivityCounters) -> float:
        """Per-cycle current (amperes) for the observed activity.

        Adds the unit terms one at a time in table order, the order
        :meth:`unit_currents` lists them in, and never pre-sums idle
        terms: floating-point addition is not associative, and traces
        must be bit-reproducible.
        """
        counts = self._counts(activity)
        total = self._floor
        for count, (per_access, idle) in zip(counts, self._terms):
            total += per_access * count if count > 0 else idle
        # Injected no-ops burn ALU + window + bus power without doing work.
        total += 4.0 * counts[-1]
        return total

    @property
    def min_current(self) -> float:
        """Fully-stalled current draw (all units idle)."""
        floor = self.clock_tree + self.static
        if self.gating is ClockGating.CC3:
            floor += sum(u.idle for u in self.units)
        elif self.gating is ClockGating.NONE:
            floor += sum(u.per_access * u.max_per_cycle for u in self.units)
        return floor

    @property
    def max_current(self) -> float:
        """Structural peak draw (every unit at full activity, max no-ops)."""
        peak = self.clock_tree + self.static
        peak += sum(u.per_access * u.max_per_cycle for u in self.units)
        return peak


_DEFAULT_UNITS: tuple[UnitPower, ...] = (
    UnitPower("icache", "icache_accesses", 4.0, 0.40, 1),
    UnitPower("bpred", "bpred_lookups", 1.2, 0.12, 4),
    UnitPower("decode_rename", "decoded", 1.4, 0.30, 4),
    UnitPower("window_write", "dispatched", 1.0, 0.20, 4),
    # Window select/read power is folded into the per-FU issue costs.
    UnitPower("ialu", "issued_ialu", 3.6, 0.36, 4),
    UnitPower("imult", "issued_imult", 5.2, 0.20, 1),
    UnitPower("fpalu", "issued_fpalu", 5.2, 0.36, 2),
    UnitPower("fpmult", "issued_fpmult", 6.4, 0.24, 1),
    UnitPower("lsq", "lsq_issues", 1.0, 0.24, 2),
    UnitPower("dcache", "dcache_accesses", 3.2, 0.60, 2),
    UnitPower("l2", "l2_accesses", 9.0, 1.00, 1),
    UnitPower("membus", "memory_accesses", 5.0, 0.20, 1),
    UnitPower("wakeup", "wakeups", 0.60, 0.16, 6),
    UnitPower("resultbus", "completions", 0.70, 0.16, 6),
    UnitPower("regfile_read", "regfile_reads", 0.80, 0.20, 8),
    UnitPower("regfile_write", "regfile_writes", 0.80, 0.20, 6),
    UnitPower("commit", "committed", 0.60, 0.16, 4),
)
