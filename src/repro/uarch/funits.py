"""Functional units: Table 1's execution resources.

ALUs are fully pipelined (a new operation may start every cycle on each
unit); multiply/divide units block for the operation's latency, matching
SimpleScalar's shared IntMult/IntDiv and FPMult/FPDiv units.
"""

from __future__ import annotations

from .config import ProcessorConfig
from .isa import FU_LATENCY_FIELD, OpClass

__all__ = ["FunctionalUnitPool", "FunctionalUnits"]


class FunctionalUnitPool:
    """A pool of identical units.

    ``pipelined`` pools only limit *issues per cycle*; non-pipelined pools
    also keep each unit busy until its operation completes.
    """

    def __init__(self, name: str, count: int, pipelined: bool) -> None:
        if count <= 0:
            raise ValueError("unit count must be positive")
        self.name = name
        self.count = count
        self.pipelined = pipelined
        self._issued_this_cycle = 0
        # The cycle the limiter counts for: a try_issue in a later cycle
        # resets it, so the pipeline needs no per-cycle call per pool.
        self._cycle = -1
        self._busy_until: list[int] = [0] * count
        self.total_ops = 0

    def begin_cycle(self) -> None:
        """Reset the per-cycle issue limiter.

        Optional: the first :meth:`try_issue` of a new cycle number
        resets it as well.
        """
        self._issued_this_cycle = 0

    def try_issue(self, cycle: int, latency: int) -> bool:
        """Claim a unit for an operation starting this cycle."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._issued_this_cycle = 0
        if self._issued_this_cycle >= self.count:
            return False
        if not self.pipelined:
            for i, free_at in enumerate(self._busy_until):
                if free_at <= cycle:
                    self._busy_until[i] = cycle + latency
                    break
            else:
                return False
        self._issued_this_cycle += 1
        self.total_ops += 1
        return True


class FunctionalUnits:
    """All of Table 1's pools, with op-class dispatch."""

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self._pools = {
            OpClass.IALU: FunctionalUnitPool("IntALU", config.int_alus, True),
            OpClass.IMULT: FunctionalUnitPool(
                "IntMultDiv", config.int_mult_div, False
            ),
            OpClass.FPALU: FunctionalUnitPool("FPALU", config.fp_alus, True),
            OpClass.FPMULT: FunctionalUnitPool(
                "FPMultDiv", config.fp_mult_div, False
            ),
        }
        # Divides share the multiply units (SimpleScalar's IntMult/IntDiv).
        self._aliases = {
            OpClass.IDIV: OpClass.IMULT,
            OpClass.FPDIV: OpClass.FPMULT,
            OpClass.BRANCH: OpClass.IALU,
            OpClass.NOP: OpClass.IALU,
        }
        # op -> (pool, latency), resolved once for the per-cycle issue path
        self._routes = {
            op: (self.pool_for(op), self.latency_of(op))
            for op in FU_LATENCY_FIELD
        }

    def pool_for(self, op: OpClass) -> FunctionalUnitPool:
        """The pool an op class executes on (loads/stores use the LSQ)."""
        key = self._aliases.get(op, op)
        try:
            return self._pools[key]
        except KeyError:
            raise ValueError(f"{op.name} does not execute on a functional unit")

    def latency_of(self, op: OpClass) -> int:
        """Execution latency for a non-memory op."""
        return getattr(self.config, FU_LATENCY_FIELD[op])

    def begin_cycle(self) -> None:
        """Reset every pool's issue limiter (optional, as for a pool)."""
        for pool in self._pools.values():
            pool.begin_cycle()

    def try_issue(self, op: OpClass, cycle: int) -> int | None:
        """Try to start ``op`` this cycle; returns its latency or None."""
        pool, latency = self._routes[op]
        if pool.try_issue(cycle, latency):
            return latency
        return None
