"""Oracle tests for the simulator's closed-form fast paths.

The closed-form cache prewarm and the planned per-cycle power sum must
agree exactly with the straightforward code they replace, which lives on
here as the reference: one ``Cache.access`` per prewarmed line, and a
per-unit ``getattr`` loop with the gating branches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.uarch import (
    TABLE_1,
    ActivityCounters,
    CacheHierarchy,
    ClockGating,
    ProcessorConfig,
    UnitPower,
    WattchPowerModel,
)
from repro.uarch.config import CacheConfig
from repro.workloads.generator import (
    _CODE_BASE,
    _HOT_BASE,
    _LINE,
    _WARM_BASE,
    prewarm_caches,
)
from repro.workloads.spec import SPEC2000


def reference_prewarm(hierarchy, profile) -> None:
    """One real access per line: warm data, hot data, then code."""
    for addr in range(_WARM_BASE, _WARM_BASE + profile.warm_bytes, _LINE):
        hierarchy.access_data(addr)
    for addr in range(_HOT_BASE, _HOT_BASE + profile.hot_bytes, _LINE):
        hierarchy.access_data(addr)
    for pc in range(_CODE_BASE, _CODE_BASE + profile.code_bytes, _LINE):
        hierarchy.access_instruction(pc)
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        cache.hits = 0
        cache.misses = 0
    hierarchy.memory_accesses = 0


def assert_same_state(fast: CacheHierarchy, slow: CacheHierarchy) -> None:
    for level in ("l1i", "l1d", "l2"):
        a, b = getattr(fast, level), getattr(slow, level)
        assert a._sets == b._sets, level
        assert (a.hits, a.misses) == (b.hits, b.misses) == (0, 0), level
    assert fast.memory_accesses == slow.memory_accesses == 0
    assert fast.prefetches == slow.prefetches


def prewarm_both(config: ProcessorConfig, name: str):
    fast, slow = CacheHierarchy(config), CacheHierarchy(config)
    prewarm_caches(fast, name)
    reference_prewarm(slow, SPEC2000[name])
    return fast, slow


class TestClosedFormPrewarm:
    @pytest.mark.parametrize("name", sorted(SPEC2000))
    def test_matches_per_access_loop(self, name):
        assert_same_state(*prewarm_both(TABLE_1, name))

    @pytest.mark.parametrize(
        "config",
        [
            # a smaller, more associative L2: the 4 MiB warm regions
            # overflow it and the hot set competes for its ways
            ProcessorConfig(l2=CacheConfig(1024 * 1024, 8, 64, 16)),
            # lines wider than the 64-byte prewarm step (only the first
            # touch of each L1 line reaches the L2) and narrower ones
            ProcessorConfig(
                l1i=CacheConfig(32 * 1024, 4, 128, 3),
                l1d=CacheConfig(32 * 1024, 2, 128, 3),
                l2=CacheConfig(512 * 1024, 2, 32, 16),
            ),
            ProcessorConfig(
                l1d=CacheConfig(16 * 1024, 1, 32, 3),
                l2=CacheConfig(1024 * 1024, 4, 256, 16),
            ),
        ],
        ids=["l2-1MiB-8way", "wide-l1-narrow-l2", "narrow-l1-wide-l2"],
    )
    @pytest.mark.parametrize("name", ["gzip", "gcc", "mcf", "mgrid"])
    def test_matches_per_access_loop_on_other_configs(self, config, name):
        assert_same_state(*prewarm_both(config, name))

    def test_prewarmed_hierarchy_then_simulates_identically(self):
        fast, slow = prewarm_both(TABLE_1, "art")
        rng = np.random.default_rng(5)
        for addr in rng.integers(0x1000_0000, 0x2040_0000, 4000):
            assert fast.access_data(int(addr)) == slow.access_data(int(addr))
        assert fast.l2.misses == slow.l2.misses > 0
        assert fast.memory_accesses == slow.memory_accesses

    def test_used_hierarchy_raises(self):
        h = CacheHierarchy(TABLE_1)
        h.access_data(0x1234_5678)
        with pytest.raises(ValueError, match="fresh"):
            prewarm_caches(h, "gzip")

    def test_flushed_hierarchy_still_counts_as_used(self):
        h = CacheHierarchy(TABLE_1)
        h.access_instruction(_CODE_BASE)
        h.l1i.flush()
        h.l2.flush()
        with pytest.raises(ValueError, match="fresh"):
            prewarm_caches(h, "gzip")

    def test_second_prewarm_raises(self):
        h = CacheHierarchy(TABLE_1)
        prewarm_caches(h, "gzip")
        with pytest.raises(ValueError, match="fresh"):
            prewarm_caches(h, "gzip")

    def test_ranges_sharing_lines_rejected(self):
        h = CacheHierarchy(TABLE_1)
        with pytest.raises(ValueError, match="share"):
            h.prewarm(data=(range(0, 4096, 64), range(4032, 8192, 64)), code=())

    def test_step_incompatible_with_line_rejected(self):
        h = CacheHierarchy(TABLE_1)
        with pytest.raises(ValueError, match="step"):
            h.prewarm(data=(range(0, 9600, 96),), code=())


def reference_current(model: WattchPowerModel, activity) -> float:
    """The per-unit loop: getattr plus the three gating branches."""
    total = model.clock_tree + model.static
    for unit in model.units:
        count = getattr(activity, unit.counter)
        if model.gating is ClockGating.NONE:
            total += unit.per_access * unit.max_per_cycle
        elif count > 0:
            total += unit.per_access * count
        elif model.gating is ClockGating.CC3:
            total += unit.idle
    total += 4.0 * activity.injected_noops
    return total


def random_activities(seed: int, n: int = 400):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        a = ActivityCounters()
        for name in ActivityCounters.__slots__:
            # mostly idle units, so both branches of the gating rule run
            value = int(rng.integers(0, 9)) if rng.random() < 0.6 else 0
            setattr(a, name, value)
        yield a


ONE_UNIT = (UnitPower("x", "dcache_accesses", 2.0, 0.1, 2),)


class TestPlannedPowerSum:
    @pytest.mark.parametrize("gating", list(ClockGating))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_units_match_reference(self, gating, seed):
        model = WattchPowerModel(gating=gating)
        for a in random_activities(seed):
            assert model.current(a) == reference_current(model, a)

    @pytest.mark.parametrize("gating", list(ClockGating))
    def test_one_unit_table_matches_reference(self, gating):
        model = WattchPowerModel(
            gating=gating, clock_tree=1.0, static=0.5, units=ONE_UNIT
        )
        for a in random_activities(7, 100):
            assert model.current(a) == reference_current(model, a)

    def test_empty_unit_table(self):
        model = WattchPowerModel(units=())
        a = ActivityCounters()
        a.injected_noops = 3
        assert model.current(a) == reference_current(model, a) == 23.0

    def test_model_is_frozen(self):
        model = WattchPowerModel()
        with pytest.raises(AttributeError):
            model.gating = ClockGating.NONE  # type: ignore[misc]
