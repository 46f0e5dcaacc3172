"""Block dispatch: grouping, cache identity, fan-out and failure paths.

The load-bearing property pinned here is cache identity: a block job
and the same specs run one at a time must write *byte-identical* cache
trees — same keys, same payload bytes — so a corpus characterized in
blocks can be resumed (or re-run) per trace and vice versa.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.core import calibrated_supply
from repro.errors import SpecError
from repro.kernels import KernelConfig
from repro.pipeline import (
    BatchOptions,
    BlockSpec,
    JobSpec,
    group_blocks,
    predictions_from,
    submit,
)
from repro.pipeline.blocks import block_key, synthesize_member_failures
from repro.pipeline.executor import JobOutcome


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


def _specs(network, names=("gzip", "mcf", "gcc", "art"), cycles=4096, **kw):
    return [
        JobSpec.make(name, network=network, cycles=cycles, **kw)
        for name in names
    ]


def _tree_digest(root: str) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


# -- grouping ----------------------------------------------------------------


def test_group_blocks_fuses_compatible_specs(network):
    specs = _specs(network)
    units = group_blocks(list(enumerate(specs)))
    assert len(units) == 1
    index, block = units[0]
    assert index == 0
    assert isinstance(block, BlockSpec)
    assert block.indices == (0, 1, 2, 3)
    assert block.label.startswith("block[4](")


def test_group_blocks_respects_max_block(network):
    specs = _specs(network, names=("gzip", "mcf", "gcc", "art", "swim"))
    units = group_blocks(list(enumerate(specs)), max_block=2)
    sizes = [
        len(u.members) if isinstance(u, BlockSpec) else 1
        for _, u in units
    ]
    assert sizes == [2, 2, 1]  # trailing singleton stays a plain spec


def test_group_blocks_separates_incompatible_keys(network):
    a = _specs(network, names=("gzip", "mcf"), cycles=4096)
    b = _specs(network, names=("gcc", "art"), cycles=8192)
    units = group_blocks(list(enumerate(a + b)))
    assert len(units) == 2
    assert all(isinstance(u, BlockSpec) for _, u in units)
    assert block_key(a[0]) != block_key(b[0])


def test_group_blocks_passes_through_non_characterize(network):
    sim = [
        JobSpec(name, cycles=1024, stages=("simulate",))
        for name in ("gzip", "mcf")
    ]
    units = group_blocks(list(enumerate(sim)))
    assert units == list(enumerate(sim))


def test_group_blocks_disabled_below_two(network):
    specs = list(enumerate(_specs(network)))
    assert group_blocks(specs, max_block=1) == specs


def test_block_spec_validation(network):
    specs = _specs(network)
    with pytest.raises(SpecError, match="at least two"):
        BlockSpec(members=(specs[0],), indices=(0,))
    with pytest.raises(SpecError, match="parallel"):
        BlockSpec(members=tuple(specs[:2]), indices=(0,))
    other = _specs(network, names=("art",), cycles=8192)[0]
    with pytest.raises(SpecError, match="must share"):
        BlockSpec(members=(specs[0], other), indices=(0, 1))
    sim = JobSpec("gzip", cycles=4096, stages=("simulate",))
    with pytest.raises(SpecError):
        BlockSpec(members=(sim, sim), indices=(0, 1))


def test_block_digest_depends_on_members(network):
    specs = _specs(network)
    a = BlockSpec(members=tuple(specs[:2]), indices=(0, 1))
    b = BlockSpec(members=tuple(specs[:3]), indices=(0, 1, 2))
    c = BlockSpec(members=tuple(specs[:2]), indices=(5, 9))
    assert a.digest() != b.digest()
    assert a.digest() == c.digest()  # indices are routing, not identity


# -- cache identity -----------------------------------------------------------


def test_block_and_single_jobs_write_identical_cache(network, tmp_path):
    """The tentpole invariant: one block job == N single jobs, on disk."""
    specs = _specs(network)
    blocked = tmp_path / "blocked"
    single = tmp_path / "single"
    batched = KernelConfig(backend="batched")
    b1 = submit(
        specs, BatchOptions(cache_dir=str(blocked), kernels=batched)
    )
    b2 = submit(
        specs, BatchOptions(cache_dir=str(single), block="never")
    )
    assert b1.ok and b2.ok
    p1 = {n: p.estimated for n, p in predictions_from(b1).items()}
    p2 = {n: p.estimated for n, p in predictions_from(b2).items()}
    assert p1 == p2
    t1, t2 = _tree_digest(str(blocked)), _tree_digest(str(single))
    assert t1 == t2  # same keys AND same bytes
    # and a per-trace resume fully satisfies from the block-written cache
    b3 = submit(
        specs,
        BatchOptions(cache_dir=str(blocked), block="never", resume=True),
    )
    assert b3.resumed == len(specs)


def test_partial_cache_only_fuses_missing_members(network, tmp_path):
    specs = _specs(network)
    cache = str(tmp_path / "cache")
    batched = KernelConfig(backend="batched")
    # pre-compute two members the per-trace way
    submit(specs[:2], BatchOptions(cache_dir=cache, block="never"))
    batch = submit(specs, BatchOptions(cache_dir=cache, kernels=batched))
    assert batch.ok
    hits = {
        o.spec.benchmark: o.cache_hits["characterize"]
        for o in batch.outcomes
    }
    assert hits == {"gzip": True, "mcf": True, "gcc": False, "art": False}


# -- auto mode and fan-out ----------------------------------------------------


def test_auto_blocks_only_under_batched_backend(network, tmp_path):
    specs = _specs(network, names=("gzip", "mcf"))
    seen = []
    submit(
        specs,
        BatchOptions(cache_dir=str(tmp_path / "a")),
        progress=lambda o: seen.append(o.spec.benchmark),
    )
    assert seen == ["gzip", "mcf"]  # vectorized default: no fusion
    seen.clear()
    batch = submit(
        specs,
        BatchOptions(
            cache_dir=str(tmp_path / "b"),
            kernels=KernelConfig(backend="batched"),
        ),
        progress=lambda o: seen.append(o.spec.benchmark),
    )
    # progress still fires once per member, in batch order
    assert seen == ["gzip", "mcf"]
    assert [o.spec.benchmark for o in batch.outcomes] == ["gzip", "mcf"]
    assert all(not hasattr(o.spec, "members") for o in batch.outcomes)


def test_block_always_forces_fusion_without_batched(network, tmp_path):
    """block='always' fuses even on the vectorized backend (the fused
    kernel exists there too — just without the tier-2 speed)."""
    specs = _specs(network, names=("gzip", "mcf"))
    batch = submit(
        specs,
        BatchOptions(cache_dir=str(tmp_path), block="always"),
    )
    assert batch.ok and len(batch.outcomes) == 2


def test_member_failure_is_isolated(network, tmp_path):
    specs = _specs(network)
    batch = submit(
        specs,
        BatchOptions(
            cache_dir=str(tmp_path),
            raise_on_error=False,
            kernels=KernelConfig(backend="batched"),
            fault_plan="characterize@mcf:raise",
        ),
    )
    assert not batch.ok
    by_name = {o.spec.benchmark: o for o in batch.outcomes}
    assert not by_name["mcf"].ok
    assert by_name["mcf"].failed_stage == "characterize"
    for name in ("gzip", "gcc", "art"):
        assert by_name[name].ok, name


def test_block_retry_recovers_with_cached_members(network, tmp_path):
    specs = _specs(network)
    batch = submit(
        specs,
        BatchOptions(
            cache_dir=str(tmp_path),
            raise_on_error=False,
            retries=1,
            kernels=KernelConfig(backend="batched"),
            fault_plan="characterize@mcf:raise:1",
        ),
    )
    assert batch.ok
    assert batch.retries >= 1
    mcf = next(o for o in batch.outcomes if o.spec.benchmark == "mcf")
    assert mcf.attempts == 2


def test_supervised_pool_fans_out_block_members(network, tmp_path):
    specs = _specs(network, names=("gzip", "mcf", "gcc", "art", "swim"))
    batch = submit(
        specs,
        BatchOptions(
            jobs=2,
            cache_dir=str(tmp_path),
            kernels=KernelConfig(backend="batched"),
            max_block=3,
        ),
    )
    assert batch.ok
    assert [o.spec.benchmark for o in batch.outcomes] == [
        "gzip",
        "mcf",
        "gcc",
        "art",
        "swim",
    ]


def test_synthesize_member_failures(network):
    specs = _specs(network, names=("gzip", "mcf"))
    block = BlockSpec(members=tuple(specs), indices=(3, 7))
    container = JobOutcome(
        spec=block,
        error="boom",
        error_kind="timeout",
        attempts=2,
        elapsed=1.5,
    )
    members = synthesize_member_failures(container)
    assert [i for i, _ in members] == [3, 7]
    for _, outcome in members:
        assert not outcome.ok
        assert outcome.error == "boom"
        assert outcome.error_kind == "timeout"
        assert outcome.attempts == 2


def test_block_timeout_synthesis_end_to_end(network, tmp_path):
    """A hung block is killed by the supervisor; every member index
    still reports a (synthesized, then retried) outcome."""
    specs = _specs(network, names=("gzip", "mcf"))
    batch = submit(
        specs,
        BatchOptions(
            jobs=2,
            cache_dir=str(tmp_path),
            raise_on_error=False,
            retries=1,
            timeout_s=5.0,
            kernels=KernelConfig(backend="batched"),
            fault_plan="characterize@gzip:hang(30):1",
        ),
    )
    assert len(batch.outcomes) == 2
    assert batch.ok  # attempt 2 has no fault


def test_json_roundtrip_of_block_artifacts(network, tmp_path):
    """Block-written artifacts stay plain JSON-able dicts."""
    specs = _specs(network, names=("gzip", "mcf"))
    batch = submit(
        specs,
        BatchOptions(
            cache_dir=str(tmp_path),
            kernels=KernelConfig(backend="batched"),
        ),
    )
    for outcome in batch.outcomes:
        artifact = outcome.artifacts["characterize"]
        assert json.loads(json.dumps(artifact)) == artifact
        assert set(artifact) == {
            "estimated",
            "windows",
            "level_contributions",
        }


# -- one stage step, one characterize path -------------------------------------


def _characterize_telemetry(specs, cache_dir, block):
    obs.enable("summary")
    try:
        batch = submit(specs, BatchOptions(cache_dir=cache_dir, block=block))
        snap = obs.registry().snapshot()
    finally:
        obs.disable()
    assert batch.ok
    windows = snap.get("pipeline_windows_total", {}).get("series", {})
    gauges = snap.get("characterize_level_contribution", {}).get("series", {})
    return windows, gauges


def test_block_and_single_jobs_emit_identical_characterize_telemetry(
    network, tmp_path
):
    """Both paths build the artifact in one place, which also emits the
    window counter and the per-level contribution gauges."""
    specs = _specs(network, names=("gzip", "mcf", "gcc"), cycles=2048)
    never = _characterize_telemetry(specs, str(tmp_path / "never"), "never")
    always = _characterize_telemetry(specs, str(tmp_path / "always"), "always")
    windows, gauges = never
    assert sum(windows.values()) == 3 * (2048 // 256)
    assert len(gauges) == 8  # one per level of a 256-cycle window
    assert always == never


def test_fused_pass_failure_falls_back_to_per_member_stage(
    network, tmp_path, monkeypatch
):
    """A fused pass that raises degrades to the per-trace stage for every
    member, with artifacts (and cache bytes) equal to per-trace runs."""
    from repro.core import WaveletVoltageEstimator

    specs = _specs(network, names=("gzip", "mcf", "gcc"), cycles=2048)
    single = submit(
        specs, BatchOptions(cache_dir=str(tmp_path / "never"), block="never")
    )
    original = WaveletVoltageEstimator.characterize_traces
    stack_sizes = []

    def one_row_only(self, traces, threshold):
        stack_sizes.append(len(traces))
        if len(traces) > 1:
            raise RuntimeError("fused pass unavailable")
        return original(self, traces, threshold)

    monkeypatch.setattr(
        WaveletVoltageEstimator, "characterize_traces", one_row_only
    )
    fused = submit(
        specs, BatchOptions(cache_dir=str(tmp_path / "always"), block="always")
    )
    assert stack_sizes == [3, 1, 1, 1]
    assert all(o.ok for o in fused.outcomes)
    for a, b in zip(fused.outcomes, single.outcomes):
        assert a.spec == b.spec
        for stage in ("voltage", "characterize"):
            assert a.artifacts[stage] == b.artifacts[stage]
    assert _tree_digest(str(tmp_path / "always")) == _tree_digest(
        str(tmp_path / "never")
    )


def test_prefix_failure_reports_identically_in_both_modes(network, tmp_path):
    """A member failing before characterize reports exactly what the
    same job reports when run alone."""
    specs = _specs(network, names=("gzip", "mcf", "gcc"), cycles=2048)
    reports = {}
    for block in ("never", "always"):
        batch = submit(
            specs,
            BatchOptions(
                cache_dir=str(tmp_path / block),
                block=block,
                raise_on_error=False,
                fault_plan="voltage@mcf:raise",
            ),
        )
        by_name = {o.spec.benchmark: o for o in batch.outcomes}
        mcf = by_name.pop("mcf")
        assert all(o.ok for o in by_name.values())
        reports[block] = (
            mcf.failed_stage,
            mcf.error_kind,
            mcf.attempts,
            mcf.failure()["error"],
            sorted(mcf.timings),
            sorted(mcf.cache_hits),
        )
    assert reports["never"][0] == "voltage"
    assert reports["always"] == reports["never"]
