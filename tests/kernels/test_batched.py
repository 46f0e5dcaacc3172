"""The tier-2 batched backend: fused block kernel and FFT convolution.

Three batteries: (1) the fused ``characterize_block`` kernel must be
*bit-identical* to the per-trace vectorized path over an N x length
grid (that identity is what lets a block job share cache entries with
single jobs); (2) the convolution planner must be deterministic and
every plan must agree with direct convolution to tight tolerance;
(3) the ``KernelConfig`` resolution order and the deprecation shims it
replaced.
"""

import os
import warnings

import numpy as np
import pytest

from repro import kernels
from repro.core import WaveletVoltageEstimator, calibrated_supply
from repro.kernels import KernelConfig, get_kernel, resolve_backend
from repro.kernels.batched import (
    DIRECT_LIMIT,
    OVERLAP_RATIO,
    convolution_plan,
)


@pytest.fixture(scope="module")
def network():
    return calibrated_supply(150)


@pytest.fixture(scope="module")
def estimator(network):
    return WaveletVoltageEstimator(network)


def _traces(n_traces: int, cycles: int, dtype=np.float64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return (40.0 + rng.normal(0.0, 5.0, (n_traces, cycles))).astype(dtype)


# -- fused characterize_block vs the per-trace path --------------------------


@pytest.mark.parametrize("n_traces", (1, 2, 5, 16))
@pytest.mark.parametrize("cycles", (256, 512, 1000))
def test_batched_bit_identical_to_per_trace(estimator, n_traces, cycles):
    """The fused pass must reproduce per-trace results *exactly* —
    byte-for-byte, not just within tolerance — so block jobs and single
    jobs can share cache entries."""
    traces = _traces(n_traces, cycles, seed=n_traces * 100 + cycles)
    fused = get_kernel("characterize_block", backend="batched")
    probs, terms = fused(estimator, traces, 0.97)
    assert probs.shape == (n_traces, cycles // estimator.window)
    assert terms.shape == (n_traces, estimator.levels, probs.shape[1])
    for i, trace in enumerate(traces):
        with KernelConfig(backend="vectorized"):
            probs_i, terms_i = estimator.characterize_windows(
                estimator.tile_windows(trace), 0.97
            )
        assert np.array_equal(probs[i], probs_i)
        assert np.array_equal(terms[i], terms_i)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_batched_dtype_upcast_is_exact(estimator, dtype):
    """float32 traces upcast once to float64; the result must equal the
    per-trace path fed the same upcast values."""
    traces = _traces(3, 512, dtype=dtype, seed=9)
    fused = get_kernel("characterize_block", backend="batched")
    probs, _ = fused(estimator, traces, 0.97)
    est = estimator.estimate_traces(traces, 0.97)
    for i, trace in enumerate(traces):
        with KernelConfig(backend="vectorized"):
            expect = estimator.estimate_fraction_below(
                np.asarray(trace, dtype=float), 0.97
            )
        assert est[i] == expect
        assert probs.dtype == np.float64


@pytest.mark.parametrize("backend", ("reference", "vectorized", "batched"))
def test_ragged_and_malformed_matrices_rejected(estimator, backend):
    fused = get_kernel("characterize_block", backend=backend)
    with pytest.raises(ValueError, match="rectangular"):
        fused(estimator, [[1.0, 2.0], [3.0]], 0.97)
    with pytest.raises(ValueError, match="2-D"):
        fused(estimator, np.zeros(512), 0.97)
    with pytest.raises(ValueError, match="window"):
        fused(estimator, np.zeros((2, estimator.window - 1)), 0.97)


def test_estimate_traces_matches_estimate_fraction_below(estimator):
    traces = _traces(4, 1024, seed=3)
    with KernelConfig(backend="batched"):
        est = estimator.estimate_traces(traces, 0.97)
    with KernelConfig(backend="vectorized"):
        expect = [
            estimator.estimate_fraction_below(t, 0.97) for t in traces
        ]
    assert est.tolist() == expect


# -- FFT convolution: planner + tolerance ------------------------------------


def test_convolution_plan_is_deterministic_and_total():
    """Same (n, m) always maps to the same plan, and every plan is one
    of the three implemented strategies."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 1 << 18))
        m = int(rng.integers(0, 1 << 12))
        plan = convolution_plan(n, m)
        assert plan in ("direct", "fft", "overlap_add")
        assert plan == convolution_plan(n, m)


def test_convolution_plan_crossovers():
    assert convolution_plan(0, 5) == "direct"
    assert convolution_plan(5, 0) == "direct"
    assert convolution_plan(100, 100) == "direct"  # n*m under the limit
    small = int(DIRECT_LIMIT**0.5)
    assert convolution_plan(small * 4, small * 4) == "fft"
    assert (
        convolution_plan(small * OVERLAP_RATIO * 8, small) == "overlap_add"
    )


@pytest.mark.parametrize(
    "n,m",
    [
        (1, 1),
        (7, 3),
        (200, 180),  # fft regime
        (1 << 15, 37),  # overlap-add regime
        (4096, 3000),
    ],
)
def test_planned_convolution_matches_direct(n, m):
    from repro.kernels.batched import _planned_convolve

    rng = np.random.default_rng(n * 31 + m)
    x = rng.normal(0.0, 1.0, n)
    h = rng.normal(0.0, 1.0, m)
    got = _planned_convolve(x, h)
    want = np.convolve(x, h)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_batched_monitor_matches_vectorized(network):
    from repro.core import WaveletVoltageMonitor

    monitor = WaveletVoltageMonitor(network, terms=13)
    rng = np.random.default_rng(6)
    trace = 40.0 + rng.normal(0.0, 5.0, 1 << 14)
    vec = get_kernel("monitor_estimate_trace", backend="vectorized")(
        monitor, trace
    )
    bat = get_kernel("monitor_estimate_trace", backend="batched")(
        monitor, trace
    )
    assert bat.shape == vec.shape
    np.testing.assert_allclose(bat, vec, rtol=1e-9, atol=1e-9)


# -- KernelConfig resolution and the deprecation shims -----------------------


def test_kernel_config_resolution_order(monkeypatch):
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    assert resolve_backend() == kernels.DEFAULT_BACKEND
    monkeypatch.setenv(kernels.ENV_VAR, "reference")
    assert resolve_backend() == "reference"  # env beats default
    config = KernelConfig(backend="batched")
    with config:
        assert resolve_backend() == "batched"  # context beats env
        with KernelConfig(backend="vectorized"):
            assert resolve_backend() == "vectorized"  # innermost wins
        assert resolve_backend() == "batched"
        assert resolve_backend(explicit="reference") == "reference"
    assert resolve_backend() == "reference"  # context popped


def test_kernel_config_activate_beats_env(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "reference")
    monkeypatch.setattr(kernels, "_PROCESS", None)
    KernelConfig(backend="batched").activate()
    try:
        assert resolve_backend() == "batched"
    finally:
        kernels._PROCESS = None


def test_kernel_config_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        KernelConfig(backend="cuda")


def test_bad_env_backend_raises(monkeypatch):
    monkeypatch.setenv(kernels.ENV_VAR, "cuda")
    with pytest.raises(ValueError, match="is not one of"):
        resolve_backend()


def test_deprecated_shims_still_work(monkeypatch):
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    monkeypatch.setattr(kernels, "_PROCESS", None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kernels.set_backend("reference")
        assert resolve_backend() == "reference"
        with kernels.use_backend("batched"):
            assert resolve_backend() == "batched"
        assert resolve_backend() == "reference"
    kinds = [w for w in caught if issubclass(w.category, DeprecationWarning)]
    assert len(kinds) == 2
    kernels._PROCESS = None


def test_missing_implementation_raises(monkeypatch):
    """A one-sided registration is an error on every dispatch path."""
    name = "_test_one_sided_kernel"
    kernels.register_kernel(name, "reference")(lambda: "ref")
    try:
        with pytest.raises(ValueError, match="no 'batched'"):
            get_kernel(name, backend="batched")
        monkeypatch.setenv(kernels.ENV_VAR, "batched")
        with pytest.raises(ValueError, match="no 'batched'"):
            get_kernel(name)()
        monkeypatch.setenv(kernels.ENV_VAR, "reference")
        assert get_kernel(name)() == "ref"
    finally:
        kernels._REGISTRY.pop(name, None)
        kernels._dispatcher.cache_clear()


def test_env_var_read_live(monkeypatch):
    """The env var is consulted at resolve time, not import time."""
    monkeypatch.setenv(kernels.ENV_VAR, "reference")
    assert resolve_backend() == "reference"
    monkeypatch.setenv(kernels.ENV_VAR, "batched")
    assert resolve_backend() == "batched"


def test_os_env_not_leaked_by_config(monkeypatch):
    monkeypatch.delenv(kernels.ENV_VAR, raising=False)
    with KernelConfig(backend="batched"):
        assert kernels.ENV_VAR not in os.environ
