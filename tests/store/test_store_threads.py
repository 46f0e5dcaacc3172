"""Concurrent ingest into one TraceStore instance from many threads."""

import sys
import threading
import time

import numpy as np

from repro.store import TraceStore

THREADS = 8  # more than the cores of a typical CI runner
PER_THREAD = 12
SAMPLES = 2048
BUDGET_S = 60.0


def test_concurrent_ingests_never_share_bytes(tmp_path):
    store = TraceStore(tmp_path / "s", mode="a")
    results: dict[int, list] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(THREADS)

    def worker(t: int) -> None:
        try:
            rng = np.random.default_rng(1000 + t)
            got = []
            start.wait()
            for k in range(PER_THREAD):
                data = 40.0 + rng.normal(0.0, 5.0, SAMPLES)
                got.append((data, store.ingest(data, f"t{t}-{k}")))
            results[t] = got
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    # switch threads as often as possible, to open every race window
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(t,), daemon=True)
            for t in range(THREADS)
        ]
        for th in threads:
            th.start()
        deadline = time.monotonic() + BUDGET_S
        for th in threads:
            th.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads), "ingest threads hung"
    assert not errors, errors

    records = [rec for got in results.values() for _, rec in got]
    assert len(records) == THREADS * PER_THREAD
    assert len({(r.chunk, r.offset) for r in records}) == len(records)
    for got in results.values():
        for data, record in got:
            np.testing.assert_array_equal(store.attach(record), data)
    # a fresh reader sees the same index the writers built
    reader = TraceStore(tmp_path / "s")
    assert len(reader) == len(records)
    assert reader.verify() == []
