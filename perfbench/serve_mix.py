"""``serve-mix``: two closed-loop clients against a ``repro serve`` process.

Set-up starts the server the way users do (``python -m repro serve``,
whose obs summary mode is on) with a fresh result cache and spool store,
then primes the cache with the ``hit`` specs.  The measured window sends
a seeded, shuffled request sequence in blocks of ten with exact class
proportions:

* 4 ``hit``: repeats of the primed specs, answered from the cache;
* 4 ``inline``: unique uploaded traces, spooled into the server's store
  and characterized;
* 2 ``cold``: short named-workload requests with fresh stream seeds,
  simulated on the server.

Hits are fastest and cold requests slowest, so the median falls inside
the ``inline`` class (40-80 %) and p90 inside the ``cold`` class.  The
loop is closed: each client sends its next request only when the last
one finished (plus a fixed think time), so a stalled server receives
less load and the latency percentiles under-count stalls (coordinated
omission).

Inline uploads from the two clients reach the server concurrently.  On
the current code that can make the result check fail: concurrent
``TraceStore.ingest`` calls into one store can record the same offset
for two traces (see README.md), which is why this workload is not listed
in ``BENCHMARK.json`` yet.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checks
from .common import Outcome, percentile, subprocess_env

NAME = "serve-mix"
IMPEDANCE = 150.0
CLIENTS = 2
#: Each client's pause between a reply and its next request.  Without
#: it the single-process server runs saturated, and every latency is
#: queueing behind cold simulations that scales with the host's speed.
THINK_S = 0.15
BLOCK = ("hit",) * 4 + ("inline",) * 4 + ("cold",) * 2
MIN_REQUESTS = 100

HIT_BENCHMARKS = ("gzip", "mcf", "swim", "gcc", "mgrid", "art", "vpr", "applu")
HIT_SEED = 201
HIT_CYCLES = 1024
HIT_WARMUP = 256
INLINE_SAMPLES = 1024
COLD_CYCLES = 512
COLD_WARMUP = 128
#: Models whose short simulations cost alike (40-60 ms on the reference
#: host, cache pre-warming included), so the cold class — and p90 in
#: it — does not hinge on which models a run happened to draw.
COLD_BENCHMARKS = ("gap", "mgrid", "ammp", "apsi", "perlbmk", "fma3d", "applu", "wupwise")
COLD_SEED_BASE = 700_000

SERVER_START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
LAUNCHER = Path(__file__).with_name("serve_launcher.py")


# -- a minimal HTTP/1.1 client that timestamps every streamed event ----------


@dataclass
class Reply:
    status: int
    latency_s: float
    events: list = field(default_factory=list)  # (arrival perf_counter, event)
    body: dict | None = None
    error: str | None = None

    def event(self, kind: str):
        return next(((t, e) for t, e in self.events if e.get("type") == kind), (None, None))


def _read_line(stream) -> bytes:
    line = stream.readline()
    if not line:
        raise ConnectionError("connection closed mid-response")
    return line


def http(port: int, method: str, path: str, payload: bytes = b"") -> Reply:
    """One request, timed from connecting to the last streamed chunk."""
    t0 = time.perf_counter()
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            f"Content-Length: {len(payload)}\r\nContent-Type: application/json\r\n"
            "Connection: close\r\n\r\n").encode("latin-1")
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
            sock.sendall(head + payload)
            stream = sock.makefile("rb")
            status = int(_read_line(stream).split()[1])
            headers = {}
            while True:
                line = _read_line(stream)
                if line in (b"\r\n", b"\n"):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            reply = Reply(status, 0.0)
            if headers.get("transfer-encoding", "").lower() == "chunked":
                while True:
                    size = int(_read_line(stream).strip() or b"0", 16)
                    data = stream.read(size + 2)
                    if size == 0:
                        break
                    reply.events.append((time.perf_counter(), json.loads(data[:size])))
            else:
                data = stream.read(int(headers.get("content-length", "0")))
                reply.body = json.loads(data) if data else None
    except (OSError, ValueError, IndexError) as exc:
        return Reply(0, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    reply.latency_s = time.perf_counter() - t0
    return reply


# -- the request sequence ------------------------------------------------------


def hit_payloads() -> list[dict]:
    return [
        {"benchmark": name, "seed": HIT_SEED + i, "cycles": HIT_CYCLES,
         "warmup_cycles": HIT_WARMUP, "impedance": IMPEDANCE}
        for i, name in enumerate(HIT_BENCHMARKS)
    ]


def inline_trace(rng: np.random.Generator) -> list[float]:
    """A synthetic current trace: a resonance-band square wave plus noise."""
    t = np.arange(INLINE_SAMPLES)
    period = rng.uniform(20.0, 40.0)
    square = (np.sin(2 * np.pi * t / period) > 0).astype(float)
    amps = 16.0 + rng.uniform(5.0, 25.0) * square + rng.exponential(3.0, INLINE_SAMPLES)
    return [round(float(a), 6) for a in amps]


class Sequence:
    """Thread-safe source of requests, one shuffled block at a time.

    Stops handing out new blocks once ``seconds`` have passed and at
    least ``MIN_REQUESTS`` were issued, so every run sends whole blocks
    and the class proportions stay exact.
    """

    def __init__(self, seed: int, seconds: float) -> None:
        self.rng = np.random.default_rng([seed, 23])
        self.seed = seed
        self.seconds = seconds
        self.lock = threading.Lock()
        self.pending: list = []
        self.issued = 0
        self.blocks = 0
        self.t0 = time.perf_counter()
        # hit specs and cold benchmarks are drawn round-robin in a seeded
        # order, so every run spreads its requests evenly over them
        hits = hit_payloads()
        self.hits = [hits[i] for i in self.rng.permutation(len(hits))]
        self.names = [COLD_BENCHMARKS[i] for i in self.rng.permutation(len(COLD_BENCHMARKS))]
        self.drawn = {"hit": 0, "cold": 0}

    def _block(self) -> list:
        items = []
        for kind in (BLOCK[i] for i in self.rng.permutation(len(BLOCK))):
            if kind == "hit":
                payload = self.hits[self.drawn["hit"] % len(self.hits)]
                self.drawn["hit"] += 1
            elif kind == "inline":
                payload = {"trace": {"samples": inline_trace(self.rng),
                                     "label": f"inline-{self.issued + len(items)}"},
                           "impedance": IMPEDANCE}
            else:
                payload = {"benchmark": self.names[self.drawn["cold"] % len(self.names)],
                           "seed": COLD_SEED_BASE + 1000 * (self.seed % 1000) + self.issued + len(items),
                           "cycles": COLD_CYCLES, "warmup_cycles": COLD_WARMUP,
                           "impedance": IMPEDANCE}
                self.drawn["cold"] += 1
            items.append((kind, payload, json.dumps(payload).encode()))
        return items

    def next(self):
        with self.lock:
            if not self.pending:
                elapsed = time.perf_counter() - self.t0
                if elapsed >= self.seconds and self.issued >= MIN_REQUESTS:
                    return None
                self.pending = self._block()
                self.blocks += 1
            self.issued += 1
            return self.pending.pop(0)


def request_key(payload: dict) -> str:
    """A short identity of one request's spec."""
    if "trace" in payload:
        return payload["trace"]["label"]
    return f"{payload['benchmark']}/{payload['seed']}"


@dataclass
class Pass:
    window: tuple[float, float]
    wall_s: float
    requests: list = field(default_factory=list)  # (kind, payload, Reply)
    stats_delta: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    blocks: int = 0


class Workload:
    name = NAME

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.backend = "vectorized"
        self.spans_dir = None
        self.server = None
        self.servers = 0
        self.primed: dict = {}

    # -- server lifecycle ------------------------------------------------------

    def start_server(self, traced: bool) -> None:
        self.servers += 1
        base = self.workdir / f"server-{self.servers}"
        base.mkdir()
        port_file = base / "port"
        args = ["serve", "--listen", "127.0.0.1:0", "--port-file", str(port_file),
                "--cache-dir", str(base / "cache"), "--spool", str(base / "spool"),
                "--jobs", "1"]
        if traced:
            cmd = [sys.executable, str(LAUNCHER), str(self.spans_dir), *args]
        else:
            cmd = [sys.executable, "-m", "repro", *args]
        self.log = open(base / "server.log", "wb")
        self.server = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT,
                                       env=subprocess_env(), cwd=str(base))
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while not port_file.is_file() or not port_file.read_text().endswith("\n"):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start; see {base / 'server.log'}")
            time.sleep(0.02)
        self.port = int(port_file.read_text().split()[1])

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.terminate()  # SIGTERM: graceful drain
            try:
                self.server.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.log.close()
        self.server = None

    def prime(self) -> None:
        for payload in hit_payloads():
            reply = http(self.port, "POST", "/v1/characterize", json.dumps(payload).encode())
            _, result = reply.event("result")
            if reply.status != 200 or result is None:
                raise RuntimeError(f"priming {payload['benchmark']} failed: {reply.error or reply.status}")
            self.primed[request_key(payload)] = (result["estimated"], result["observed"])

    def setup(self) -> None:
        self.start_server(traced=False)
        self.prime()

    def close(self) -> None:
        self.stop_server()

    # -- measurement -----------------------------------------------------------

    def stats(self) -> dict:
        return http(self.port, "GET", "/stats").body or {}

    def measure(self, seconds: float, traced: bool = False) -> Pass:
        if traced:
            # the traced pass runs against a server launched with the
            # same wrappers, set up and primed like the first one
            self.stop_server()
            self.start_server(traced=True)
            self.prime()
        before = self.stats()
        sequence = Sequence(self.seed, seconds)
        requests = []
        lock = threading.Lock()

        def client() -> None:
            first = True
            while (item := sequence.next()) is not None:
                if not first:
                    time.sleep(THINK_S)
                first = False
                kind, payload, body = item
                reply = http(self.port, "POST", "/v1/characterize", body)
                with lock:
                    requests.append((kind, payload, reply))

        cpu0 = time.process_time()
        t0 = sequence.t0 = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        after = self.stats()
        delta = {k: after[k] - before.get(k, 0) for k in after
                 if isinstance(after[k], (int, float)) and not isinstance(after[k], bool)}
        return Pass(window=(t0, t1), wall_s=t1 - t0, requests=requests,
                    stats_delta=delta, cpu_s=cpu, blocks=sequence.blocks)

    # -- checks and metrics ----------------------------------------------------

    def expected_results(self, payloads: dict) -> tuple[dict, dict]:
        """In-process results (and spec digests) for the same requests."""
        from repro.core import calibrated_supply
        from repro.pipeline import BatchOptions, submit
        from repro.serve.protocol import build_spec, parse_request
        from repro.store import TraceStore

        spool = TraceStore(self.workdir / f"spool-check-{len(payloads)}", mode="a")
        keys = sorted(payloads)
        specs = [
            build_spec(parse_request(payloads[key]), network_for=calibrated_supply,
                       store=None, spool=spool)
            for key in keys
        ]
        batch = submit(specs, BatchOptions(jobs=CLIENTS))
        expected = {}
        for key, o in zip(keys, batch.outcomes):
            expected[key] = (o.artifacts["characterize"]["estimated"],
                             o.artifacts["voltage"]["observed"])
        return expected, {key: spec.digest() for key, spec in zip(keys, specs)}

    def evaluate(self, p: Pass, outcome: Outcome) -> None:
        counts = {kind: 0 for kind in set(BLOCK)}
        latencies = {kind: [] for kind in counts}
        payloads = {}
        responses = []
        failed = 0
        for kind, payload, reply in p.requests:
            counts[kind] += 1
            key = request_key(payload)
            payloads[key] = payload
            _, result = reply.event("result")
            _, done = reply.event("done")
            ok = reply.status == 200 and result is not None and bool(done and done.get("ok"))
            if not ok:
                failed += 1
                outcome.check(False, f"serve {kind} request failed: status {reply.status} "
                                     f"{reply.error or (reply.body or {}).get('error', '')}")
                continue
            latencies[kind].append(reply.latency_s)
            responses.append({"kind": kind, "key": key, "status": reply.status,
                              "result": result, "reply": reply})
        expected, digests = self.expected_results(payloads)
        outcome.extend(checks.check_responses(responses, expected, self.primed))
        for response in responses:
            if response["kind"] == "inline":
                continue  # the spec names the server's own spool store
            _, accepted = response["reply"].event("accepted")
            if accepted and accepted.get("digest") != digests[response["key"]]:
                outcome.check(False, f"serve {response['kind']}: server spec digest differs "
                                     "from the in-process spec")
        outcome.extend(checks.check_serve_counts(p.stats_delta, counts))
        total = len(p.requests)
        outcome.check(total >= MIN_REQUESTS, f"serve-mix: only {total} requests measured")
        outcome.check(total == len(BLOCK) * p.blocks and counts["hit"] * len(BLOCK)
                      == total * BLOCK.count("hit"),
                      f"serve-mix: class counts {counts} are not exact block proportions")
        every = [reply.latency_s for _, _, reply in p.requests]
        # Rates are per second the clients spent waiting on the server,
        # not per wall second: the think time would otherwise dominate
        # the denominator and hide a slower or faster server.
        busy_s = sum(every) / CLIENTS
        primed_errors = [est - obs for est, obs in self.primed.values()]
        outcome.attempted += total
        outcome.failed += failed
        outcome.metrics.update(
            {
                "throughput_ops_per_s": (total - failed) / busy_s,
                "cycles_per_s": sum(self._cycles(kind) for kind, _, _ in p.requests) / busy_s,
                "latency_p50_s": percentile(every, 50),
                "latency_p90_s": percentile(every, 90),
                "prediction_rms_pct": float(np.sqrt(np.mean(np.square(primed_errors))) * 100),
            }
        )
        self._latencies = latencies
        outcome.sizes.update(
            {
                "requests": total,
                "latency_samples": len(every),
                "class_counts": counts,
                "hit_specs": len(HIT_BENCHMARKS),
                "hit_cycles": HIT_CYCLES,
                "inline_samples": INLINE_SAMPLES,
                "cold_cycles": COLD_CYCLES,
                "cold_warmup_cycles": COLD_WARMUP,
                "clients": CLIENTS,
                "class_p50_s": {k: percentile(v, 50) for k, v in latencies.items() if v},
                "measured_s": p.wall_s,
                "client_busy_s": busy_s,
            }
        )

    @staticmethod
    def _cycles(kind: str) -> int:
        """Trace cycles one request of ``kind`` characterizes."""
        return {"hit": HIT_CYCLES, "inline": INLINE_SAMPLES, "cold": COLD_CYCLES}[kind]

    def layer_extras(self, p: Pass) -> dict:
        delta = p.stats_delta
        queue = compute = 0.0
        for kind, _, reply in p.requests:
            t_accepted, _ = reply.event("accepted")
            t_result, result = reply.event("result")
            if result is None:
                continue
            compute += result.get("elapsed_s", 0.0)
            if kind != "hit" and t_accepted is not None:
                queue += max(0.0, t_result - t_accepted - result.get("elapsed_s", 0.0))
        extras = {
            "serve.requests": delta.get("requests", 0),
            "serve.fastpath": delta.get("cache_fastpath", 0),
            "serve.coalesced": delta.get("coalesced", 0),
            "serve.dispatched_jobs": delta.get("dispatched_jobs", 0),
            "serve.batches": delta.get("batches", 0),
            "serve.queue_s": queue,
            "serve.compute_s": compute,
            "loadgen.cpu_s": p.cpu_s,
        }
        for kind, values in self._latencies.items():
            extras[f"serve.latency_p50_s.{kind}"] = percentile(values, 50) if values else 0.0
        return extras

    def layer_checks(self, layers: dict, outcome: Outcome) -> None:
        designed = BLOCK.count("hit") / len(BLOCK)
        outcome.check(abs(layers["cache.hit_ratio"] - designed) < 1e-9,
                      f"serve-mix: traced cache.hit_ratio {layers['cache.hit_ratio']:.4f} "
                      f"!= designed hit share {designed}")

    def share_lines(self, layers: dict, p: Pass) -> list[str]:
        p50 = {k: layers[f"serve.latency_p50_s.{k}"] for k in ("hit", "inline", "cold")}
        ordered = p50["hit"] < p50["inline"] < p50["cold"]
        return [
            "class p50 latency (s): " + ", ".join(f"{k} {v:.4f}" for k, v in p50.items()),
            f"predicted: hit < inline < cold, so p50 and p90 fall inside one class each: "
            f"{'confirmed' if ordered else 'NOT confirmed'}",
            f"predicted share: cache.hit_ratio {layers['cache.hit_ratio']:.3f} equals the "
            f"designed hit share {BLOCK.count('hit') / len(BLOCK):.3f}",
        ]
