"""The repository benchmark: seeded workloads, checked outputs, one JSON line.

Run one workload::

    python3 perfbench/run.py --workload eval-cold --seed 3 --seconds 15 --trace 0

or every workload ``BENCHMARK.json`` lists, untraced, with each
end-to-end metric printed by name and unit (exit status 1 if any
correctness or self-check fails)::

    python3 perfbench/run.py --seed 3

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``perfbench/README.md``).  The last line
of standard output is a JSON object: for one workload, with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; for all of them,
``{"workloads": {<name>: <that object>}, "ok": <every check passed>}``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here (imports too)

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import common  # noqa: E402
from perfbench.common import Outcome, say  # noqa: E402

WORKLOADS = ("eval-cold", "store-sweep", "serve-mix")
#: Set-ups per run whose median is ``setup_s``: this process + children.
SETUP_REPEATS = 3
SETUP_CHILD_TIMEOUT_S = 120


def workload_class(name: str):
    if name == "eval-cold":
        from perfbench.eval_cold import Workload
    elif name == "store-sweep":
        from perfbench.store_sweep import Workload
    else:
        from perfbench.serve_mix import Workload
    return Workload


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up repetition
    return parser.parse_args(argv)


def require_program() -> None:
    if not (common.SRC / "repro" / "__init__.py").is_file():
        common.fail(f"no repro package under {common.SRC}; run from a full checkout")
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        common.fail(f"cannot import repro: {exc}")


def child_setup_seconds(args) -> float:
    """One set-up in a fresh interpreter; returns its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, cwd=str(common.ROOT))
    try:
        out, err = child.communicate(timeout=SETUP_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGINT)  # lets it stop its own server
        try:
            out, err = child.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
    if child.returncode != 0:
        raise RuntimeError(f"set-up repetition failed:\n{err[-2000:]}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def run_untraced(args, workload, outcome: Outcome) -> None:
    workload.setup()
    setups = [time.perf_counter() - T_START]
    setups += [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    say(f"set-up repetitions (s): {', '.join(f'{s:.3f}' for s in setups)}")
    p = workload.measure(args.seconds)
    workload.evaluate(p, outcome)
    outcome.metrics["setup_s"] = common.median(setups)


def run_traced(args, workload, outcome: Outcome, spec: dict) -> None:
    from perfbench import tracing

    tracer = tracing.install(workload.workdir / "spans")
    workload.spans_dir = tracer.spans_dir
    workload.setup()
    tracer.active = False
    plain = workload.measure(args.seconds, traced=False)
    workload.evaluate(plain, outcome)  # the traced pass overwrites its metrics
    untraced = outcome.metrics["throughput_ops_per_s"]
    tracer.active = True
    p = workload.measure(args.seconds, traced=True)
    tracer.active = False
    workload.evaluate(p, outcome)
    traced = outcome.metrics["throughput_ops_per_s"]
    workload.close()  # a traced server writes its spans when it exits
    layers = tracing.layer_metrics(tracer.collect(), p.window)
    layers.update(workload.layer_extras(p))
    layers["trace.untraced_ops_per_s"] = untraced
    layers["trace.traced_ops_per_s"] = traced
    layers["trace.overhead_pct"] = (untraced - traced) / untraced * 100
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
    for name in missing:
        layers[name] = 0
    if missing:
        outcome.notes.append(
            f"not exercised by {workload.name} (reported as 0): {', '.join(missing)}"
        )
    workload.layer_checks(layers, outcome)
    outcome.layers = layers
    for line in workload.share_lines(layers, p):
        say(line)


def run_one(args) -> int:
    spec = common.load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    require_program()
    workdir = common.make_workdir(args.workload)
    workload = workload_class(args.workload)(args.seed, workdir)
    outcome = Outcome()
    try:
        if args.setup_only:
            workload.setup()
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        if args.trace:
            run_traced(args, workload, outcome, spec)
        else:
            run_untraced(args, workload, outcome)
    finally:
        workload.close()
        common.remove_workdir(workdir)
    outcome.metrics["peak_rss_mb"] = common.peak_rss_mb()  # children reaped
    if outcome.attempted < 1:
        outcome.failures.append("no operation was attempted")
    record = common.run_record(args.workload, args.seed, bool(args.trace), workload.backend)
    say(f"run record: {json.dumps(record, sort_keys=True)}")
    say(f"input sizes: {json.dumps(outcome.sizes, sort_keys=True)}")
    path = common.write_record(record, outcome)
    say(f"run record written to {path.relative_to(common.ROOT)}")
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = outcome.layers if args.trace else outcome.metrics
    for entry in table:
        say(f"{args.workload}  {entry['name']:<32} {source[entry['name']]:>16.6g} {entry['unit']}")
    if not args.trace:
        ratio = outcome.failed / max(outcome.attempted, 1)
        say(f"{args.workload}  {'failed_ratio':<32} {ratio:>16.6g} ratio "
            f"({outcome.failed} of {outcome.attempted} operations)")
    for note in outcome.notes:
        say(f"note: {note}")
    for failure in outcome.failures:
        say(f"CHECK FAILED: {failure}")
    say(f"checks: {'all passed' if not outcome.failures else f'{len(outcome.failures)} failed'}")
    print(json.dumps(common.result_line(outcome, spec, bool(args.trace))), flush=True)
    return 0 if not outcome.failures else 1


def run_all(args) -> int:
    """Every workload of ``BENCHMARK.json`` untraced, one child process each."""
    status = 0
    results = {}
    for name in (w["name"] for w in common.load_spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", "0"]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=str(common.ROOT))
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            say(line)
        if done.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(done.stderr[-4000:])
        if lines:
            try:
                results[name] = json.loads(lines[-1])
            except json.JSONDecodeError:
                status = 1
    say("")
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            say(f"{name:<12} {metric:<24} {value['value']:>14.6g} {value['unit']}")
        say(f"{name:<12} correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}")
    print(json.dumps({"workloads": results, "ok": status == 0}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        if args.trace or args.setup_only:
            common.fail("--trace 1 and --setup-only need --workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
