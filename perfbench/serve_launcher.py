"""Start ``repro`` (normally ``repro serve``) with the benchmark's span wrappers.

    python3 perfbench/serve_launcher.py SPANS_DIR serve --listen 127.0.0.1:0 ...

Installs the same wrappers as the traced benchmark process (plus the
server's ``parse_request``), runs the CLI with the remaining arguments
and writes the recorded spans to ``SPANS_DIR/spans-<pid>.json`` when the
server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parents[1])]

from perfbench import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = tracing.install(argv[0])
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
