"""Run one finiteweyl CLI request with spans installed.

Usage: python3 perfbench/traced_cli.py TRACE_PATH CLI_ARGS...

Behaves like `python -m finiteweyl.cli CLI_ARGS...` (same stdout, same
exit code) and, when the request ends, writes the span aggregates to
TRACE_PATH as JSON.  finiteweyl must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import sys
import time

from spans import Tracer, installed


def main() -> int:
    trace_path, cli_args = sys.argv[1], sys.argv[2:]
    from finiteweyl import cli

    tracer = Tracer()
    start = time.perf_counter()
    with installed(tracer):
        code = cli.main(cli_args)
    elapsed = time.perf_counter() - start
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({"argv": cli_args, "exit_code": code, "main_s": elapsed, **tracer.to_json()}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
