"""Time one CLI command from two checkouts in alternating pairs.

    python scripts/ab_pairs.py --parent ../parent "mub family --p 97"

Each pair runs the command once as `python -m finiteweyl.cli ...` with
`<parent>/src` on PYTHONPATH and once with this checkout's `src`, the
parent first in even pairs and the change first in odd ones.
Every request is spawned by a small helper process that drains its stdout
and reads its rusage: a child's `ru_maxrss` starts at the RSS of the process
that spawned it, so the helper, which loads no numpy, keeps that floor
below the CLI's own peak.

Per side it prints the median and interquartile range of the wall time
(spawn to exit, stdout drained) and of the CPU time (user + system), and the
median peak RSS; then the number of pairs the change won on wall and on CPU
time (ties count for neither side).  It exits 1 if the two sides' stdout
or exit codes differ.
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

# runs one request: argv[1] is the checkout, the rest the CLI arguments
HELPER = """
import hashlib, json, os, subprocess, sys, time
root, argv = sys.argv[1], sys.argv[2:]
env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
cmd = [sys.executable, "-m", "finiteweyl.cli", *argv]
start = time.perf_counter()
proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
digest = hashlib.sha256(proc.stdout.read()).hexdigest()
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "maxrss_mb": usage.ru_maxrss / 1024,
    "exit_code": os.waitstatus_to_exitcode(status),
    "stdout_sha256": digest,
}))
"""

SIDES = ("parent", "change")


def request(root: Path, argv: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", HELPER, str(root), *argv],
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(done.stdout)


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", help='CLI arguments, e.g. "mub family --p 97"')
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run (default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    cli_args = shlex.split(args.command)
    roots = {"parent": args.parent.resolve(), "change": Path(__file__).resolve().parent.parent}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else reversed(SIDES):
            runs[side].append(request(roots[side], cli_args))

    print(f"{args.command}: {args.pairs} pairs, parent {roots['parent']}, change {roots['change']}")
    print(f"{'side':8}{'wall_s p50':>12}{'IQR':>8}{'cpu_s p50':>12}{'IQR':>8}{'rss_mb p50':>12}")
    for side in SIDES:
        wall, wall_iqr = spread([r["wall_s"] for r in runs[side]])
        cpu, cpu_iqr = spread([r["cpu_s"] for r in runs[side]])
        rss = statistics.median(r["maxrss_mb"] for r in runs[side])
        print(f"{side:8}{wall:12.3f}{wall_iqr:8.3f}{cpu:12.3f}{cpu_iqr:8.3f}{rss:12.1f}")
    pairs = list(zip(runs["parent"], runs["change"]))
    for metric in ("wall_s", "cpu_s"):
        won = sum(change[metric] < parent[metric] for parent, change in pairs)
        print(f"change won {won}/{len(pairs)} pairs on {metric}")

    outputs = {(r["exit_code"], r["stdout_sha256"]) for side in SIDES for r in runs[side]}
    if len(outputs) != 1:
        print(f"stdout or exit code differs: {sorted(outputs)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
