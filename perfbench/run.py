"""finiteweyl benchmark: CLI requests in a closed loop, with a separate traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-composite --seed 1 --seconds 30 --trace 0

Every request is a fresh `python -m finiteweyl.cli ...` process on the
source tree (PYTHONPATH=src).  One client sends the next request only
after the previous process has exited and its stdout has been read, so at
most one child runs at a time.  Each output is checked (see checks.py).

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
requests with requests run under perfbench/traced_cli.py, which wraps the
library's public functions, and reports the per-layer metrics.  The seed
chooses which kind goes first; the workloads are fixed commands, so the
seed changes nothing else.  The last stdout line is the JSON result; a
full record, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from checks import WORKLOADS, check_output, load_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_REPS = 9
RUN_LIMIT_S = 160  # every run must end within 180 s

# (span, statistic) pairs reported as the per-layer metric "<span>.<statistic>"
SPAN_METRICS = (
    ("group.pd_conjugate", "calls"),
    ("group.pd_named_subgroups", "busy_s"),
    ("operators.to_matrix", "calls"),
    ("operators.to_matrix", "busy_s"),
    ("phases.to_complex", "calls"),
    ("operators.monomial_mul", "calls"),
    ("operators.monomial_mul", "busy_s"),
    ("basis.pauli_commutator", "calls"),
    ("basis.hs_orthogonality", "busy_s"),
    ("mub.unbiasedness", "calls"),
    ("mub.unbiasedness", "busy_s"),
    ("mub.basis_exponent_table", "calls"),
    ("mub.basis_exponent_table", "busy_s"),
    ("serialize.json_dumps", "busy_s"),
    ("cli.main", "self_s"),
    ("basis.tensor_indices_commute", "calls"),
    ("basis.tensor_indices_commute", "busy_s"),
    ("basis.cartan_partition_prime_power", "self_s"),
    ("basis.partition_dense_commutation_defect", "busy_s"),
    ("search.find_commuting_partition", "self_s"),
    ("suites.run_suite", "self_s"),
)

# the six costliest checks of verify-composite at the seed commit
COSTLY_CHECKS = (
    "group.named_subgroups",
    "basis.structure_constants_close_dense_commutators",
    "group.characters_are_homomorphisms",
    "basis.hilbert_schmidt_orthogonality",
    "basis.structure_constants_antisymmetric_and_vanishing",
    "group.bracket_jacobi",
)


@dataclass
class Request:
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict, timeout: float) -> tuple[int, bytes, float, os.struct_rusage]:
    """Run cmd to exit; wall time covers spawn to exit with stdout drained."""
    with open(RESULTS / "last-stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage


def measure_setup(env: dict) -> list[float]:
    """Fresh interpreter to the end of `import finiteweyl.cli`, SETUP_REPS times.

    One discarded import first fills the bytecode cache, which users pay once.
    """
    code = "import time, finiteweyl.cli; print(time.monotonic())"
    samples = []
    for _ in range(SETUP_REPS + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError(f"cannot import finiteweyl.cli: {done.stderr.decode()[-500:]}")
        samples.append(float(done.stdout) - start)
    return samples[1:]


def environment(seed: int) -> dict:
    """What a result depends on beyond the code: interpreter, BLAS build and threads, cores."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    threads = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30)
        commit = done.stdout.decode().strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "build": blas.get("openblas configuration"),
            "library": libs,
            "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def run_request(workload: str, traced: bool, env: dict, reference: dict, deadline: float) -> Request:
    cli_args = list(WORKLOADS[workload][0])
    trace_path = RESULTS / f"trace-{workload}.json"
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *cli_args]
    else:
        cmd = [sys.executable, "-m", "finiteweyl.cli", *cli_args]
    trace_path.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    code, out, wall, usage = spawn(cmd, env, timeout)
    problems = check_output(workload, code, out, reference)
    if problems:
        problems.append("stderr tail: " + (RESULTS / "last-stderr.txt").read_text(errors="replace")[-300:])
    trace = json.loads(trace_path.read_text()) if traced and not problems else None
    return Request(
        traced=traced,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        exit_code=code,
        problems=problems,
        trace=trace,
    )


def end_to_end_metrics(setup: list[float], requests: list[Request]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "request_s.p50": (statistics.median(r.wall_s for r in requests), "s"),
        "cpu_s.p50": (statistics.median(r.cpu_s for r in requests), "s"),
        "peak_rss_mb": (max(r.maxrss_mb for r in requests), "MB"),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced request (0 where a layer was not called)."""
    spans, counters = trace["spans"], trace["counters"]
    out = {
        f"{name}.{stat}": (spans.get(name, {}).get(stat, 0), "count" if stat == "calls" else "s")
        for name, stat in SPAN_METRICS
    }
    flops = counters.get("mub.unbiasedness.gflop_computed", 0.0)
    busy = out["mub.unbiasedness.busy_s"][0]
    pairs = counters.get("search.vertex_pairs", 0)
    out.update(
        {
            "mub.unbiasedness.gflop_computed": (flops, "GFLOP"),
            "mub.unbiasedness.gflop_per_s": (flops / busy if busy else 0.0, "GFLOP/s"),
            "serialize.json_dumps.bytes": (counters.get("serialize.json_dumps.bytes", 0), "B"),
            "search.adjacency_tests_per_pair": (
                counters.get("search.commutation_tests", 0) / pairs if pairs else 0.0,
                "ratio",
            ),
        }
    )
    for name in COSTLY_CHECKS:
        # the metric names the check without its suite prefix, to stay within 64 characters
        out[f"suites.check.{name.split('.', 1)[1]}.s"] = (trace["checks"].get(name, 0.0), "s")
    return out


def per_layer_metrics(requests: list[Request]) -> dict:
    """Medians over the traced requests, plus the tracing overhead."""
    traced = [r for r in requests if r.traced and r.trace]
    untraced = [r for r in requests if not r.traced]
    if not traced or not untraced:
        return {}
    per_request = [layer_metrics(r.trace) for r in traced]
    out = {
        name: (statistics.median(m[name][0] for m in per_request), unit)
        for name, (_, unit) in per_request[0].items()
    }
    ratio = statistics.median(r.wall_s for r in traced) / statistics.median(
        r.wall_s for r in untraced
    )
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def closed_loop(workload: str, seconds: float, trace: bool, seed: int, env: dict) -> list[Request]:
    reference = load_reference(workload)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced = trace and random.Random(seed).random() < 0.5
    requests: list[Request] = []
    while True:
        requests.append(run_request(workload, traced, env, reference, deadline))
        both_kinds = not trace or len({r.traced for r in requests}) == 2
        now = time.monotonic()
        if (both_kinds and now - start >= seconds) or now >= deadline:
            return requests
        if trace:
            traced = not traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "finiteweyl" / "cli.py").is_file():
        print(f"error: no finiteweyl sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = child_env()
    record = {
        "workload": args.workload,
        "command": ["python", "-m", "finiteweyl.cli", *WORKLOADS[args.workload][0]],
        "load": "closed loop, 1 client",
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
    }
    setup = [] if args.trace else measure_setup(env)
    requests = closed_loop(args.workload, args.seconds, bool(args.trace), args.seed, env)
    failed = sum(1 for r in requests if r.problems)
    metrics = per_layer_metrics(requests) if args.trace else end_to_end_metrics(setup, requests)

    env_info = record["environment"]
    print(
        f"{args.workload}: {len(requests)} requests ({sum(r.traced for r in requests)} traced), "
        f"closed loop, 1 client, seed {args.seed}"
    )
    print(
        f"python {env_info['python']}, numpy {env_info['numpy']}, {env_info['blas']['build']}, "
        f"{env_info['blas']['threads']} BLAS threads, nproc {env_info['nproc']}, "
        f"commit {env_info['commit']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {failed / len(requests):.6g} ({failed} of {len(requests)} requests)")
    for r in requests:
        for problem in r.problems:
            print(f"error: {problem}")

    metrics_json = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record.update(
        setup_s=setup,
        requests=[{k: v for k, v in asdict(r).items() if k != "trace"} for r in requests],
        traces=[r.trace for r in requests if r.trace],
        error_rate=failed / len(requests),
        metrics=metrics_json,
    )
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"full record: {out_path.relative_to(ROOT)}")

    result = {"correct": failed == 0, "attempted": len(requests), "failed": failed, "metrics": metrics_json}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
