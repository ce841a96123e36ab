"""Spans around finiteweyl's public functions, recorded from outside the library.

`installed(tracer)` replaces each function in `TARGETS` with a timing
wrapper in every finiteweyl module that binds it: `cli` binds names with
`from .mub import ...` while `suites` calls `mub_mod.x`, so replacing the
name in its home module alone would miss calls.  Methods are wrapped on
their class.  Leaving the `with` block restores every original, so code
run outside it is the unmodified library.

A span's busy time is its duration; its self time is its duration minus
the durations of the traced spans it called directly.  None of the traced
functions calls itself, so busy times never count an interval twice.
Spans are aggregated in memory, per name and per (caller, callee) edge,
and written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class Tracer:
    """In-memory span aggregates for one traced request."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, busy_s]
        self.counters: dict[str, float] = defaultdict(float)
        self.checks: dict[str, float] = {}  # check name -> Check.elapsed
        self._open: list[list] = []  # [name, traced child seconds] per open span

    def wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans, clock, edges = self._open, self.clock, self.edges

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if open_spans:
                    caller = open_spans[-1]
                    caller[1] += elapsed
                    edge = edges.get((caller[0], name))
                    if edge is None:
                        edge = edges[(caller[0], name)] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += elapsed

        return span

    def to_json(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "busy_s": busy, "self_s": own}
                for name, (c, busy, own) in sorted(self.spans.items())
            },
            "edges": [
                {"caller": caller, "callee": callee, "calls": c, "busy_s": busy}
                for (caller, callee), (c, busy) in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "checks": self.checks,
        }


# Adapters add work counters; each runs inside the span of the call it adapts.


def _record_checks(tracer: Tracer, fn: Callable) -> Callable:
    def run_suite(*args, **kwargs):
        report = fn(*args, **kwargs)
        tracer.checks.update({c.name: c.elapsed for c in report.checks})
        return report

    return run_suite


def _count_flops(tracer: Tracer, fn: Callable) -> Callable:
    def unbiasedness(b1, b2):
        # one complex d x d matmul: d^3 complex multiply-adds, 8 real flops each
        tracer.counters["mub.unbiasedness.gflop_computed"] += 8 * b1.d**3 / 1e9
        return fn(b1, b2)

    return unbiasedness


def _count_bytes(tracer: Tracer, fn: Callable) -> Callable:
    def json_dumps(payload):
        text = fn(payload)
        # json.dumps escapes non-ASCII by default, so characters are bytes
        tracer.counters["serialize.json_dumps.bytes"] += len(text)
        return text

    return json_dumps


def _count_adjacency_tests(tracer: Tracer, fn: Callable) -> Callable:
    counters = tracer.counters

    def find_commuting_partition(vertices, commutes, *args, **kwargs):
        def counted(u, v):
            counters["search.commutation_tests"] += 1
            return commutes(u, v)

        n = len(vertices)
        counters["search.vertex_pairs"] += n * (n - 1) // 2
        return fn(vertices, counted, *args, **kwargs)

    return find_commuting_partition


# "<module>.<function>" or "<module>.<Class>.<method>" -> counter adapter or None.
# The span is named "<module>.<function or method>".
TARGETS = {
    "cli.main": None,
    "suites.run_suite": _record_checks,
    "group.pd_named_subgroups": None,
    "group.pd_conjugacy_classes": None,
    "group.pd_conjugate": None,
    "operators.monomial_mul": None,
    "operators.MonomialOperator.to_matrix": None,
    "phases.PhaseExponent.to_complex": None,
    "basis.hs_orthogonality": None,
    "basis.pauli_commutator": None,
    "basis.commuting_class_search": None,
    "basis.cartan_partition_prime_power": None,
    "basis.tensor_indices_commute": None,
    "basis.partition_dense_commutation_defect": None,
    "search.find_commuting_partition": _count_adjacency_tests,
    "mub.mub_family": None,
    "mub.basis_exponent_table": None,
    "mub.pairwise_deviations": None,
    "mub.unbiasedness": _count_flops,
    "serialize.json_dumps": _count_bytes,
}


PACKAGE = "finiteweyl"


def _binders(original: Callable, attr: str) -> list:
    """Every loaded finiteweyl module that binds `attr` to `original`."""
    return [
        module
        for name, module in list(sys.modules.items())
        if (name == PACKAGE or name.startswith(PACKAGE + "."))
        and vars(module).get(attr) is original
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore it."""
    for target in TARGETS:
        importlib.import_module(f"{PACKAGE}.{target.split('.')[0]}")
    saved: list[tuple[object, str, object]] = []
    try:
        for target, adapter in TARGETS.items():
            module, *owner_path, attr = target.split(".")
            owner = sys.modules[f"{PACKAGE}.{module}"]
            for cls in owner_path:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            fn = adapter(tracer, original) if adapter else original
            wrapper = tracer.wrap(f"{module}.{attr}", fn)
            holders = [owner] if owner_path else _binders(original, attr)
            for holder in holders:
                saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)
