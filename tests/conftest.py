"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib

import numpy as np

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name) as handle:
        return json.load(handle)


def load_spans():
    """The benchmark's `perfbench/spans.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def max_abs(array) -> float:
    return float(np.max(np.abs(array)))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def mixed_dims(max_size: int, prefix: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Every tuple of tensor factors >= 2, not all equal, with product at most max_size."""
    out = [prefix] if len(set(prefix)) > 1 else []
    for factor in range(2, max_size // math.prod(prefix) + 1):
        out += mixed_dims(max_size, (*prefix, factor))
    return out


def golden_matrix(entries: list, d: int) -> np.ndarray:
    """Dense matrix from a golden tau-exponent table (null means zero).

    Quarter-turn phases are mapped exactly so qubit tables compare with
    zero tolerance; everything else goes through exp.
    """
    quarter = {0: 1, 1: 1j, 2: -1, 3: -1j}
    out = np.zeros((d, d), dtype=complex)
    for i, row in enumerate(entries):
        for j, t in enumerate(row):
            if t is None:
                continue
            if (2 * t) % d == 0:
                out[i, j] = quarter[(2 * t // d) % 4]
            else:
                out[i, j] = np.exp(1j * np.pi * t / d)
    return out


def patch_kernel_mutant(monkeypatch, name: str) -> None:
    """Replace row kernels of `operators`, and `basis`'s imports of them, by one named mutant.

    - "unweighted_trace": a trace's factor exponents summed without their
      L / d_k weights;
    - "first_factor_modulus": every kernel reduces every factor by d_0;
    - "flipped_reordering_sign": u v takes tau^(t + t' + 2 clock shift').
    """
    import finiteweyl.basis as basis_mod
    import finiteweyl.operators as op_mod

    kernels = ("monomial_mul_array", "monomial_adjoint_array", "monomial_trace_array")
    mul, _, trace = (getattr(op_mod, kernel) for kernel in kernels)

    def unweighted_trace(u, d):
        _, scalar = trace(u, d)
        return np.asarray(u)[..., 0].sum(axis=-1) % (2 * np.lcm.reduce(d, axis=None)), scalar

    def flipped_reordering_sign(u, v, d):
        out = mul(u, v, d)
        out[..., 0] += 4 * np.asarray(u)[..., 2] * np.asarray(v)[..., 1]
        return out % np.multiply.outer(d, (2, 1, 1))

    def first_factor_modulus(kernel):
        return lambda *args: kernel(*args[:-1], np.atleast_1d(args[-1])[0])

    patches = {
        "unweighted_trace": {"monomial_trace_array": unweighted_trace},
        "first_factor_modulus": {k: first_factor_modulus(getattr(op_mod, k)) for k in kernels},
        "flipped_reordering_sign": {"monomial_mul_array": flipped_reordering_sign},
    }[name]
    for kernel, mutant in patches.items():
        monkeypatch.setattr(op_mod, kernel, mutant)
        if hasattr(basis_mod, kernel):
            monkeypatch.setattr(basis_mod, kernel, mutant)
