"""Shared helpers for the test suite."""

from __future__ import annotations

import importlib.util
import json
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
