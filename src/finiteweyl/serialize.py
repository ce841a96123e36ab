"""Exact JSON and dense CSV export.

Exact objects (phases, monomials, Hadamard exponent tables, partitions)
serialize through integer tau exponents and round-trip bit-identically.
Dense matrices serialize as CSV rows of re,im pairs with 17 significant
digits.  Every JSON payload carries a top-level "schema": 1.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .basis import CartanPartition, format_index
from .mub import HadamardMatrix
from .operators import MonomialOperator
from .phases import PhaseExponent

SCHEMA_VERSION = 1


def json_dumps(payload: dict) -> str:
    """Deterministic rendering: fixed key order, fixed separators.

    Non-finite floats raise ValueError rather than emitting NaN/Infinity,
    which are not standard JSON.
    """
    return json.dumps(payload, indent=2, separators=(",", ": "), allow_nan=False) + "\n"


def phase_to_payload(p: PhaseExponent) -> dict:
    return {"schema": SCHEMA_VERSION, "type": "phase", **p.to_json()}


def monomial_to_payload(m: MonomialOperator) -> dict:
    return {"schema": SCHEMA_VERSION, "type": "monomial", **m.to_json()}


def hadamard_to_payload(h: HadamardMatrix) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "hadamard",
        "d": h.d,
        "a": h.a,
        "tau_exponents": h.exponents.tolist(),
    }


def partition_to_payload(p: CartanPartition) -> dict:
    moduli = p.label_moduli()
    return {
        "schema": SCHEMA_VERSION,
        "type": "partition",
        "dimension": p.dimension,
        "tensor_dims": list(p.tensor_dims) if p.tensor_dims else None,
        "complete": p.complete,
        "classes": [[format_index(idx, moduli) for idx in cls] for cls in p.classes],
    }


def export(obj: Any, fmt: str = "json") -> str:
    """Render a library object as exact JSON or dense CSV text."""
    if fmt in ("json", "exact-json"):
        if isinstance(obj, PhaseExponent):
            return json_dumps(phase_to_payload(obj))
        if isinstance(obj, MonomialOperator):
            return json_dumps(monomial_to_payload(obj))
        if isinstance(obj, HadamardMatrix):
            return json_dumps(hadamard_to_payload(obj))
        if isinstance(obj, CartanPartition):
            return json_dumps(partition_to_payload(obj))
        if isinstance(obj, dict):
            return json_dumps({"schema": SCHEMA_VERSION, **obj})
        raise TypeError(f"no exact JSON encoding for {type(obj).__name__}")
    if fmt in ("csv", "dense-csv"):
        return matrix_to_csv(dense_matrix_of(obj))
    raise ValueError(f"unknown format {fmt!r}")


def dense_matrix_of(obj: Any) -> np.ndarray:
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, (MonomialOperator, HadamardMatrix)):
        return obj.to_matrix()
    raise TypeError(f"cannot render {type(obj).__name__} as a dense matrix")


def matrix_to_csv(mat: np.ndarray) -> str:
    """Row-major re,im pairs, 17 significant digits."""
    lines = []
    for row in np.atleast_2d(mat):
        cells = []
        for entry in row:
            value = complex(entry)
            # adding positive zero folds -0.0 into 0.0
            cells.append(f"{value.real + 0.0:.17g},{value.imag + 0.0:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def import_exact(text: str) -> Any:
    """Inverse of export(..., "json") for exact payloads."""
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    kind = payload.get("type")
    if kind == "phase":
        return PhaseExponent.from_json(payload)
    if kind == "monomial":
        return MonomialOperator.from_json(payload)
    if kind == "hadamard":
        return HadamardMatrix(
            d=payload["d"],
            a=payload["a"],
            exponents=np.array(payload["tau_exponents"], dtype=np.int64),
        )
    if kind == "partition":
        return partition_from_payload(payload)
    raise ValueError(f"unknown payload type {kind!r}")


def parse_index(label: str) -> tuple[int, ...]:
    body = label.strip("()")
    if "," in body:
        return tuple(int(x) for x in body.split(","))
    return tuple(int(ch) for ch in body)


def partition_from_payload(payload: dict) -> CartanPartition:
    return CartanPartition(
        dimension=payload["dimension"],
        classes=[[parse_index(label) for label in cls] for cls in payload["classes"]],
        complete=payload["complete"],
        tensor_dims=tuple(payload["tensor_dims"]) if payload["tensor_dims"] else None,
    )
