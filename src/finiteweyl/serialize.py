"""Exact JSON and dense CSV export.

Exact objects (phases, monomials, Hadamard exponent tables, partitions)
serialize through integer tau exponents and round-trip bit-identically.
Dense matrices serialize as CSV rows of re,im pairs with 17 significant
digits; non-finite entries are rejected.  Every JSON payload carries a
top-level "schema": 1.

`json_dumps` is the one renderer of payload text.  Its output is
byte-identical to `json.dumps(payload, indent=2, separators=(",", ": "),
allow_nan=False) + "\n"`, but each list of plain ints and floats (a row of
an exponent table or deviation matrix) is encoded by the C encoder in one
call; the indented `json.dumps` would fall back to the pure-Python encoder
and yield every number separately.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
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
    return _render(payload, "") + "\n"


_NUMBER_TYPES = {int, float}


def _render(value: Any, indent: str) -> str:
    """Indented JSON for value nested at indent; its closing bracket lines up with indent."""
    inner = indent + "  "
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = [f"{_render_key(k)}: {_render(v, inner)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        opening, closing = "[", "]"
        if value and set(map(type, value)) <= _NUMBER_TYPES:
            try:
                # the C encoder writes "[1, 2.5]"; numbers never contain ", "
                items = [json.dumps(value, allow_nan=False)[1:-1].replace(", ", ",\n" + inner)]
            except ValueError:
                items = [_render_scalar(x) for x in value]  # raises json's own message
        else:
            items = [_render(x, inner) for x in value]
    else:
        return _render_scalar(value)
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _render_scalar(value: Any) -> str:
    """One JSON scalar, tested in the order of the stdlib encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_key(key: Any) -> str:
    if isinstance(key, (float, int)) or key is None:
        key = _render_scalar(key)
    elif not isinstance(key, str):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


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
    """Row-major re,im pairs, 17 significant digits; NaN and infinities raise."""
    mat = np.atleast_2d(mat)
    if not np.isfinite(mat).all():
        raise ValueError("dense CSV cannot encode non-finite matrix entries (NaN or infinity)")
    lines = []
    for row in mat:
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
