"""The benchmark's workloads and the semantic check of each request's output.

A request is correct only when its exit code is the expected one and its
stdout passes the workload's check.  Exact fields (check names, statuses
and tolerances; tau-exponent tables; partition classes; `complete`
flags) must equal the references in `reference/`, which were extracted
with `exact_fields` from the outputs of the seed commit.  Float fields
must lie within the tolerance the payload itself states.  Only the
fields named here are read, so a payload may gain fields and still pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# name -> (CLI arguments, expected exit code)
WORKLOADS = {
    # exit 1 is the correct result: group.class_count_formula fails by design
    # at composite d (README "Known failing claims") and every other check passes
    "verify-composite": (("verify", "all", "--d", "12"), 1),
    "mub-family": (("mub", "family", "--p", "97"), 0),
    "tensor-partition": (("basis", "partition", "--tensor", "2,4"), 0),
}

BY_DESIGN_FAILURES = {"group.class_count_formula"}


def _digest(table: list) -> str:
    """sha256 of one tau-exponent table; the 96 tables at p=97 are too big to store."""
    return hashlib.sha256(json.dumps(table, separators=(",", ":")).encode()).hexdigest()


def exact_fields(workload: str, payload: dict) -> dict:
    """The fields of a payload that must match the reference exactly."""
    if workload == "verify-composite":
        return {
            "suite": payload["suite"],
            "overall": payload["overall"],
            "checks": [[c["name"], c["status"], c["tolerance"]] for c in payload["checks"]],
        }
    if workload == "mub-family":
        bases = []
        for basis in payload["bases"]:
            entry = {"label": basis["label"]}
            if basis.get("identity"):
                entry["identity"] = True
            else:
                entry["normalization"] = basis["normalization"]
                entry["tau_exponents_sha256"] = _digest(basis["tau_exponents"])
            bases.append(entry)
        return {
            "type": payload["type"],
            "p": payload["p"],
            "basis_labels": payload["basis_labels"],
            "bases": bases,
            "tolerance": payload["tolerance"],
            "status": payload["status"],
        }
    if workload == "tensor-partition":
        return {
            key: payload[key]
            for key in ("type", "dimension", "tensor_dims", "complete", "classes")
        }
    raise ValueError(f"unknown workload {workload!r}")


def _within(value, tolerance: float) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and math.isfinite(value) and 0.0 <= value <= tolerance


def _float_problems(workload: str, payload: dict) -> list[str]:
    problems = []
    if workload == "verify-composite":
        failing = set()
        for check in payload["checks"]:
            passed = _within(check["max_deviation"], check["tolerance"])
            if passed != (check["status"] == "pass"):
                problems.append(f"{check['name']}: status disagrees with its deviation")
            if not passed:
                failing.add(check["name"])
        if failing != BY_DESIGN_FAILURES:
            problems.append(f"failing checks {sorted(failing)}, expected {sorted(BY_DESIGN_FAILURES)}")
    elif workload == "mub-family":
        tolerance = payload["tolerance"]
        matrix = payload["pairwise_deviation_matrix"]
        n = len(payload["basis_labels"])
        if len(matrix) != n or any(len(row) != n for row in matrix):
            return [f"deviation matrix is not {n} x {n}"]
        bad = [
            (i, j, value)
            for i, row in enumerate(matrix)
            for j, value in enumerate(row)
            if not _within(value, tolerance) or value != matrix[j][i]
        ]
        if bad:
            i, j, value = bad[0]
            problems.append(
                f"{len(bad)} deviations outside [0, {tolerance}] or asymmetric, first [{i}][{j}] = {value!r}"
            )
        worst = max(max(row) for row in matrix)
        if payload["max_deviation"] != worst:
            problems.append(f"max_deviation {payload['max_deviation']!r} is not the matrix maximum {worst!r}")
    return problems


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def check_output(workload: str, exit_code: int, stdout: bytes, reference: dict) -> list[str]:
    """Problems with one request's result; an empty list means correct."""
    expected_exit = WORKLOADS[workload][1]
    problems = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    try:
        payload = json.loads(stdout)
        fields = exact_fields(workload, payload)
        problems += _float_problems(workload, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable payload: {type(exc).__name__}: {exc}"]
    for key, expected in reference.items():
        if fields.get(key) != expected:
            problems.append(f"field {key!r} differs from the reference")
    return problems
