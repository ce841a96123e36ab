"""The output format: every JSON payload encoder, the renderer, dense CSV.

No other module knows the shape of a payload.  `export(obj, fmt)` returns
the text of one library object, `export_chunks` the same text in chunks,
each `export_*` function the chunks of the results of one CLI command, and
`_document` adds the top-level "schema": 1.  Exact objects (phases,
monomials, Weyl pairs, Hadamard exponent tables, partitions) serialize
through integer tau exponents and read back bit-identically through
`import_exact`, whose decoders sit next to their encoders; a Weyl pair must
be the shift and clock of its d, a Hadamard table must be the table of H_a
for its d and a, a partition must have dimensions that pass
`limits.check_partition` (a listed tensor has two factors or more, since
null is one qudit) and nonempty classes of labels that fit them, the
identity excluded, and must pass `validate_cartan_partition` (a document
marked complete must hold a complete partition, whose `complete` is read
off its classes, never off the document), and a field of the wrong type
is a ValueError that names the document type.  Dense matrices serialize
as CSV rows of re,im pairs with 17 significant digits; non-finite
entries are rejected.

`json_chunks` is the one renderer of payload text, and `json_dumps` joins
its chunks.  The text is byte-identical to `json.dumps(payload, indent=2,
separators=(",", ": "), allow_nan=False) + "\n"`, with each numeric ndarray
written as its `.tolist()` would be, and each record list (a one-axis
structured array, as the structure constants are) as the list of its
records' dicts.  The stdlib encodes the skeleton of the payload, with a NUL
placeholder string where each nonempty table goes; every error (a
non-finite float, a value that is not JSON) is raised while the skeleton is
built, before the first chunk is yielded, so a writer never leaves a
partial document.  The chunks are the skeleton pieces with the text of each
deferred table between them, so at most one table's text exists at a time.
`_table_text` writes every table: an int or float array of JSON, the codes
of a record list's `"key": value` texts and the re,im rows of dense CSV
alike; bool and complex arrays are not JSON here, as in `json.dumps`.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Callable, Iterator
from typing import TYPE_CHECKING, Any

import numpy as np

from .basis import CartanPartition, CommutatorTable, label_moduli, validate_cartan_partition
from .limits import check_partition
from .mub import HadamardMatrix, basis_exponent_table, hadamard_h_a
from .operators import MonomialOperator, weyl_pair
from .phases import PhaseExponent
from .report import VerificationReport

if TYPE_CHECKING:
    from fractions import Fraction

    from .group import ConjugacyClassReport, PdElement, Subgroup

SCHEMA_VERSION = 1


def json_chunks(payload: dict) -> Iterator[str]:
    """Deterministic rendering in chunks: fixed key order, fixed separators.

    Every check runs before this returns, so a failure leaves nothing
    written.  Non-finite floats raise ValueError rather than emitting
    NaN/Infinity, which are not standard JSON.
    """
    tables: list[_Table] = []

    def defer(value: Any) -> Any:
        if isinstance(value, np.ndarray) and value.dtype.names and value.ndim == 1:
            if not value.size:
                return []
            tables.append(_record_table(value))
            return _DEFERRED
        # a longdouble array's .tolist() holds numpy scalars, which are not JSON
        if isinstance(value, np.ndarray) and value.dtype.kind in "iuf" and value.itemsize <= 8:
            if value.ndim and value.size and np.isfinite(value).all():
                # repr is the stdlib's text of an int and of a finite float
                tables.append((value, repr, "[]"))
                return _DEFERRED
            # the stdlib renders an empty or 0-d array and raises on NaN or infinity
            return value.tolist()
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    text = json.dumps(payload, indent=2, allow_nan=False, default=defer) + "\n"
    pieces = text.split(json.dumps(_DEFERRED))
    if len(pieces) != len(tables) + 1:
        raise ValueError("a payload string reads as the NUL placeholder of a table")
    return _interleave(pieces, tables)


def json_dumps(payload: dict) -> str:
    """The text of `json_chunks(payload)`."""
    return "".join(json_chunks(payload))


# json.dumps writes it as "\u0000", which a payload string writes only when it
# is NUL or ends in a quote and NUL; json_chunks rejects such a payload
_DEFERRED = "\0"

# a nonempty table of at least one axis, its entries' text, its innermost lists' brackets
_Table = tuple[np.ndarray, Callable[[Any], str], str]


def _interleave(pieces: list[str], tables: list[_Table]) -> Iterator[str]:
    yield pieces[0]
    for (value, number, inner), before, piece in zip(tables, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        indent = line[: len(line) - len(line.lstrip(" "))]
        yield _json_array(value, indent, number, inner)
        yield piece


def _record_table(value: np.ndarray) -> _Table:
    """A nonempty record list as the table of its dicts: each record's codes of its texts.

    Each field's distinct values (numbers told apart by their bits, text by
    its value) become `"key": value` texts, encoded here, so that a value
    that is not JSON raises before the first chunk.
    """
    # the stdlib's text of a value in an indented document, and its errors
    encode = json.JSONEncoder(indent=2, allow_nan=False).encode
    texts: list[str] = []
    codes = np.empty((len(value), len(value.dtype.names)), dtype=np.int64)
    for q, name in enumerate(value.dtype.names):
        column = value[name]
        bits = column if column.dtype.kind == "U" else column.view(f"u{column.itemsize}")
        distinct, codes[:, q] = np.unique(bits, return_inverse=True)
        codes[:, q] += len(texts)
        texts += [f"{encode(name)}: {encode(x)}" for x in distinct.view(column.dtype).tolist()]
    return codes, texts.__getitem__, "{}"


def _json_array(value: np.ndarray, indent: str, number: Callable[[Any], str], inner: str) -> str:
    """The text of the `_Table` (value, number, inner) at indent.

    Its lists nest as in `value.tolist()`, and each entry reads number(entry).
    """
    depth = value.ndim
    # the closing bracket of a list at nesting level q sits at pads[q], its entries at pads[q + 1]
    pads = [indent + "  " * q for q in range(depth + 1)]
    brackets = ["[]"] * (depth - 1) + [inner]

    def opening(q: int) -> str:
        return "".join(f"{brackets[level][0]}\n{pads[level + 1]}" for level in range(q, depth))

    def gap(m: int) -> str:
        levels = reversed(range(depth - m, depth))
        closing = "".join(f"\n{pads[level]}{brackets[level][1]}" for level in levels)
        return closing if m == depth else f"{closing},\n{pads[depth - m]}{opening(depth - m)}"

    return opening(0) + _table_text(value, number, gap)


def _table_text(value: np.ndarray, number: Callable[[Any], str], gap: Callable[[int], str]) -> str:
    """Each entry of value as number(entry) + gap(m), in row-major order.

    m counts the trailing axes whose last index the entry sits at.  The text
    is one lookup of (distinct entry, m) per entry; entries are told apart
    by their bits, so -0.0 keeps its own text.
    """
    depth = value.ndim
    position = np.arange(1, value.size + 1)
    ends = sum(position % math.prod(value.shape[q:]) == 0 for q in range(depth))
    bits, codes = np.unique(value.ravel().view(f"u{value.itemsize}"), return_inverse=True)
    gaps = [gap(m) for m in range(depth + 1)]
    lookup = [text + g for text in map(number, bits.view(value.dtype).tolist()) for g in gaps]
    keys = codes * (depth + 1) + ends
    return "".join(map(lookup.__getitem__, keys.tolist()))


def _document(payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, **payload}


def _json(payload: dict) -> Iterator[str]:
    return json_chunks(_document(payload))


def _text(fmt: str, payload: Callable[[], dict], dense: Callable[[], str]) -> Iterator[str]:
    """The one format switch: the JSON document of payload() or the CSV text dense()."""
    if fmt in ("json", "exact-json"):
        return _json(payload())
    if fmt == "dense-csv":
        return iter([dense()])
    raise ValueError(f"unknown format {fmt!r}")


def _phase(p: PhaseExponent) -> dict:
    return {"type": "phase", "tau_exp": p.t, "tau_denominator": 2 * p.d}


def _phase_from(payload: dict) -> PhaseExponent:
    denom = payload["tau_denominator"]
    if denom % 2 != 0:
        raise ValueError(f"tau_denominator must be even, got {denom}")
    return PhaseExponent(payload["tau_exp"], denom // 2)


def _monomial(m: MonomialOperator) -> dict:
    return {"type": "monomial", "d": m.d, "tau_exp": m.phase.t, "shift": m.shift, "clock": m.clock}


def _monomial_from(payload: dict) -> MonomialOperator:
    return MonomialOperator.from_tau_exponent(
        payload["d"], payload["tau_exp"], payload["shift"], payload["clock"]
    )


def _weyl_pair_from(payload: dict) -> tuple[MonomialOperator, MonomialOperator]:
    pair = _monomial_from(payload["X"]), _monomial_from(payload["Z"])
    # the pair is a function of d, so the document must hold that pair
    if pair != weyl_pair(payload["d"]):
        raise ValueError(f"weyl-pair X and Z are not the shift and clock of d={payload['d']}")
    return pair


def _hadamard(h: HadamardMatrix) -> dict:
    return {"type": "hadamard", "d": h.d, "a": h.a, "tau_exponents": h.exponents}


def _hadamard_from(payload: dict) -> HadamardMatrix:
    d, a = payload["d"], payload["a"]
    exponents = np.array(payload["tau_exponents"], dtype=np.int64)
    # a d that is not an int is a type error, not a shape that cannot match
    if exponents.shape != (operator.index(d),) * 2:
        raise ValueError(f"hadamard tau_exponents must be {d} x {d}, got shape {exponents.shape}")
    # the table is a function of d and a, so the document must hold that table
    h = hadamard_h_a(d, a)
    if not np.array_equal(exponents, h.exponents):
        raise ValueError(f"hadamard tau_exponents are not the table of H_a for d={d}, a={a}")
    return h


def _partition(p: CartanPartition) -> dict:
    moduli = label_moduli(p.dims)
    return {
        "type": "partition",
        "dimension": p.dimension,
        "tensor_dims": list(p.dims) if len(p.dims) > 1 else None,  # null: one qudit
        "complete": p.complete,
        "classes": [[format_index(idx, moduli) for idx in cls] for cls in p.classes],
    }


def _partition_from(payload: dict) -> CartanPartition:
    dimension, listed = payload["dimension"], payload["tensor_dims"]
    # null is one qudit, so a listed tensor has at least two factors
    dims = (dimension,) if listed is None else tuple(listed)
    try:
        writable = (listed is None or len(dims) > 1) and check_partition(dims) == dimension
    except ValueError:
        writable = False
    if not writable:
        raise ValueError(f"partition document has dimension {dimension}, tensor_dims {listed}")
    marked_complete = payload["complete"]
    moduli = label_moduli(dims)
    classes = [[_label_from(text, moduli) for text in cls] for cls in payload["classes"]]
    if not all(cls and all(any(label) for label in cls) for cls in classes):
        raise ValueError("partition document has an empty class or the identity label")
    partition = CartanPartition(dims, classes)
    # completeness is read off the classes: a Cartan partition is complete whatever it says
    valid = validate_cartan_partition(partition)
    if marked_complete and not (valid and partition.complete):
        raise ValueError("partition document is marked complete but is not a Cartan partition")
    if not valid:
        raise ValueError("partition document repeats a label or has a class that does not commute")
    return partition


def _label_from(label: str, moduli: tuple[int, ...]) -> tuple[int, ...]:
    try:
        idx = parse_index(label)
    except ValueError:
        raise TypeError(f"label {label} is not a digit string") from None
    if len(idx) != len(moduli) or not all(0 <= x < m for x, m in zip(idx, moduli)):
        raise ValueError(f"partition label {label} does not fit moduli {moduli}")
    return idx


def format_index(idx: tuple, moduli: tuple[int, ...]) -> str:
    """Digit string "(ab)" / "(a1b1a2b2)"; commas once any modulus passes 10."""
    if all(m <= 10 for m in moduli):
        return "(" + "".join(str(x) for x in idx) + ")"
    return "(" + ",".join(str(x) for x in idx) + ")"


def parse_index(label: str) -> tuple[int, ...]:
    """The inverse of `format_index`: one pair of parentheses around ASCII
    digits, one per entry or joined by single commas."""
    body = label.removeprefix("(").removesuffix(")")
    fields = body.split(",")
    if len(body) + 2 != len(label) or not all(f.isascii() and f.isdigit() for f in fields):
        raise ValueError(f"label {label} is not a digit string")
    if len(fields) > 1:
        return tuple(int(x) for x in fields)
    return tuple(int(ch) for ch in body)


_DECODERS = {
    "phase": _phase_from,
    "monomial": _monomial_from,
    "weyl-pair": _weyl_pair_from,
    "hadamard": _hadamard_from,
    "partition": _partition_from,
}


def import_exact(text: str) -> Any:
    """Inverse of export(..., "json") for exact payloads."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"an exact document is a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    kind = payload.get("type")
    if kind not in _DECODERS:
        raise ValueError(f"unknown payload type {kind!r}")
    try:
        return _DECODERS[kind](payload)
    except KeyError as missing:
        raise ValueError(f"{kind} document has no field {missing}") from None
    # a field of the wrong type, or an integer too large for a table entry
    except (TypeError, AttributeError, OverflowError) as error:
        raise ValueError(f"{kind} document has a malformed field: {error}") from None


def _report(report: VerificationReport) -> dict:
    checks = [
        {
            "name": c.name,
            "status": "pass" if c.passed else "fail",
            "max_deviation": c.max_deviation,
            "tolerance": c.tolerance,
        }
        for c in report.checks
    ]
    overall = "pass" if report.overall else "fail"
    return {"suite": report.suite, "overall": overall, "checks": checks}


def _conjugacy_classes(report: ConjugacyClassReport) -> dict:
    return {
        "type": "conjugacy-classes",
        "d": report.d,
        "class_count": report.class_count,
        "singleton_count": report.singleton_count,
        "size_d_count": report.size_d_count,
        "size_histogram": {str(k): v for k, v in report.size_histogram.items()},
        # a few hundred short tables render faster as lists than as deferred arrays
        "classes": [cls.tolist() for cls in report.classes],
    }


def _structure_constants(table: CommutatorTable) -> dict:
    """The nonzero commutators [u_i, u_j], in row-major (i, j) order, as a record list."""
    d = table.d
    labels = np.array([format_index(divmod(k, d), (d, d)) for k in range(d * d)])
    # u_i and u_j commute exactly when their two exponents agree
    i, j = np.nonzero(table.first != table.second)
    coefficients = table.coefficients((i, j))
    columns = {
        "left": labels[i],
        "right": labels[j],
        "target": labels[table.target[i, j]],
        "tau_first": table.first[i, j],
        "tau_second": table.second[i, j],
        "re": coefficients.real,
        "im": coefficients.imag,
    }
    rows = np.rec.fromarrays(list(columns.values()), names=list(columns))
    return {"type": "structure-constants", "d": d, "nonzero_count": len(rows), "entries": rows}


def _key(cls: type) -> tuple[str, str]:
    return cls.__module__, cls.__qualname__


# keyed by the exact type's module and name, so that `group`, whose reports
# only a `group` request builds, is not imported to encode the others
_ENCODERS: dict[tuple[str, str], Callable[[Any], dict]] = {
    _key(PhaseExponent): _phase,
    _key(MonomialOperator): _monomial,
    _key(HadamardMatrix): _hadamard,
    _key(CartanPartition): _partition,
    _key(VerificationReport): _report,
    (f"{__package__}.group", "ConjugacyClassReport"): _conjugacy_classes,
    _key(CommutatorTable): _structure_constants,
}


def _payload(obj: Any) -> dict:
    encode = _ENCODERS.get(_key(type(obj)))
    if encode is None:
        raise TypeError(f"no exact JSON encoding for {type(obj).__name__}")
    return encode(obj)


def dense_matrix_of(obj: Any) -> np.ndarray:
    if isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, (MonomialOperator, HadamardMatrix)):
        return obj.to_matrix()
    raise TypeError(f"cannot render {type(obj).__name__} as a dense matrix")


def export_chunks(obj: Any, fmt: str = "json") -> Iterator[str]:
    """Render a library object as exact JSON or dense CSV text, in chunks.

    A `CommutatorTable` renders as the structure constants of u(d).
    """
    return _text(fmt, lambda: _payload(obj), lambda: matrix_to_csv(dense_matrix_of(obj)))


def export(obj: Any, fmt: str = "json") -> str:
    """The text of `export_chunks(obj, fmt)`."""
    return "".join(export_chunks(obj, fmt))


def export_centralizer(element: PdElement, size: int) -> Iterator[str]:
    d = element.d
    return _json(
        {
            "type": "centralizer",
            "d": d,
            "element": [element.a, element.b, element.c],
            "centralizer_size": size,
            "class_size": d**3 // size,
        }
    )


def export_subgroups(d: int, subgroups: list[Subgroup]) -> Iterator[str]:
    entries = [
        {
            "name": s.name,
            "order": len(s.elements),
            "is_normal": s.is_normal,
            "isomorphism": s.isomorphism,
            "elements": s.elements,
        }
        for s in subgroups
    ]
    return _json({"type": "subgroups", "d": d, "subgroups": entries})


def export_irreps(d: int, counts: tuple[int, int], norms: list[Fraction]) -> Iterator[str]:
    """The claimed census and the character norm of rho_k for k = 1..d-1."""
    representations = [
        {
            "k": k,
            "character_norm": int(norm) if norm.denominator == 1 else float(norm),
            "irreducible": norm == 1,
        }
        for k, norm in enumerate(norms, start=1)
    ]
    return _json(
        {
            "type": "irreps",
            "d": d,
            "one_dimensional": counts[0],
            "claimed_d_dimensional": counts[1],
            "monomial_representations": representations,
        }
    )


def export_weyl_pair(x: MonomialOperator, z: MonomialOperator, fmt: str) -> Iterator[str]:
    """Both monomials as nested exact documents, or as two labelled CSV blocks."""
    return _text(
        fmt,
        lambda: {
            "type": "weyl-pair",
            "d": x.d,
            "X": _document(_monomial(x)),
            "Z": _document(_monomial(z)),
        },
        lambda: f"# X\n{matrix_to_csv(x.to_matrix())}# Z\n{matrix_to_csv(z.to_matrix())}",
    )


def export_dense(kind: str, mat: np.ndarray, fmt: str, **fields: Any) -> Iterator[str]:
    """A dense matrix as its re and im rows after fields, or as CSV."""
    return _text(
        fmt,
        lambda: {"type": kind, **fields, "re": mat.real, "im": mat.imag},
        lambda: matrix_to_csv(mat),
    )


def _mub_basis(p: int, label: str) -> dict:
    if label == "computational":
        return {"label": label, "identity": True}
    # built from p and the label, so the family's dense vectors can be freed first
    table = basis_exponent_table(p, int(label))
    return {"label": label, "normalization": "1/sqrt(p)", "tau_exponents": table}


def export_mub_family(
    p: int, labels: list[str], deviations: np.ndarray, tolerance: float
) -> Iterator[str]:
    """The family's exponent tables and the symmetric matrix of pairwise deviations.

    Every table is built before the first chunk; the chunks hold the text of
    one table at a time.
    """
    worst = float(deviations.max())
    return _json(
        {
            "type": "mub-family",
            "p": p,
            "basis_labels": labels,
            "bases": [_mub_basis(p, label) for label in labels],
            "pairwise_deviation_matrix": deviations,
            "max_deviation": worst,
            "tolerance": tolerance,
            "status": "pass" if worst <= tolerance else "fail",
        }
    )


def matrix_to_csv(mat: np.ndarray) -> str:
    """Row-major re,im pairs, 17 significant digits; NaN and infinities raise."""
    mat = np.atleast_2d(mat)
    if not np.isfinite(mat).all():
        raise ValueError("dense CSV cannot encode non-finite matrix entries (NaN or infinity)")
    # each row's re,im pairs side by side; adding positive zero folds -0.0 into 0.0
    pairs = np.ascontiguousarray(mat, dtype=complex).view(float)
    return _table_text(pairs, lambda x: f"{x + 0.0:.17g}", lambda m: "\n" if m else ",")
