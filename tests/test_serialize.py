import contextlib
import functools
import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays, from_dtype

import finiteweyl.cli as cli_mod
import finiteweyl.serialize as serialize_mod

from finiteweyl.basis import (
    TWO_QUBIT_SPREAD,
    CartanPartition,
    cartan_partition,
    cartan_partition_prime_power,
    commuting_class_search,
)
from finiteweyl.limits import MUB_PRIME_CAP, SEARCH_CAP
from finiteweyl.mub import hadamard_h_a
from finiteweyl.operators import MonomialOperator, weyl_pair
from finiteweyl.phases import PhaseExponent
from finiteweyl.serialize import (
    export,
    export_weyl_pair,
    format_index,
    import_exact,
    json_chunks,
    json_dumps,
    matrix_to_csv,
    parse_index,
)


def test_phase_round_trip():
    p = PhaseExponent(7, 5)
    text = export(p, "json")
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["tau_exp"] == 7 and payload["tau_denominator"] == 10
    assert import_exact(text) == p


def test_monomial_round_trip():
    x, _ = weyl_pair(3)
    text = export(x, "json")
    payload = json.loads(text)
    assert payload == {
        "schema": 1,
        "type": "monomial",
        "d": 3,
        "tau_exp": 0,
        "shift": 1,
        "clock": 0,
    }
    assert import_exact(text) == x
    fancy = MonomialOperator.from_tau_exponent(6, 11, 4, 5)
    assert import_exact(export(fancy, "json")) == fancy


def test_partition_round_trip_bit_identical():
    part = cartan_partition(7)
    text = export(part, "json")
    rebuilt = import_exact(text)
    assert rebuilt == part and rebuilt.dims == (7,)
    # one qudit is the one-factor dims (d,), written as null
    assert json.loads(text)["tensor_dims"] is None
    assert export(rebuilt, "json") == text


def test_tensor_partition_round_trip():
    part = cartan_partition_prime_power(2, 2)
    text = export(part, "json")
    rebuilt = import_exact(text)
    assert rebuilt == part and rebuilt.dims == (2, 2)
    assert export(rebuilt, "json") == text


def test_hadamard_round_trip():
    h = hadamard_h_a(4, 3)
    text = export(h, "json")
    rebuilt = import_exact(text)
    assert np.array_equal(rebuilt.exponents, h.exponents)
    assert export(rebuilt, "json") == text


def test_csv_format():
    _, z = weyl_pair(2)
    text = export(z, "dense-csv")
    assert text == "1,0,0,0\n0,0,-1,0\n"
    with pytest.raises(ValueError, match="unknown format 'csv'"):
        export(z, "csv")
    # row 0 of the a=1 qubit Hadamard is (i, -i), row 1 is (1, 1)
    h = hadamard_h_a(2, 1)
    lines = export(h, "dense-csv").strip().split("\n")
    assert lines[0] == "0,1,0,-1"
    assert lines[1] == "1,0,1,0"


def test_csv_seventeen_digits():
    mat = np.array([[1 / 3 + 0j]])
    assert matrix_to_csv(mat) == "0.33333333333333331,0\n"


def test_format_index():
    assert format_index((1, 2), (7, 7)) == "(12)"
    assert format_index((1, 0, 1, 1), (2, 2, 2, 2)) == "(1011)"
    assert format_index((1, 11), (12, 12)) == "(1,11)"


def test_parse_index():
    assert parse_index("(12)") == (1, 2)
    assert parse_index("(1011)") == (1, 0, 1, 1)
    assert parse_index("(1,11)") == (1, 11)
    assert parse_index("(1,2,0,1)") == (1, 2, 0, 1)
    for label in ("01", "(((02)))", "(1_0,2)", "( 1,2)", "(1,,2)", "()", "(12", "(¹²)"):
        with pytest.raises(ValueError, match="is not a digit string"):
            parse_index(label)


def test_export_rejects_unknown():
    with pytest.raises(TypeError):
        export(object(), "json")
    with pytest.raises(ValueError):
        export(PhaseExponent(0, 2), "yaml")
    with pytest.raises(ValueError):
        import_exact(json.dumps({"schema": 1, "type": "mystery"}))
    with pytest.raises(ValueError):
        import_exact(json.dumps({"schema": 99, "type": "phase"}))


def test_import_rejects_a_document_that_is_not_an_object():
    for text in ("[]", '"x"', "3"):
        with pytest.raises(ValueError, match="is a JSON object"):
            import_exact(text)


def test_import_rejects_a_document_without_a_field():
    text = json.dumps({"schema": 1, "type": "phase", "tau_exp": 1})
    with pytest.raises(ValueError, match="phase document has no field 'tau_denominator'"):
        import_exact(text)


def test_import_rejects_a_hadamard_table_of_the_wrong_shape():
    payload = {"schema": 1, "type": "hadamard", "d": 3, "a": 0, "tau_exponents": [[1]]}
    with pytest.raises(ValueError, match=r"must be 3 x 3, got shape \(1, 1\)"):
        import_exact(json.dumps(payload))


def test_import_rejects_a_hadamard_document_that_is_not_h_a():
    payload = {"schema": 1, "type": "hadamard", "d": 3, "a": 7, "tau_exponents": [[0] * 3] * 3}
    with pytest.raises(ValueError, match=r"^a must lie in 0..2, got 7$"):
        import_exact(json.dumps(payload))
    payload["a"] = 1
    with pytest.raises(ValueError, match="are not the table of H_a for d=3, a=1"):
        import_exact(json.dumps(payload))


def test_import_rejects_a_weyl_pair_whose_x_and_z_are_swapped():
    x, z = weyl_pair(3)
    text = "".join(export_weyl_pair(z, x, "exact-json"))
    with pytest.raises(ValueError, match=r"^weyl-pair X and Z are not the shift and clock of d=3$"):
        import_exact(text)


def _document_with(obj, **fields) -> str:
    """The exact document of obj with fields replaced."""
    return json.dumps({**json.loads(export(obj)), **fields})


@pytest.mark.parametrize(
    "text, message",
    [
        (
            _document_with(hadamard_h_a(3, 1), tau_exponents=[[2**70, 0, 0], [0] * 3, [0] * 3]),
            "hadamard document has a malformed field: Python int too large",
        ),
        (
            _document_with(cartan_partition(3), classes=[[12]]),
            "partition document has a malformed field: 'int' object has no attribute",
        ),
        (_document_with(cartan_partition(3), dimension="3"), "partition document has"),
        *[
            (
                _document_with(cartan_partition(3), classes=[[label]]),
                "partition document has a malformed field: label "
                + re.escape(label)
                + " is not a digit string",
            )
            for label in ("(0x)", "01", "(((02)))", "(1_0,2)", "( 1,2)")
        ],
        (_document_with(PhaseExponent(1, 3), tau_denominator="6"), "phase document has"),
        (_document_with(cartan_partition(3), classes=5), "partition document has"),
        (
            _document_with(hadamard_h_a(3, 1), d="3"),
            "hadamard document has a malformed field: 'str' object cannot be interpreted",
        ),
        (
            _document_with(weyl_pair(3)[0], shift=1.5),
            "monomial document has a malformed field: 'float' object cannot be interpreted",
        ),
        (
            _document_with(weyl_pair(3)[0], d=3.0),
            "monomial document has a malformed field: 'float' object cannot be interpreted",
        ),
        (
            _document_with(PhaseExponent(1, 3), tau_exp=1.5),
            "phase document has a malformed field: 'float' object cannot be interpreted",
        ),
    ],
)
def test_import_rejects_a_field_of_the_wrong_type_in_one_line(text, message):
    with pytest.raises(ValueError, match=message) as caught:
        import_exact(text)
    assert "\n" not in str(caught.value)
    assert caught.value.__cause__ is None and caught.value.__suppress_context__


def test_import_reads_a_bool_field_as_the_int_it_is():
    # operator.index accepts bool, an int subclass: true is 1, false is 0
    assert import_exact(_document_with(PhaseExponent(1, 3), tau_exp=True)) == PhaseExponent(1, 3)
    assert import_exact(_document_with(weyl_pair(3)[1], shift=False)) == weyl_pair(3)[1]


def _partition_document(classes, complete, dimension=3, tensor_dims=None) -> str:
    payload = {"schema": 1, "type": "partition", "dimension": dimension, "classes": classes}
    return json.dumps({**payload, "complete": complete, "tensor_dims": tensor_dims})


@pytest.mark.parametrize(
    "text, message",
    [
        (_partition_document([["(12)", "(9)"]], True), r"\(9\) does not fit moduli \(3, 3\)"),
        (_partition_document([["(12)", "(31)"]], False), r"label \(31\) does not fit"),
        (_partition_document([["(121)"]], False), r"label \(121\) does not fit"),
        (_partition_document([["(1011)"]], False, 4, [2, 3]), r"dimension 4, tensor_dims \[2, 3]$"),
        (_partition_document([["(1011)", "(1,2,0,1)"]], False, 4, [2, 2]), r"label \(1,2,0,1\)"),
        # disjoint and fitting, but neither covering nor commuting
        (_partition_document([["(01)", "(10)"]], True), "marked complete but is not"),
        # incomplete: a repeated label, then a class that does not commute
        (_partition_document([["(01)", "(01)"]], False), "repeats a label or has a class"),
        (_partition_document([["(01)"], ["(01)", "(02)"]], False), "repeats a label"),
        (_partition_document([["(01)", "(02)"], ["(10)", "(01)"]], False), "repeats a label"),
        (_partition_document([["(01)"], ["(10)", "(02)"]], False), "that does not commute"),
        (
            _partition_document([["(01)", "(01)"], ["(10)", "(02)"]], False),
            "repeats a label or has a class that does not commute",
        ),
        # documents the library cannot write: a dimension below 2, empty tensor_dims
        # (one qudit is null), the identity label, an empty class
        (_partition_document([], False, 1), r"^partition document has dimension 1, tensor_dims"),
        (_partition_document([], False, 2, [2, 1]), r"has dimension 2, tensor_dims \[2, 1\]$"),
        (_partition_document([["(01)"]], False, 3, []), r"has dimension 3, tensor_dims \[\]$"),
        (_partition_document([["(00)"]], False), "^partition document has an empty class or"),
        (_partition_document([["(0000)"]], False, 4, [2, 2]), "or the identity label$"),
        (_partition_document([["(01)"], []], False), "^partition document has an empty class"),
        # dimensions `basis partition` does not write: one factor, a factor that is not
        # prime, unequal factors, p^e = 32 over the tensor cap, a composite d over the
        # dense cap, and a prime over it, rejected before any primality test
        *[
            (
                _partition_document([["(01)"]], False, d, dims),
                rf"^partition document has dimension {d}, tensor_dims {re.escape(str(dims))}$",
            )
            for d, dims in [(3, [3]), (16, [4, 4]), (6, [2, 3]), (32, [2] * 5)]
            + [(200, None), (1000000000000000003, None)]
        ],
    ],
)
def test_import_rejects_partition_labels_that_do_not_fit(text, message):
    with pytest.raises(ValueError, match=message) as caught:
        import_exact(text)
    assert "\n" not in str(caught.value)


def test_import_reads_an_incomplete_partition_of_disjoint_commuting_classes():
    # an incomplete partition need not cover every label
    partition = import_exact(_partition_document([["(01)", "(02)"], ["(10)"]], False))
    assert partition.classes == [[(0, 1), (0, 2)], [(1, 0)]] and not partition.complete


@pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12])
def test_import_reads_back_the_searched_classes_of_composite_d(d):
    part = commuting_class_search(d)
    text = export(part)
    rebuilt = import_exact(text)
    assert rebuilt.classes == part.classes and rebuilt.dims == (d,) and not rebuilt.complete
    assert export(rebuilt) == text


@pytest.mark.parametrize("part", [cartan_partition(3), cartan_partition_prime_power(2, 2)])
def test_import_recomputes_the_complete_flag_of_a_cartan_partition(part):
    # a Cartan partition is complete even where its document says otherwise
    text = export(part, "json")
    payload = json.loads(text)
    assert payload["complete"] is True
    rebuilt = import_exact(json.dumps({**payload, "complete": False}))
    assert rebuilt.complete is True and rebuilt.classes == part.classes
    assert export(rebuilt, "json") == text


def test_every_partition_and_hadamard_the_cli_prints_reads_back(capsys):
    commands = [["basis", "partition", "--d", str(d)] for d in range(2, 13)]
    commands += [["basis", "partition", "--tensor", t] for t in ("2,2", "2,3", "2,4", "3,2")]
    commands += [["mub", "hadamard", "--d", "2", "--a", str(a)] for a in range(2)]
    commands += [["mub", "hadamard", "--d", "6", "--a", str(a)] for a in range(6)]
    commands += [["weyl", "pair", "--d", str(d), "--format", "exact-json"] for d in (2, 3, 7)]
    codes = set()
    for argv in commands:
        codes.add(cli_mod.main(argv))
        text = capsys.readouterr().out
        obj = import_exact(text)
        # a weyl-pair document reads back as the (X, Z) tuple
        chunks = export_weyl_pair(*obj, "exact-json") if argv[0] == "weyl" else export(obj)
        assert "".join(chunks) == text, argv
    # complete partitions exit 0, the incomplete ones of composite d exit 1
    assert codes == {0, 1}


def two_qubit_spread() -> CartanPartition:
    return CartanPartition((2, 2), [list(cls) for cls in TWO_QUBIT_SPREAD])


# every partition the library builds: the closed form at each d it accepts,
# the search at each d it accepts, the tensor partitions and the spread
LIBRARY_PARTITIONS = {
    **{f"cartan_partition({d})": functools.partial(cartan_partition, d)
       for d in range(2, MUB_PRIME_CAP + 1)},
    **{f"commuting_class_search({d})": functools.partial(commuting_class_search, d)
       for d in range(2, SEARCH_CAP + 1)},
    **{f"cartan_partition_prime_power{pe}": functools.partial(cartan_partition_prime_power, *pe)
       for pe in ((2, 2), (2, 3), (3, 2), (2, 4))},
    "TWO_QUBIT_SPREAD": two_qubit_spread,
}


def assert_reads_back(partition: CartanPartition) -> None:
    text = export(partition)
    rebuilt = import_exact(text)
    assert rebuilt.dims == partition.dims
    assert rebuilt.classes == partition.classes
    assert rebuilt.complete == partition.complete
    assert json.loads(text)["complete"] is partition.complete
    assert export(rebuilt) == text


@pytest.mark.parametrize("build", LIBRARY_PARTITIONS.values(), ids=LIBRARY_PARTITIONS.keys())
def test_every_partition_the_library_builds_reads_back(build):
    assert_reads_back(build())


@functools.cache
def partial_bases() -> tuple[CartanPartition, ...]:
    return (
        *(cartan_partition(d) for d in (2, 3, 4, 5, 6)),
        cartan_partition_prime_power(2, 2),
        two_qubit_spread(),
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_partial_partition_built_with_no_flag_reads_back(data):
    # nonempty subsets of the classes of a valid partition, in any order:
    # complete exactly when every label is kept
    base = data.draw(st.sampled_from(partial_bases()), label="base")
    classes = []
    for cls in base.classes:
        kept = [label for label in cls if data.draw(st.booleans())]
        if kept:
            classes.append(kept)
    partition = CartanPartition(base.dims, data.draw(st.permutations(classes), label="order"))
    assert_reads_back(partition)


def test_json_dumps_deterministic():
    payload = {"schema": 1, "b": [1, 2], "a": "x"}
    assert json_dumps(payload) == json_dumps(payload)
    assert json_dumps(payload).endswith("\n")


def stdlib_dumps(payload, **kwargs) -> str:
    text = json.dumps(payload, indent=2, separators=(",", ": "), allow_nan=False, **kwargs)
    return text + "\n"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# plain numbers, numbers mixed with bools, and the edge values of the C encoder
number_rows = st.lists(
    st.one_of(
        st.integers(),
        st.integers(min_value=-(10**40), max_value=10**40),
        finite_floats,
        st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324]),
        st.booleans(),
    ),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    finite_floats,
    st.text(alphabet=st.sampled_from(list('ab, "\\\n\tü€😀')), max_size=8),
)
keys = st.one_of(
    st.text(alphabet=st.sampled_from(list('k, "ü')), max_size=4),
    st.integers(),
    finite_floats,
    st.booleans(),
    st.none(),
)
payloads = st.recursive(
    st.one_of(scalars, number_rows),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@given(payloads)
def test_json_dumps_matches_stdlib(payload):
    assert json_dumps(payload) == stdlib_dumps(payload)


@given(payloads, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
def test_json_dumps_non_finite_message_matches_stdlib(payload, bad):
    for poisoned in ([1, 2.5, bad], {"rows": [payload, [0, bad]]}, {bad: 1}, bad):
        with pytest.raises(ValueError) as ours:
            json_dumps(poisoned)
        with pytest.raises(ValueError) as theirs:
            stdlib_dumps(poisoned)
        assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("payload", [[np.int64(1)], {"a": object()}, {(1, 2): 0}])
def test_json_dumps_type_error_matches_stdlib(payload):
    with pytest.raises(TypeError) as ours:
        json_dumps(payload)
    with pytest.raises(TypeError) as theirs:
        stdlib_dumps(payload)
    assert str(ours.value) == str(theirs.value)


def test_json_dumps_matches_stdlib_on_mub_family_payload(monkeypatch, capsys):
    payloads = []
    monkeypatch.setattr(serialize_mod, "json_chunks", lambda payload: payloads.append(payload) or [])
    assert cli_mod.main(["mub", "family", "--p", "97"]) == 0
    (payload,) = payloads
    monkeypatch.undo()  # json_dumps renders through json_chunks
    # the exponent tables reach the renderer as int64 arrays
    ours, theirs = json_dumps(payload), stdlib_dumps(payload, default=np.ndarray.tolist)
    # digests, since a failing == on two 13.6 MB texts makes pytest diff them for minutes
    assert _sha256(ours) == _sha256(theirs), _first_difference(ours, theirs)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _first_difference(a: str, b: str) -> str:
    return f"the texts first differ at offset {len(os.path.commonprefix([a, b]))}"


table_shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
int64_arrays = arrays(
    np.int64, table_shapes, elements=st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3)
)
float64_arrays = arrays(
    np.float64,
    table_shapes,
    elements=finite_floats | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324]),
)


def finite(dtype: type) -> st.SearchStrategy:
    return from_dtype(np.dtype(dtype), allow_nan=False, allow_infinity=False)


numeric_arrays = st.one_of(
    int64_arrays,
    float64_arrays,
    *(
        arrays(dtype, table_shapes, elements=finite(dtype))
        for dtype in (np.uint8, np.float32, np.float16)
    ),
)


@given(numeric_arrays, st.text(alphabet=" ", max_size=8), st.integers(0, 3))
def test_numeric_array_renders_like_its_list(array, indent, depth):
    if array.ndim and array.size:
        expected = json.dumps(array.tolist(), indent=2).replace("\n", "\n" + indent)
        assert serialize_mod._json_array(array, indent, repr, "[]") == expected
    # the table's indent is read off the text around it, at any nesting
    payload = array
    for _ in range(depth):
        payload = {"table": payload}
    assert json_dumps(payload) == stdlib_dumps(payload, default=np.ndarray.tolist)


payloads_with_tables = st.recursive(
    st.one_of(scalars, number_rows, int64_arrays, float64_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


@given(payloads_with_tables)
def test_chunks_join_to_the_stdlib_text(payload):
    text = "".join(json_chunks(payload))
    assert text == json_dumps(payload)
    assert text == stdlib_dumps(payload, default=np.ndarray.tolist)


@pytest.mark.parametrize("bad", [float("nan"), object()])
def test_an_error_after_a_table_raises_before_any_chunk(bad):
    payload = {"tau_exponents": np.arange(6).reshape(2, 3), "rows": [[1, 2], [bad]]}
    with pytest.raises((ValueError, TypeError)):
        json_chunks(payload)


class _CountingStdout:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)

    def flush(self):
        pass


def test_mub_family_renders_in_less_memory_than_its_text(monkeypatch):
    def traced_export(*args):
        tracemalloc.start()
        return serialize_mod.export_mub_family(*args)

    # tracing starts after the family and its deviations, and before the tables
    monkeypatch.setattr(cli_mod, "export_mub_family", traced_export)
    out = _CountingStdout()
    try:
        with contextlib.redirect_stdout(out):
            assert cli_mod.main(["mub", "family", "--p", "97"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.size


@pytest.mark.parametrize(
    "array", [np.ones(3, dtype=bool), np.array(True), np.zeros((2, 2), dtype=complex)]
)
def test_bool_and_complex_arrays_raise_the_stdlib_type_error(array):
    payload = {"table": np.arange(4), "rows": [array]}
    with pytest.raises(TypeError) as ours:
        json_chunks(payload)
    with pytest.raises(TypeError) as theirs:
        stdlib_dumps(payload)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_arrays_raise_the_stdlib_value_error_before_any_chunk(bad):
    table = np.zeros((3, 2))
    table[1, 1] = bad
    payload = {"before": np.ones((2, 2)), "table": table}
    with pytest.raises(ValueError) as ours:
        json_chunks(payload)
    with pytest.raises(ValueError) as theirs:
        stdlib_dumps(payload, default=np.ndarray.tolist)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("text", ["\0", 'a"\0'])
def test_a_payload_string_like_the_placeholder_raises_before_any_chunk(text):
    with pytest.raises(ValueError, match="placeholder"):
        json_chunks({"table": np.arange(6).reshape(2, 3), "label": text})


# the values of one field of a record list, by the field's dtype
record_fields = {
    "i8": st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3),
    "f8": finite_floats | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324]),
    "f4": finite(np.float32),
    "U8": st.text(max_size=8) | st.sampled_from(["(1,15)", "(15,15)", "(01)", 'a"\\b']),
}


@st.composite
def record_lists(draw) -> np.ndarray:
    names = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
    dtype = [(name, draw(st.sampled_from(list(record_fields)))) for name in names]
    records = np.empty(draw(st.integers(0, 6)), dtype=dtype)
    for name, kind in dtype:
        field = st.lists(record_fields[kind], min_size=len(records), max_size=len(records))
        records[name] = draw(field)
    return records


def as_dicts(records: np.ndarray) -> list[dict]:
    return [dict(zip(records.dtype.names, row)) for row in records.tolist()]


@given(record_lists(), st.integers(0, 2))
@example(np.empty(0, dtype=[("left", "U8"), ("re", "f8")]), 1)
@example(np.rec.fromarrays([["(1,15)"], [-2], [-0.0], [5e-324]], names="left,tau,re,im"), 0)
def test_record_list_renders_like_its_dicts(records, depth):
    payload, expected = records, as_dicts(records)
    for _ in range(depth):
        payload, expected = {"entries": payload}, {"entries": expected}
    assert "".join(json_chunks(payload)) == stdlib_dumps(expected)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_record_field_raises_the_stdlib_value_error_before_any_chunk(bad):
    records = np.rec.fromarrays([["(01)", "(10)"], [0.5, bad]], names="label,re")
    with pytest.raises(ValueError) as ours:
        json_chunks({"table": np.ones((2, 2)), "entries": records})
    with pytest.raises(ValueError) as theirs:
        stdlib_dumps({"table": [[1.0, 1.0], [1.0, 1.0]], "entries": as_dicts(records)})
    assert str(ours.value) == str(theirs.value)


signed_zero_parts = st.sampled_from([complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)])
complex_matrices = st.sampled_from([np.complex128, np.complex64]).flatmap(
    lambda dtype: arrays(
        dtype,
        array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
        elements=finite(dtype) | signed_zero_parts,
    )
)


@given(complex_matrices)
def test_csv_writes_each_entry_as_its_re_im_pair(mat):
    rows = (map(complex, row) for row in np.atleast_2d(mat))
    lines = (",".join(f"{z.real + 0.0:.17g},{z.imag + 0.0:.17g}" for z in row) for row in rows)
    assert matrix_to_csv(mat) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_csv_rejects_non_finite(bad):
    mat = np.eye(2, dtype=complex)
    mat[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        matrix_to_csv(mat)
