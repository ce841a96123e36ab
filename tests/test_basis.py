import functools
import math
import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commutator, max_abs, mixed_dims, patch_kernel_mutant
import finiteweyl.basis as basis_mod
from finiteweyl.basis import (
    TWO_QUBIT_SPREAD,
    CartanPartition,
    cartan_partition,
    cartan_partition_prime_power,
    commutator_table,
    commuting_class_search,
    hs_orthogonality,
    label_moduli,
    partition_dense_commutation_defect,
    pauli_commutator,
    pauli_indices,
    pauli_rows,
    pauli_stack,
    su4_spread_check,
    tensor_commutation_table,
    tensor_indices,
    tensor_indices_commute,
    trace_orthogonal,
    u_ab,
    validate_cartan_partition,
)
from finiteweyl.limits import MUB_PRIME_CAP, SEARCH_CAP, is_prime
from finiteweyl.mub import OrthonormalBasis, pairwise_deviations
from finiteweyl.operators import MonomialOperator, monomial_trace_array, trace_gram
from finiteweyl.phases import tau_powers
from finiteweyl.suites import suite_basis
from finiteweyl.search import find_commuting_partition
from oracles import (
    commutator_coefficient_exponents,
    commutator_table_closed_form,
    indices_commute,
    tensor_factors,
    tensor_labels_commute,
)


def kron_matrix(factors: tuple[MonomialOperator, ...]) -> np.ndarray:
    """The dense reference of a tensor monomial: np.kron of its factor matrices."""
    return functools.reduce(np.kron, [f.to_matrix() for f in factors])


def label_matrix(dims: tuple[int, ...], label: tuple) -> np.ndarray:
    return kron_matrix(tensor_factors(dims, label))


# ---------------------------------------------------------------------------
# Operator basis and structure constants
# ---------------------------------------------------------------------------


def test_uab_validation():
    with pytest.raises(ValueError):
        u_ab(3, 3, 0)


def test_qubit_commutator_values():
    coeff, target = pauli_commutator(2, (1, 0), (0, 1), "-")
    assert coeff == 2 + 0j and target == (1, 1)
    anticoeff, _ = pauli_commutator(2, (1, 0), (0, 1), "+")
    assert anticoeff == 0j
    with pytest.raises(ValueError):
        pauli_commutator(2, (1, 0), (0, 1), "*")


def test_structure_constant_example_d3():
    coeff, target = pauli_commutator(3, (1, 0), (0, 1), "-")
    assert target == (1, 1)
    assert abs(coeff - (1 - np.exp(-2j * np.pi / 3))) < 1e-15


def test_structure_constants_close_dense_commutators():
    for d in range(2, 9):
        mats = {ab: u_ab(d, *ab).to_matrix() for ab in pauli_indices(d, True)}
        for ab, ab2 in product(pauli_indices(d, True), repeat=2):
            coeff, target = pauli_commutator(d, ab, ab2, "-")
            lhs = commutator(mats[ab], mats[ab2])
            assert max_abs(lhs - coeff * mats[target]) < 1e-12
            vanish = indices_commute(d, ab, ab2)
            first, second = commutator_coefficient_exponents(d, ab, ab2)
            assert (first == second) == vanish


def test_anticommutators_close_dense():
    for d in (2, 3, 4):
        mats = {ab: u_ab(d, *ab).to_matrix() for ab in pauli_indices(d, True)}
        for ab, ab2 in product(pauli_indices(d, True), repeat=2):
            coeff, target = pauli_commutator(d, ab, ab2, "+")
            lhs = mats[ab] @ mats[ab2] + mats[ab2] @ mats[ab]
            assert max_abs(lhs - coeff * mats[target]) < 1e-12


def test_odd_dimension_anticommutators_nonzero():
    for d in (3, 5, 7):
        for ab, ab2 in product(pauli_indices(d), repeat=2):
            coeff, _ = pauli_commutator(d, ab, ab2, "+")
            assert abs(coeff) > 1e-12


def test_structure_table():
    d = 3
    table = commutator_table(d)
    labels = pauli_indices(d, include_identity=True)
    assert labels[table.target[labels.index((1, 0)), labels.index((0, 1))]] == (1, 1)
    # antisymmetry across the table
    assert np.array_equal(table.first, table.second.T)
    assert np.array_equal(table.target, table.target.T)
    # so the coefficients are antisymmetric bit for bit
    minus = table.coefficients()
    assert np.array_equal(minus, -minus.T)
    # commuting pairs, such as ((1, 1), (2, 2)), are exactly those with equal exponents
    for (i, ab), (j, ab2) in product(enumerate(labels), repeat=2):
        assert (table.first[i, j] == table.second[i, j]) == indices_commute(d, ab, ab2)
    with pytest.raises(ValueError):
        commutator_table(17)


def test_commutator_table_is_the_closed_form():
    # the table is read off two products of the kernel; the oracle states the law itself
    for d in range(2, 17):
        table = commutator_table(d)
        arrays = (table.first, table.second, table.target)
        for got, expected in zip(arrays, commutator_table_closed_form(d)):
            assert got.dtype == np.int64 and np.array_equal(got, expected), d


def test_a_flipped_reordering_sign_fails_the_closed_form_table(monkeypatch):
    patch_kernel_mutant(monkeypatch, "flipped_reordering_sign")
    with pytest.raises(AssertionError):
        test_commutator_table_is_the_closed_form()


def test_hs_orthogonality():
    for d in range(2, 17):
        assert hs_orthogonality(d) is True


def full_label_set(dims: tuple[int, ...]) -> list[tuple]:
    """The identity, then every other label of dims."""
    return [(0,) * (2 * len(dims)), *tensor_indices(dims)]


def test_trace_orthogonal_over_mixed_dims():
    for dims in ((2, 3), (3, 2), (2, 2, 3), (4, 3), (3, 5), (2, 9)):
        labels = full_label_set(dims)
        assert trace_orthogonal(dims, labels) is True, dims
        assert trace_orthogonal(dims, [*labels, labels[5]]) is False
        # the last label replaced by label 5 in disguise: one digit raised by its d_k
        for position, modulus in enumerate(label_moduli(dims)):
            disguised = list(labels[5])
            disguised[position] += modulus
            assert trace_orthogonal(dims, [*labels[:-1], tuple(disguised)]) is False


@pytest.mark.parametrize("mutant", ["first_factor_modulus", "flipped_reordering_sign"])
def test_a_kernel_mutant_fails_the_mixed_trace_orthogonality(monkeypatch, mutant):
    patch_kernel_mutant(monkeypatch, mutant)
    with pytest.raises(AssertionError):
        test_trace_orthogonal_over_mixed_dims()


def test_mixed_trace_gram_matches_the_dense_gram():
    # exponents in Z_2L, L = lcm(dims), read as powers of tau_L
    for dims in mixed_dims(18):
        labels = full_label_set(dims)
        exponents, scalar = trace_gram(pauli_rows(dims, labels), dims)
        exact = np.where(scalar, math.prod(dims) * tau_powers(exponents, math.lcm(*dims)), 0)
        stack = pauli_stack(dims, labels).reshape(len(labels), -1)
        assert max_abs(exact - stack.conj() @ stack.T) <= 1e-14, dims


def assert_table_matches_scalar_forms(d, pairs):
    table = commutator_table(d)
    labels = pauli_indices(d, include_identity=True)
    # the anticommutator coefficients are formed here from the same exponents
    minus = table.coefficients()
    plus = tau_powers(table.first, d) + tau_powers(table.second, d)
    for i, j in pairs:
        first, second = commutator_coefficient_exponents(d, labels[i], labels[j])
        assert (table.first[i, j], table.second[i, j]) == (first.t, second.t)
        for sign, coefficients in (("-", minus), ("+", plus)):
            coeff, target = pauli_commutator(d, labels[i], labels[j], sign)
            assert labels[table.target[i, j]] == target
            # bit for bit, signed zeros included
            assert np.array_equal(
                np.array([coefficients[i, j]]).view(float), np.array([coeff]).view(float)
            )
        assert minus[i, j] == table.coefficients(i)[j]


def test_commutator_table_matches_scalar_forms_exhaustively():
    for d in range(2, 7):
        table = commutator_table(d)
        for array in (table.first, table.second, table.target):
            assert array.dtype == np.int64 and array.shape == (d * d, d * d)
        assert_table_matches_scalar_forms(d, product(range(d * d), repeat=2))


@st.composite
def label_index_pairs(draw):
    """d in 2..16 and a few (i, j) index pairs into its commutator table."""
    d = draw(st.integers(2, 16))
    index = st.integers(0, d * d - 1)
    return d, draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))


@given(label_index_pairs())
def test_commutator_table_matches_scalar_forms_on_samples(case):
    d, pairs = case
    assert_table_matches_scalar_forms(d, pairs)


def test_the_basis_suite_catches_a_wrong_table_entry(monkeypatch):
    build = basis_mod.commutator_table

    def corrupted(d):
        table = build(d)
        # the pair ((d-1, 0), (1, 0)): u_(d-1,0) u_10 = I reads as tau I
        table.first[(d - 1) * d, d] += 1
        return table

    monkeypatch.setattr(basis_mod, "commutator_table", corrupted)
    failing = {c.name for c in suite_basis(3).checks if not c.passed}
    assert {
        "structure_constants_close_dense_commutators",
        "structure_constants_antisymmetric_and_vanishing",
    } <= failing


@pytest.mark.parametrize("corrupt", ["exponent", "mask"])
def test_hs_orthogonality_catches_a_wrong_trace_entry(monkeypatch, corrupt):
    gram = basis_mod.trace_gram

    def corrupted(rows, d):
        exponents, scalar = gram(rows, d)
        if corrupt == "exponent":
            exponents[3, 3] += 1  # Tr(u^dagger u) = d tau, not d
        else:
            scalar[3, 4] = True  # Tr(u^dagger v) = d tau^t, not 0
        return exponents, scalar

    monkeypatch.setattr(basis_mod, "trace_gram", corrupted)
    assert hs_orthogonality(3) is False


def test_gram_full_rank():
    for d in (2, 3, 4):
        ops = [u_ab(d, a, b).to_matrix().reshape(-1) for a, b in pauli_indices(d, True)]
        assert np.linalg.matrix_rank(np.array(ops)) == d * d


# ---------------------------------------------------------------------------
# Partition search
# ---------------------------------------------------------------------------


def test_prime_partitions_match_slope_listing():
    part3 = cartan_partition(3)
    assert part3.classes == [
        [(0, 1), (0, 2)],
        [(1, 0), (2, 0)],
        [(1, 1), (2, 2)],
        [(1, 2), (2, 1)],
    ]
    part2 = cartan_partition(2)
    assert part2.classes == [[(0, 1)], [(1, 0)], [(1, 1)]]
    # at d = 4 the slopes stop at the smallest prime factor 2
    part4 = cartan_partition(4)
    assert part4.classes == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 0), (2, 0), (3, 0)],
        [(1, 1), (2, 2), (3, 3)],
    ]
    assert not part4.complete


def test_prime_partition_cap_is_the_mub_cap():
    assert cartan_partition(MUB_PRIME_CAP).class_count == MUB_PRIME_CAP + 1
    with pytest.raises(ValueError, match=f"d=101 exceeds the cap {MUB_PRIME_CAP}"):
        cartan_partition(101)


@pytest.mark.parametrize("d", range(2, MUB_PRIME_CAP + 1))
def test_closed_form_partition_has_the_slopes_below_the_smallest_prime(d):
    partition = cartan_partition(d)
    q = min(f for f in range(2, d + 1) if d % f == 0)
    assert validate_cartan_partition(partition)
    assert partition.class_count == q + 1
    assert all(len(cls) == d - 1 for cls in partition.classes)
    assert partition.complete == is_prime(d)
    if d <= 16:
        assert partition_dense_commutation_defect(partition) < 1e-12


def test_a_label_with_a_unit_coordinate_commutes_only_with_its_multiples():
    # a class that holds such a label is forced: it is the label's multiples
    for d in range(2, 31):
        labels = tensor_indices((d,))
        zeros = (tensor_commutation_table((d,), labels) == 0).sum(axis=1)
        unit = np.array([math.gcd(a, b, d) == 1 for a, b in labels])
        assert (zeros[unit] == d - 1).all()


def test_single_qudit_labels_are_one_factor_tensor_labels():
    # validate_cartan_partition checks a single qudit as the tensor dims (d,)
    for d in range(2, 14):
        labels = pauli_indices(d)
        assert tensor_indices((d,)) == labels
        for u, v in product(labels, repeat=2):
            assert tensor_indices_commute((d,), u, v) == indices_commute(d, u, v)


def test_prime_partitions_validate():
    from finiteweyl.operators import monomial_mul

    for p in (2, 3, 5, 7, 11, 13):
        part = cartan_partition(p)
        assert part.class_count == p + 1
        assert all(len(cls) == p - 1 for cls in part.classes)
        assert validate_cartan_partition(part)
        # exact route: intra-class products agree as monomials
        for cls in part.classes:
            for i, ab in enumerate(cls):
                for ab2 in cls[i + 1 :]:
                    u, v = u_ab(p, *ab), u_ab(p, *ab2)
                    assert monomial_mul(u, v) == monomial_mul(v, u)
    assert partition_dense_commutation_defect(cartan_partition(7)) < 1e-12


def test_search_rediscovers_prime_partition():
    # `basis partition` prints the closed form; the search rechecks it at every searchable prime
    for p in filter(is_prime, range(2, SEARCH_CAP + 1)):
        found = commuting_class_search(p)
        assert found.complete
        assert found.classes == cartan_partition(p).classes


def test_search_d4_certifies_incompleteness():
    result = commuting_class_search(4)
    assert not result.complete
    assert result.classes == [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 0), (2, 0), (3, 0)],
        [(1, 1), (2, 2), (3, 3)],
    ]


def test_search_composite_dimensions():
    for d in (6, 8, 9):
        result = commuting_class_search(d)
        assert not result.complete
        flat = [v for cls in result.classes for v in cls]
        assert len(flat) == len(set(flat))
    with pytest.raises(ValueError):
        commuting_class_search(13)


def test_adjacency_tests_each_pair_once():
    calls = []

    def commutes(u, v):
        calls.append(frozenset((u, v)))
        return (u + v) % 2 == 0

    vertices = list(range(8))
    part = find_commuting_partition(vertices, commutes, 4)
    assert part == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert len(calls) == len(set(calls)) == 8 * 7 // 2


@pytest.mark.parametrize(
    "n, commutes, size, tests",
    [
        # no edges: no pivot has a clique
        (6, lambda u, v: False, 2, 15),
        # 7 vertices do not split into pairs, which is known before any test
        (7, lambda u, v: u // 2 == v // 2, 2, 0),
        # a triangle and a lone vertex: every branch fails
        (4, lambda u, v: max(u, v) < 3, 2, 6),
    ],
)
def test_failed_search_tests_each_pair_once(n, commutes, size, tests):
    calls = []

    def counted(u, v):
        calls.append(frozenset((u, v)))
        return commutes(u, v)

    assert find_commuting_partition(list(range(n)), counted, size) is None
    assert len(calls) == len(set(calls)) == tests


def test_generic_search_engine():
    vertices = list(range(6))
    part = find_commuting_partition(vertices, lambda u, v: u // 2 == v // 2, 2)
    assert part == [[0, 1], [2, 3], [4, 5]]
    assert per_pair_partition_valid(part, vertices, lambda u, v: u // 2 == v // 2, 2)
    assert not per_pair_partition_valid(part, vertices, lambda u, v: u + v < 5, 2)
    assert not per_pair_partition_valid([[0, 1], [2, 3]], vertices, lambda u, v: True, 2)
    assert not per_pair_partition_valid([[0, 1, 2], [3, 4, 5]], vertices, lambda u, v: True, 2)
    assert find_commuting_partition(vertices, lambda u, v: False, 2) is None
    # a vertex with no neighbour leaves no partition, though the other pairs commute
    assert find_commuting_partition(vertices, lambda u, v: u // 2 == v // 2 and u < 4, 2) is None


def set_search_partition(vertices, commutes, class_size):
    """The set-based search that the bitset search replaced, kept as an oracle.

    Returns the partition, or None if there is none.
    """
    ordered = sorted(vertices)
    adjacency = {v: set() for v in ordered}
    for i, u in enumerate(ordered):
        for v in ordered[i + 1 :]:
            if commutes(u, v):
                adjacency[u].add(v)
                adjacency[v].add(u)

    def cliques_through(pivot, allowed):
        def extend(current, candidates):
            if len(current) == class_size:
                yield frozenset(current)
                return
            for i, v in enumerate(candidates):
                remaining = candidates[i + 1 :]
                if len(remaining) + 1 < class_size - len(current):
                    break
                yield from extend(current + [v], [u for u in remaining if u in adjacency[v]])

        yield from extend([pivot], sorted(allowed & adjacency[pivot]))

    def cover(uncovered):
        if not uncovered:
            return []
        pivot = min(uncovered)
        for clique in cliques_through(pivot, uncovered - {pivot}):
            tail = cover(uncovered - clique)
            if tail is not None:
                return [clique] + tail
        return None

    solution = cover(frozenset(ordered)) if len(ordered) % class_size == 0 else None
    return None if solution is None else [sorted(clique) for clique in solution]


@st.composite
def commutation_graphs(draw):
    """Shuffled vertex labels, a random symmetric edge set and a class size."""
    n = draw(st.integers(0, 16))
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    edges = {
        frozenset(pair)
        for pair, weight in zip(
            ((i, j) for i in range(n) for j in range(i + 1, n)),
            draw(st.lists(st.floats(0, 1), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)),
        )
        if weight < density
    }
    vertices = draw(st.permutations(range(n)))
    return vertices, edges, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(commutation_graphs())
def test_bitset_search_matches_set_search(graph):
    vertices, edges, size = graph

    def commutes(u, v):
        return frozenset((u, v)) in edges

    expected = set_search_partition(vertices, commutes, size)
    assert find_commuting_partition(vertices, commutes, size) == expected


# ---------------------------------------------------------------------------
# Tensor operators
# ---------------------------------------------------------------------------


def test_pauli_rows_and_stack_match_kron():
    x = u_ab(2, 1, 0).to_matrix()
    z = u_ab(2, 0, 1).to_matrix()
    assert pauli_rows((2, 2), [(1, 0, 0, 1)]).tolist() == [[[0, 1, 0], [0, 0, 1]]]
    got = pauli_stack((2, 2), [(1, 0, 0, 1)])[0]
    assert max_abs(got - np.kron(x, z)) == 0.0


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (5,)])
def test_pauli_rows_are_the_rows_of_the_label_factors(dims):
    labels = [(0,) * (2 * len(dims)), *tensor_indices(dims)]
    expected = [[[f.phase.t, f.shift, f.clock] for f in tensor_factors(dims, i)] for i in labels]
    assert pauli_rows(dims, labels).tolist() == expected
    # digits at or past d_k, and negative ones, read mod d_k
    p = dims[0]
    shifted = [
        tuple(x + p * ((i + k) % 3 - 1) for k, x in enumerate(idx)) for i, idx in enumerate(labels)
    ]
    assert np.array_equal(pauli_rows(dims, shifted), pauli_rows(dims, labels))
    assert min(min(idx) for idx in shifted) < 0 and max(max(idx) for idx in shifted) >= p


@pytest.mark.parametrize("reader", [pauli_rows, pauli_stack, tensor_commutation_table])
@pytest.mark.parametrize(
    "dims, labels, length",
    [
        ((2, 2), [(1, 0, 0)], 3),
        ((2, 2), [(1, 0, 0, 1, 1)], 5),
        ((2, 2), [(1, 0)], 2),
        ((2,), [(1, 0, 1, 1)], 4),
        ((2, 2), [()], 0),
        # eight digits that would fill two labels of four, as four labels of two
        ((2, 2), [(0, 1), (1, 0), (1, 1), (0, 1)], 2),
        # a ragged list, a short label after a good one, named by the reader
        ((2, 2), [(1, 0, 0, 1), (1, 0)], 2),
    ],
)
def test_label_readers_reject_a_label_of_the_wrong_length(reader, dims, labels, length):
    bad = re.escape(str(next(label for label in labels if len(label) == length)))
    message = rf"^label length {length} does not match dims {re.escape(str(dims))}: {bad}$"
    with pytest.raises(ValueError, match=message):
        reader(dims, labels)


def test_tensor_indices_commute_rejects_a_label_of_the_wrong_length():
    # two extra digits are refused, not dropped
    with pytest.raises(ValueError, match=r"^label length 6 does not match dims \(2, 2\)"):
        tensor_indices_commute((2, 2), (1, 0, 0, 1), (1, 0, 0, 1, 1, 1))
    with pytest.raises(ValueError, match=r"^label length 2 does not match dims \(2, 2\)"):
        tensor_indices_commute((2, 2), (1, 0), (0, 1, 0, 1))


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3)])
def test_label_readers_take_no_labels(dims):
    assert pauli_rows(dims, []).shape == (0, len(dims), 3)
    assert tensor_commutation_table(dims, []).shape == (0, 0)
    size = math.prod(dims)
    stack = pauli_stack(dims, [])
    assert stack.shape == (0, size, size) and stack.dtype == complex


def test_tensor_commutation_rule():
    dims = (2, 2)
    assert tensor_indices_commute(dims, (1, 0, 1, 0), (0, 1, 0, 1))
    xx = label_matrix(dims, (1, 0, 1, 0))
    zz = label_matrix(dims, (0, 1, 0, 1))
    assert max_abs(commutator(xx, zz)) == 0.0
    # single-factor mismatch does not commute
    assert not tensor_indices_commute(dims, (1, 0, 0, 0), (0, 1, 0, 0))


@given(
    st.lists(st.sampled_from([2, 3, 4, 5, 6, 12]), min_size=1, max_size=4).flatmap(
        lambda dims: st.tuples(
            st.just(tuple(dims)),
            *[st.tuples(*[st.integers(0, p - 1)] * 4) for p in dims],
        )
    )
)
def test_tensor_commutation_matches_fraction_sum(case):
    dims, *coords = case
    idx1 = tuple(x for a, b, _, _ in coords for x in (a, b))
    idx2 = tuple(x for _, _, a, b in coords for x in (a, b))
    assert tensor_indices_commute(dims, idx1, idx2) == tensor_labels_commute(dims, idx1, idx2)


def test_tensor_commutation_matches_dense():
    rng = random.Random(61)
    for dims in ((2, 2), (2, 3), (3, 3)):
        labels = tensor_indices(dims)
        for _ in range(150):
            u_idx, v_idx = rng.choice(labels), rng.choice(labels)
            u = label_matrix(dims, u_idx)
            v = label_matrix(dims, v_idx)
            dense_commutes = max_abs(commutator(u, v)) < 1e-12
            assert dense_commutes == tensor_indices_commute(dims, u_idx, v_idx)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (3, 3), (2, 3), (3, 5)])
def test_commutation_table_matches_dense_commutators(dims):
    labels = tensor_indices(dims)
    form = tensor_commutation_table(dims, labels)
    assert form.shape == (len(labels), len(labels))
    assert ((form >= 0) & (form < math.lcm(*dims))).all()
    mats = np.array([label_matrix(dims, u) for u in labels])
    for i, mat in enumerate(mats):
        dense_commutes = np.abs(mat @ mats - mats @ mat).max(axis=(1, 2)) < 1e-12
        assert np.array_equal(form[i] == 0, dense_commutes)


def test_single_qudit_commutation_table_is_the_form():
    for d in range(2, 13):
        labels = pauli_indices(d, include_identity=True)
        form = tensor_commutation_table((d,), labels)
        for i, (a, b) in enumerate(labels):
            for j, (a2, b2) in enumerate(labels):
                assert form[i, j] == (a * b2 - b * a2) % d
                assert (form[i, j] == 0) == indices_commute(d, (a, b), (a2, b2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 2, 2), (5,), (2, 2, 2, 2)])
def test_dense_stack_is_bit_equal_to_kron(dims):
    labels = tensor_indices(dims)
    stack = pauli_stack(dims, labels)
    expected = np.stack([label_matrix(dims, idx) for idx in labels])
    assert stack.dtype == expected.dtype and stack.shape == expected.shape
    assert np.array_equal(stack.view(np.uint64), expected.view(np.uint64))


def test_dense_stack_reduces_digits_mod_d():
    # as pauli_rows does: 2 reads as 0 and -1 as 1 mod 2
    assert np.array_equal(pauli_stack((2,), [(2, 1)]), pauli_stack((2,), [(0, 1)]))
    assert np.array_equal(pauli_stack((2,), [(-1, 1)]), pauli_stack((2,), [(1, 1)]))


def test_dense_recheck_catches_a_non_commuting_pair():
    good = cartan_partition_prime_power(2, 3)
    assert partition_dense_commutation_defect(good) <= 1e-12
    # swap one label between two classes: each class now holds a non-commuting pair
    classes = [list(cls) for cls in good.classes]
    classes[0][-1], classes[1][-1] = classes[1][-1], classes[0][-1]
    bad = basis_mod.CartanPartition(good.dims, classes)
    assert not validate_cartan_partition(bad)
    assert partition_dense_commutation_defect(bad) > 1e-12
    prime = cartan_partition(5)
    prime.classes[2][0], prime.classes[3][0] = prime.classes[3][0], prime.classes[2][0]
    assert partition_dense_commutation_defect(prime) > 1e-12


def test_validator_accepts_an_empty_extra_class():
    # an empty class reads an empty commutation table, so it adds no pair
    for good in (cartan_partition(3), cartan_partition_prime_power(2, 2)):
        padded = CartanPartition(good.dims, [*good.classes, []], complete=False)
        assert validate_cartan_partition(padded)
        # a complete partition has exactly d + 1 classes
        padded.complete = True
        assert not validate_cartan_partition(padded)


@pytest.mark.parametrize("d", [4, 6, 8, 9, 10, 12])
def test_validator_accepts_the_searched_classes_of_composite_d(d):
    partition = commuting_class_search(d)
    assert not partition.complete and validate_cartan_partition(partition)
    # the failed search falls back on the closed form
    assert partition.classes == cartan_partition(d).classes


def test_validator_reads_a_partial_partition():
    # the three cyclic lines of Z_4^2 through (0, 1), (1, 0) and (1, 1)
    lines = [[(0, 1), (0, 2), (0, 3)], [(1, 0), (2, 0), (3, 0)], [(1, 1), (2, 2), (3, 3)]]
    assert validate_cartan_partition(CartanPartition((4,), lines, complete=False))
    for classes in (
        [[(0, 1), (0, 2)], [(0, 2)]],  # a repeated label
        [[(0, 1), (1, 0)]],  # a class that does not commute
        [[(0, 1), (0, 4)]],  # a label that does not fit dims
        [[(0, 0), (0, 1)]],  # the identity
    ):
        assert not validate_cartan_partition(CartanPartition((4,), classes, complete=False))


def test_partition_holds_its_dims():
    assert cartan_partition(5).dims == (5,)
    assert commuting_class_search(6).dims == (6,)
    partition = cartan_partition_prime_power(2, 3)
    assert (partition.dims, partition.dimension) == ((2, 2, 2), 8)


def test_dense_recheck_reads_zero_for_classes_without_pairs():
    assert partition_dense_commutation_defect(CartanPartition((3,), [[(0, 1)], []], False)) == 0.0
    assert partition_dense_commutation_defect(CartanPartition((3,), [], False)) == 0.0
    # a short class is skipped, a non-commuting pair elsewhere still shows
    mixed = CartanPartition((3,), [[], [(0, 1), (1, 0)]], False)
    assert partition_dense_commutation_defect(mixed) > 1e-12


def test_tensor_trace_gram():
    for dims in ((2, 2), (3, 3), (2, 2, 2), (2, 2, 2, 2), (3, 3, 3)):
        labels = tensor_indices(dims)[:10] + [(0,) * (2 * len(dims))]
        rows = pauli_rows(dims, labels)
        assert rows.shape == (len(labels), len(dims), 3) and rows.dtype == np.int64
        exponents, scalar = trace_gram(rows, dims)
        assert np.array_equal(scalar, np.eye(len(labels), dtype=bool))
        assert not np.diagonal(exponents).any()


def test_tensor_trace_gram_matches_dense():
    rng = random.Random(67)
    for dims in ((2, 2), (3, 3)):
        labels = tensor_indices(dims)
        for _ in range(100):
            pair = [rng.choice(labels), rng.choice(labels)]
            exponents, scalar = trace_gram(pauli_rows(dims, pair), dims)
            u, v = (label_matrix(dims, idx) for idx in pair)
            entry = math.prod(dims) * tau_powers(exponents[0, 1], dims[0]) if scalar[0, 1] else 0j
            assert abs(entry - np.trace(u.conj().T @ v)) < 1e-10


@st.composite
def phased_tensor_monomials(draw):
    """1-3 factors tau^t X^b Z^c of one d, about half of them scalar: traces are often nonzero."""
    p = draw(st.sampled_from([2, 3, 4, 5, 6]))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        shift, clock = draw(
            st.one_of(st.just((0, 0)), st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)))
        )
        t = draw(st.integers(-4 * p, 4 * p))
        factors.append(MonomialOperator.from_tau_exponent(p, t, shift, clock))
    return tuple(factors)


def fraction_trace_phase(u: tuple[MonomialOperator, ...]) -> Fraction | None:
    """s with Tr u = prod(d_j) exp(i*pi*s), by rational arithmetic; None if Tr u = 0."""
    total = Fraction(0)
    for f in u:
        # a factor is scalar, tau^t I, exactly when it neither shifts nor clocks
        if f.shift or f.clock:
            return None
        total += Fraction(f.phase.t, f.d)
    return total % 2


@given(phased_tensor_monomials())
def test_phased_tensor_trace(u):
    p, size = u[0].d, math.prod(f.d for f in u)
    s = fraction_trace_phase(u)
    rows = np.array([(f.phase.t, f.shift, f.clock) for f in u])
    # unreduced factors read as their reduced monomials
    offsets = np.arange(-1, len(rows) - 1)[:, None] * (2 * p, p, p)
    for factors in (rows, rows + offsets):
        exponent, scalar = monomial_trace_array(factors, p)
        assert bool(scalar) == (s is not None)
        got = size * tau_powers(exponent, p) if scalar else 0j
        assert s is None or Fraction(int(exponent), p) == s
        assert abs(got - complex(np.trace(kron_matrix(u)))) <= 1e-12
        if s is not None and (2 * s).denominator == 1:
            assert got == size * (1, 1j, -1, -1j)[int(2 * s)]


def test_qutrit_pair_anticommutators_never_vanish():
    dims = (3, 3)
    rng = random.Random(71)
    labels = tensor_indices(dims)
    for _ in range(200):
        u_idx, v_idx = rng.choice(labels), rng.choice(labels)
        u = label_matrix(dims, u_idx)
        v = label_matrix(dims, v_idx)
        assert max_abs(u @ v + v @ u) > 1e-9


def test_tensor_partitions():
    p22 = cartan_partition_prime_power(2, 2)
    assert p22.class_count == 5
    assert all(len(cls) == 3 for cls in p22.classes)
    assert validate_cartan_partition(p22)

    p33 = cartan_partition_prime_power(3, 2)
    assert p33.class_count == 10
    assert all(len(cls) == 8 for cls in p33.classes)
    assert validate_cartan_partition(p33)

    p23 = cartan_partition_prime_power(2, 3)
    assert p23.class_count == 9
    assert all(len(cls) == 7 for cls in p23.classes)
    assert validate_cartan_partition(p23)

    with pytest.raises(ValueError):
        cartan_partition_prime_power(4, 2)
    with pytest.raises(ValueError):
        cartan_partition_prime_power(2, 1)
    with pytest.raises(ValueError):
        cartan_partition_prime_power(2, 5)


def test_printed_spread_is_a_valid_partition():
    spread = CartanPartition((2, 2), [list(cls) for cls in TWO_QUBIT_SPREAD])
    assert validate_cartan_partition(spread)
    assert per_pair_cartan_valid(spread)


def per_pair_partition_valid(classes, vertices, commutes, class_size=None) -> bool:
    """The per-pair validator that the commutation table replaced, kept as an oracle.

    Disjoint, drawn from vertices, and commutes(u, v) for every pair within
    a class; covering and sized as well when class_size is given.
    """
    flat = [v for cls in classes for v in cls]
    fits = set(flat) == set(vertices) if class_size else set(flat) <= set(vertices)
    if len(flat) != len(set(flat)) or not fits:
        return False
    return all(
        (class_size is None or len(cls) == class_size)
        and all(commutes(u, v) for i, u in enumerate(cls) for v in cls[i + 1 :])
        for cls in classes
    )


def per_pair_cartan_valid(partition: CartanPartition) -> bool:
    """`validate_cartan_partition` by the `Fraction` sum, one pair at a time."""
    dims, d = partition.dims, partition.dimension
    if partition.complete and len(partition.classes) != d + 1:
        return False
    return per_pair_partition_valid(
        partition.classes,
        tensor_indices(dims),
        lambda u, v: tensor_labels_commute(dims, u, v),
        d - 1 if partition.complete else None,
    )


@functools.cache
def valid_and_searched_partitions() -> tuple[CartanPartition, ...]:
    """The slope classes at p = 2, 3, 5, 7, the tensor partitions (2,2), (2,2,2)
    and (3,3), the two-qubit spread, and the searched classes at d = 4 and 6."""
    return (
        *(cartan_partition(p) for p in (2, 3, 5, 7)),
        *(cartan_partition_prime_power(p, e) for p, e in ((2, 2), (2, 3), (3, 2))),
        CartanPartition((2, 2), [list(cls) for cls in TWO_QUBIT_SPREAD]),
        commuting_class_search(4),
        commuting_class_search(6),
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_validator_matches_the_per_pair_oracle(data):
    bases = valid_and_searched_partitions()
    base = bases[data.draw(st.integers(0, len(bases) - 1), label="base")]
    classes = [list(cls) for cls in base.classes]
    index = st.integers(0, 10**6)
    for kind in data.draw(
        st.lists(st.sampled_from(["swap", "drop", "duplicate", "split", "reorder"]), max_size=3),
        label="mutations",
    ):
        full = [i for i, cls in enumerate(classes) if cls]
        if kind == "reorder":
            classes = data.draw(st.permutations(classes))
            continue
        if not full:
            continue
        i = full[data.draw(index) % len(full)]
        k = data.draw(index) % len(classes[i])
        if kind == "swap":
            j = full[data.draw(index) % len(full)]
            m = data.draw(index) % len(classes[j])
            classes[i][k], classes[j][m] = classes[j][m], classes[i][k]
        elif kind == "drop":
            del classes[i][k]
        elif kind == "split":
            classes.append(classes[i][k:])
            del classes[i][k:]
        else:
            classes[data.draw(index) % len(classes)].append(classes[i][k])
    partition = CartanPartition(base.dims, classes, data.draw(st.booleans(), label="complete"))
    assert validate_cartan_partition(partition) == per_pair_cartan_valid(partition)


def test_su4_spread_report():
    report = su4_spread_check()
    assert report.overall
    assert report.sets_commute
    assert report.union_size == 15
    assert report.covers_all_nonidentity
    assert report.orthogonal
    assert report.gram_defect == 0.0


def test_joint_eigenbases_of_classes_are_unbiased():
    for p in (2, 3, 5, 7):
        partition = cartan_partition(p)
        bases = [OrthonormalBasis(d=p, label="computational", vectors=np.eye(p, dtype=complex))]
        for cls in partition.classes[1:]:
            generator = u_ab(p, *cls[0]).to_matrix()
            _, vectors = np.linalg.eig(generator)
            bases.append(OrthonormalBasis(d=p, label=str(cls[0]), vectors=vectors))
        assert pairwise_deviations(bases).max() < 1e-9


def test_determinants_special_unitary_odd():
    for d in (3, 5, 7):
        for a, b in pauli_indices(d, True):
            assert u_ab(d, a, b).determinant().is_one
