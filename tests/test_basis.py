import functools
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commutator, max_abs
import finiteweyl.basis as basis_mod
from finiteweyl.basis import (
    TWO_QUBIT_SPREAD,
    CartanPartition,
    TensorMonomial,
    cartan_partition_prime,
    cartan_partition_prime_power,
    commutator_coefficient_exponents,
    commutator_table,
    commuting_class_search,
    hs_orthogonality,
    indices_commute,
    partition_dense_commutation_defect,
    pauli_commutator,
    pauli_indices,
    pauli_stack,
    su4_spread_check,
    tensor_commutation_table,
    tensor_indices,
    tensor_indices_commute,
    tensor_pauli,
    u_ab,
    validate_cartan_partition,
)
from finiteweyl.limits import MUB_PRIME_CAP, SEARCH_CAP, is_prime
from finiteweyl.mub import OrthonormalBasis, pairwise_deviations
from finiteweyl.operators import MonomialOperator, trace_gram
from finiteweyl.search import find_commuting_partition, greedy_commuting_classes


def kron_matrix(u: TensorMonomial) -> np.ndarray:
    """The dense reference of a tensor monomial: np.kron of its factor matrices."""
    return functools.reduce(np.kron, [f.to_matrix() for f in u.factors])


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
    minus = table.coefficients("-")
    assert np.abs(minus + minus.T).max() < 1e-15
    # commuting pairs, such as ((1, 1), (2, 2)), are exactly those with equal exponents
    for (i, ab), (j, ab2) in product(enumerate(labels), repeat=2):
        assert (table.first[i, j] == table.second[i, j]) == indices_commute(d, ab, ab2)
    with pytest.raises(ValueError):
        commutator_table(17)


def test_hs_orthogonality():
    for d in range(2, 9):
        assert hs_orthogonality(d) == 0.0


def assert_table_matches_scalar_forms(d, pairs):
    table = commutator_table(d)
    labels = pauli_indices(d, include_identity=True)
    minus, plus = table.coefficients("-"), table.coefficients("+")
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
            assert coefficients[i, j] == table.coefficients(sign, i)[j]


def test_commutator_table_matches_scalar_forms_exhaustively():
    for d in range(2, 7):
        table = commutator_table(d)
        for array in (table.first, table.second, table.target):
            assert array.dtype == np.int64 and array.shape == (d * d, d * d)
        assert_table_matches_scalar_forms(d, product(range(d * d), repeat=2))
    with pytest.raises(ValueError, match="sign"):
        commutator_table(2).coefficients("*")


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


def test_hs_orthogonality_catches_a_wrong_table_entry(monkeypatch):
    build = basis_mod.commutator_table

    def corrupted(d):
        table = build(d)
        # label (d-1, 0) is the negation of (1, 0); the pair ((d-1, 0), (1, 0))
        # is where hs_orthogonality reads Tr(u_10^dagger u_10)
        table.first[(d - 1) * d, d] += 1
        return table

    monkeypatch.setattr(basis_mod, "commutator_table", corrupted)
    assert hs_orthogonality(3) == 1.0


def test_gram_full_rank():
    for d in (2, 3, 4):
        ops = [u_ab(d, a, b).to_matrix().reshape(-1) for a, b in pauli_indices(d, True)]
        assert np.linalg.matrix_rank(np.array(ops)) == d * d


# ---------------------------------------------------------------------------
# Partition search
# ---------------------------------------------------------------------------


def test_prime_partitions_match_slope_listing():
    part3 = cartan_partition_prime(3)
    assert part3.classes == [
        [(0, 1), (0, 2)],
        [(1, 0), (2, 0)],
        [(1, 1), (2, 2)],
        [(1, 2), (2, 1)],
    ]
    part2 = cartan_partition_prime(2)
    assert part2.classes == [[(0, 1)], [(1, 0)], [(1, 1)]]
    with pytest.raises(ValueError):
        cartan_partition_prime(4)


def test_prime_partition_cap_is_the_mub_cap():
    assert cartan_partition_prime(MUB_PRIME_CAP).class_count == MUB_PRIME_CAP + 1
    with pytest.raises(ValueError, match=f"p=101 exceeds the cap {MUB_PRIME_CAP}"):
        cartan_partition_prime(101)


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
        part = cartan_partition_prime(p)
        assert part.class_count == p + 1
        assert all(len(cls) == p - 1 for cls in part.classes)
        assert validate_cartan_partition(part)
        # exact route: intra-class products agree as monomials
        for cls in part.classes:
            for i, ab in enumerate(cls):
                for ab2 in cls[i + 1 :]:
                    u, v = u_ab(p, *ab), u_ab(p, *ab2)
                    assert monomial_mul(u, v) == monomial_mul(v, u)
    assert partition_dense_commutation_defect(cartan_partition_prime(7)) < 1e-12


def test_search_rediscovers_prime_partition():
    # `basis partition` prints the closed form; the search rechecks it at every searchable prime
    for p in filter(is_prime, range(2, SEARCH_CAP + 1)):
        found = commuting_class_search(p)
        assert found.complete
        assert found.classes == cartan_partition_prime(p).classes


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


def test_generic_search_engine():
    vertices = list(range(6))
    part = find_commuting_partition(vertices, lambda u, v: u // 2 == v // 2, 2)
    assert part == [[0, 1], [2, 3], [4, 5]]
    assert per_pair_partition_valid(part, vertices, lambda u, v: u // 2 == v // 2, 2)
    assert not per_pair_partition_valid(part, vertices, lambda u, v: u + v < 5, 2)
    assert not per_pair_partition_valid([[0, 1], [2, 3]], vertices, lambda u, v: True, 2)
    assert not per_pair_partition_valid([[0, 1, 2], [3, 4, 5]], vertices, lambda u, v: True, 2)
    assert find_commuting_partition(vertices, lambda u, v: False, 2) is None
    greedy = greedy_commuting_classes(vertices, lambda u, v: u // 2 == v // 2, 2)
    assert greedy == [[0, 1], [2, 3], [4, 5]]


def set_search_partition(vertices, commutes, class_size):
    """The set-based search that the bitset search replaced, kept as an oracle.

    Returns the partition (or None) and the greedy classes.
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
    if solution is not None:
        solution = [sorted(clique) for clique in solution]
    covered, greedy = set(), []
    for pivot in ordered:
        if pivot not in covered:
            allowed = frozenset(v for v in ordered if v not in covered and v != pivot)
            clique = next(cliques_through(pivot, allowed), None)
            if clique is not None:
                greedy.append(sorted(clique))
                covered |= clique
    return solution, greedy


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

    solution, greedy = set_search_partition(vertices, commutes, size)
    assert find_commuting_partition(vertices, commutes, size) == solution
    assert greedy_commuting_classes(vertices, commutes, size) == greedy


# ---------------------------------------------------------------------------
# Tensor operators
# ---------------------------------------------------------------------------


def test_tensor_pauli_matches_kron():
    x = u_ab(2, 1, 0).to_matrix()
    z = u_ab(2, 0, 1).to_matrix()
    assert tensor_pauli((2, 2), (1, 0, 0, 1)).factors == (u_ab(2, 1, 0), u_ab(2, 0, 1))
    got = pauli_stack((2, 2), [(1, 0, 0, 1)])[0]
    assert max_abs(got - np.kron(x, z)) == 0.0
    with pytest.raises(ValueError):
        tensor_pauli((2, 2), (1, 0, 0))


def test_tensor_commutation_rule():
    dims = (2, 2)
    assert tensor_indices_commute(dims, (1, 0, 1, 0), (0, 1, 0, 1))
    xx = kron_matrix(tensor_pauli(dims, (1, 0, 1, 0)))
    zz = kron_matrix(tensor_pauli(dims, (0, 1, 0, 1)))
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
    total = sum(
        Fraction(a * b2 - b * a2, p) for p, (a, b, a2, b2) in zip(dims, coords)
    )
    assert tensor_indices_commute(dims, idx1, idx2) == (total.denominator == 1)


def test_tensor_commutation_matches_dense():
    rng = random.Random(61)
    for dims in ((2, 2), (2, 3), (3, 3)):
        labels = tensor_indices(dims)
        for _ in range(150):
            u_idx, v_idx = rng.choice(labels), rng.choice(labels)
            u = tensor_pauli(dims, u_idx)
            v = tensor_pauli(dims, v_idx)
            dense_commutes = max_abs(commutator(kron_matrix(u), kron_matrix(v))) < 1e-12
            assert dense_commutes == tensor_indices_commute(dims, u_idx, v_idx)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (3, 3), (2, 3), (3, 5)])
def test_commutation_table_matches_scalar_test(dims):
    labels = tensor_indices(dims)
    form = tensor_commutation_table(dims, labels)
    assert form.shape == (len(labels), len(labels))
    assert ((form >= 0) & (form < math.lcm(*dims))).all()
    for i, u in enumerate(labels):
        for j, v in enumerate(labels):
            assert (form[i, j] == 0) == tensor_indices_commute(dims, u, v)


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
    expected = np.stack([kron_matrix(tensor_pauli(dims, idx)) for idx in labels])
    assert stack.dtype == expected.dtype and stack.shape == expected.shape
    assert np.array_equal(stack.view(np.uint64), expected.view(np.uint64))


def test_dense_recheck_catches_a_non_commuting_pair():
    good = cartan_partition_prime_power(2, 3)
    assert partition_dense_commutation_defect(good) <= 1e-12
    # swap one label between two classes: each class now holds a non-commuting pair
    classes = [list(cls) for cls in good.classes]
    classes[0][-1], classes[1][-1] = classes[1][-1], classes[0][-1]
    bad = basis_mod.CartanPartition(
        dimension=good.dimension, classes=classes, tensor_dims=good.tensor_dims
    )
    assert not validate_cartan_partition(bad)
    assert partition_dense_commutation_defect(bad) > 1e-12
    prime = cartan_partition_prime(5)
    prime.classes[2][0], prime.classes[3][0] = prime.classes[3][0], prime.classes[2][0]
    assert partition_dense_commutation_defect(prime) > 1e-12


def test_dense_recheck_reads_zero_for_classes_without_pairs():
    assert partition_dense_commutation_defect(CartanPartition(3, [[(0, 1)], []], False)) == 0.0
    assert partition_dense_commutation_defect(CartanPartition(3, [], False)) == 0.0
    # a short class is skipped, a non-commuting pair elsewhere still shows
    mixed = CartanPartition(3, [[], [(0, 1), (1, 0)]], False)
    assert partition_dense_commutation_defect(mixed) > 1e-12


def test_tensor_trace_gram():
    for dims in ((2, 2), (2, 3), (3, 3)):
        labels = tensor_indices(dims)[:10]
        gram = trace_gram([tensor_pauli(dims, idx) for idx in labels])
        total = math.prod(dims)
        for (i, u_idx), (j, v_idx) in product(enumerate(labels), repeat=2):
            expected = complex(total) if u_idx == v_idx else 0j
            assert abs(gram[i, j] - expected) < 1e-12


def test_tensor_trace_equals_product_of_factor_traces():
    rng = random.Random(67)
    for dims in ((2, 2), (3, 3)):
        labels = tensor_indices(dims)
        for _ in range(100):
            u_idx, v_idx = rng.choice(labels), rng.choice(labels)
            u = tensor_pauli(dims, u_idx)
            v = tensor_pauli(dims, v_idx)
            dense = complex(np.trace(kron_matrix(u.adjoint()) @ kron_matrix(v)))
            assert abs(trace_gram([u, v])[0, 1] - dense) < 1e-10


@st.composite
def phased_tensor_monomials(draw):
    """1-3 factors tau^t X^b Z^c; about half of them scalar, so traces are often nonzero."""
    factors = []
    for p in draw(st.lists(st.sampled_from([2, 3, 4, 5, 6]), min_size=1, max_size=3)):
        shift, clock = draw(
            st.one_of(st.just((0, 0)), st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)))
        )
        t = draw(st.integers(-4 * p, 4 * p))
        factors.append(MonomialOperator.from_tau_exponent(p, t, shift, clock))
    return TensorMonomial(tuple(factors))


def fraction_trace_phase(u: TensorMonomial) -> Fraction | None:
    """s with Tr u = prod(d_j) exp(i*pi*s), by rational arithmetic; None if Tr u = 0."""
    total = Fraction(0)
    for f in u.factors:
        scalar = f.trace_exact()
        if scalar is None:
            return None
        total += Fraction(scalar.t, scalar.d)
    return total % 2


@given(phased_tensor_monomials())
def test_phased_tensor_trace(u):
    got = u.trace()
    size = math.prod(u.dims)
    s = fraction_trace_phase(u)
    reference = 0j if s is None else size * complex(math.cos(math.pi * s), math.sin(math.pi * s))
    assert abs(got - reference) <= 1e-12
    assert abs(got - complex(np.trace(kron_matrix(u)))) <= 1e-12
    if s is not None and (2 * s).denominator == 1:
        assert got == size * (1, 1j, -1, -1j)[int(2 * s)]


def test_qutrit_pair_anticommutators_never_vanish():
    dims = (3, 3)
    rng = random.Random(71)
    labels = tensor_indices(dims)
    for _ in range(200):
        u_idx, v_idx = rng.choice(labels), rng.choice(labels)
        u = kron_matrix(tensor_pauli(dims, u_idx))
        v = kron_matrix(tensor_pauli(dims, v_idx))
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
    spread = CartanPartition(4, [list(cls) for cls in TWO_QUBIT_SPREAD], tensor_dims=(2, 2))
    assert validate_cartan_partition(spread)
    assert per_pair_cartan_valid(spread)


def per_pair_partition_valid(classes, vertices, commutes, class_size=None) -> bool:
    """The per-pair validator that the commutation table replaced, kept as an oracle.

    Disjoint, covering, sized when class_size is given, and commutes(u, v)
    for every pair within a class.
    """
    flat = [v for cls in classes for v in cls]
    if len(flat) != len(set(flat)) or set(flat) != set(vertices):
        return False
    return all(
        (class_size is None or len(cls) == class_size)
        and all(commutes(u, v) for i, u in enumerate(cls) for v in cls[i + 1 :])
        for cls in classes
    )


def per_pair_cartan_valid(partition: CartanPartition) -> bool:
    """`validate_cartan_partition` by `tensor_indices_commute`, one pair at a time."""
    dims = partition.tensor_dims or (partition.dimension,)
    d = partition.dimension
    if partition.complete and len(partition.classes) != d + 1:
        return False
    return per_pair_partition_valid(
        partition.classes,
        tensor_indices(dims),
        lambda u, v: tensor_indices_commute(dims, u, v),
        d - 1 if partition.complete else None,
    )


@functools.cache
def valid_and_searched_partitions() -> tuple[CartanPartition, ...]:
    """The slope classes at p = 2, 3, 5, 7, the tensor partitions (2,2), (2,2,2)
    and (3,3), the two-qubit spread, and the searched classes at d = 4 and 6."""
    return (
        *(cartan_partition_prime(p) for p in (2, 3, 5, 7)),
        *(cartan_partition_prime_power(p, e) for p, e in ((2, 2), (2, 3), (3, 2))),
        CartanPartition(4, [list(cls) for cls in TWO_QUBIT_SPREAD], tensor_dims=(2, 2)),
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
    partition = CartanPartition(
        base.dimension, classes, data.draw(st.booleans(), label="complete"), base.tensor_dims
    )
    assert validate_cartan_partition(partition) == per_pair_cartan_valid(partition)


def test_su4_spread_report():
    report = su4_spread_check()
    assert report.overall
    assert report.sets_commute
    assert report.union_size == 15
    assert report.covers_all_nonidentity
    assert report.gram_defect < 1e-12
    assert report.gram_rank == 15
    assert report.spans_u4


def test_joint_eigenbases_of_classes_are_unbiased():
    for p in (2, 3, 5, 7):
        partition = cartan_partition_prime(p)
        bases = [OrthonormalBasis(d=p, label="computational", vectors=np.eye(p, dtype=complex))]
        for cls in partition.classes[1:]:
            generator = u_ab(p, *cls[0]).to_matrix()
            _, vectors = np.linalg.eig(generator)
            bases.append(OrthonormalBasis(d=p, label=str(cls[0]), vectors=vectors))
        assert max(pairwise_deviations(bases).values()) < 1e-9


def test_determinants_special_unitary_odd():
    for d in (3, 5, 7):
        for a, b in pauli_indices(d, True):
            assert u_ab(d, a, b).determinant().is_one
