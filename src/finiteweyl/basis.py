"""The operator basis u_ab = X^a Z^b of u(d) and its commuting-class geometry.

Structure constants are cyclotomic-exact: [u_ab, u_a'b'] is
(q^(-ba') - q^(-ab')) u_(a+a', b+b'), vanishing precisely when
ab' - ba' = 0 mod d.  For prime p the nonidentity labels split into p+1
slope classes of p-1 pairwise commuting operators; for prime powers the
same decomposition exists for tensor-product labels and is found here by
exhaustive backtracking over the commutation graph.  For composite d
(single qudit) the search instead certifies that no such partition exists
and returns the best-effort classes.

`commutator_table(d)` is the array form of `commutator_coefficient_exponents`
and `pauli_commutator`: one `CommutatorTable` of int64 tau exponents and
target label indices for all d^4 label pairs, whose `coefficients` method
turns the exponents into the complex coefficients through
`phases.tau_powers`, bit for bit as `pauli_commutator` does.
`hs_orthogonality` reads the trace pairings off the same table.
`tensor_commutation_table(dims, labels)` is the array form of
`tensor_indices_commute` (and, with dims = (d,), of `indices_commute`):
the symplectic form of every label pair.  Both searches read their
commutation graph off it, and `validate_cartan_partition` the commutation
within each class of every partition, the two-qubit spread
`TWO_QUBIT_SPREAD` (the p^e = 4 case) included.  `pauli_stack(dims,
labels)` is the one builder of dense Pauli matrices.  The trace pairings
of tensor monomials, the Gram of the spread included, are
`operators.trace_gram`; the text form of a label is `serialize`'s.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product
from types import EllipsisType

import numpy as np

from .limits import check_prime, check_search, check_structure_table, check_tensor
from .operators import MonomialOperator, monomial_mul, residual_norm, trace_gram
from .phases import PhaseExponent, tau_powers
from .search import find_commuting_partition, greedy_commuting_classes

PauliIndex = tuple[int, int]


def u_ab(d: int, a: int, b: int) -> MonomialOperator:
    """X^a Z^b with no scalar phase."""
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices must lie in 0..{d - 1}, got ({a}, {b})")
    return MonomialOperator(PhaseExponent.one(d), a, b)


def pauli_indices(d: int, include_identity: bool = False) -> list[PauliIndex]:
    out = [(a, b) for a in range(d) for b in range(d)]
    return out if include_identity else [ab for ab in out if ab != (0, 0)]


def indices_commute(d: int, ab: PauliIndex, ab2: PauliIndex) -> bool:
    (a, b), (a2, b2) = ab, ab2
    return (a * b2 - b * a2) % d == 0


def commutator_coefficient_exponents(
    d: int, ab: PauliIndex, ab2: PauliIndex
) -> tuple[PhaseExponent, PhaseExponent]:
    """The pair (q^(-ba'), q^(-ab')) entering the (anti)commutator."""
    (a, b), (a2, b2) = ab, ab2
    return PhaseExponent.q_power(-b * a2, d), PhaseExponent.q_power(-a * b2, d)


def pauli_commutator(
    d: int, ab: PauliIndex, ab2: PauliIndex, sign: str = "-"
) -> tuple[complex, PauliIndex]:
    """[u_ab, u_a'b']_-+ = (q^(-ba') -+ q^(-ab')) u_(a+a', b+b')."""
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    first, second = commutator_coefficient_exponents(d, ab, ab2)
    coeff = first.to_complex() - second.to_complex() if sign == "-" else (
        first.to_complex() + second.to_complex()
    )
    target = ((ab[0] + ab2[0]) % d, (ab[1] + ab2[1]) % d)
    return coeff, target


@dataclass(frozen=True, eq=False)
class CommutatorTable:
    """Exponents of u_i u_j for all labels i, j in `pauli_indices(d, True)` order.

    Label (a, b) has index a*d + b.  With i = (a, b) and j = (a', b'),
    u_i u_j = tau^first[i, j] u_k and u_j u_i = tau^second[i, j] u_k, where
    k = target[i, j] is the index of (a + a', b + b') mod d.
    """

    d: int
    first: np.ndarray  # (-2ba') mod 2d
    second: np.ndarray  # (-2ab') mod 2d
    target: np.ndarray

    def coefficients(self, sign: str = "-", index: int | EllipsisType = ...) -> np.ndarray:
        """tau^first -+ tau^second at `index` (default: every pair).

        These are the coefficients `pauli_commutator` returns, bit for bit.
        """
        if sign not in ("-", "+"):
            raise ValueError(f"sign must be '-' or '+', got {sign!r}")
        out = tau_powers(self.first[index], self.d)
        if sign == "-":
            out -= tau_powers(self.second[index], self.d)
        else:
            out += tau_powers(self.second[index], self.d)
        return out


def commutator_table(d: int) -> CommutatorTable:
    """The exponents and targets of `pauli_commutator` for all d^4 label pairs."""
    check_structure_table(d)
    a, b = np.divmod(np.arange(d * d, dtype=np.int64), d)
    return CommutatorTable(
        d=d,
        first=(-2 * np.outer(b, a)) % (2 * d),
        second=(-2 * np.outer(a, b)) % (2 * d),
        target=((a[:, None] + a) % d) * d + (b[:, None] + b) % d,
    )


def hs_orthogonality(d: int) -> float:
    """Max deviation of Tr(u^dagger u') from d delta delta, exactly 0.0.

    Trace pairings are evaluated exactly from the commutator table; any
    deviation is reported as its exact magnitude.
    """
    table = commutator_table(d)
    a, b = np.divmod(np.arange(d * d, dtype=np.int64), d)
    # u_ab^dagger = tau^(-2ab) u_(-a,-b), so Tr(u_ab^dagger u_j) is d times
    # tau^(-2ab) tau^first[(-a,-b), j] when target[(-a,-b), j] is the
    # identity label 0, and 0 otherwise
    negated = ((-a) % d) * d + (-b) % d
    exponents = table.first[negated]
    exponents += (-2 * a * b)[:, None]
    exponents %= 2 * d
    scalar = table.target[negated] == 0
    diagonal = np.eye(d * d, dtype=bool)
    diagonal_defect = 0.0 if (scalar[diagonal] & (exponents[diagonal] == 0)).all() else 1.0
    off_diagonal = scalar & ~diagonal
    return residual_norm([diagonal_defect, d * tau_powers(exponents[off_diagonal], d)])


@dataclass
class CartanPartition:
    """Disjoint classes of pairwise commuting operator labels."""

    dimension: int
    classes: list[list[tuple]]
    complete: bool = True
    tensor_dims: tuple[int, ...] | None = None

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def label_moduli(self) -> tuple[int, ...]:
        if self.tensor_dims is None:
            return (self.dimension, self.dimension)
        return tuple(x for p in self.tensor_dims for x in (p, p))


def cartan_partition_prime(p: int) -> CartanPartition:
    """The p+1 slope classes of su(p), p prime.

    Class 0 is the pure clock class {(0, b)}; class i >= 1 collects
    {(x, (i-1) x mod p)}, running the slope over 0..p-1, for p within the
    cap of the MUBs whose eigenbasis classes they are (`limits.check_prime`).
    """
    check_prime(p)
    classes: list[list[tuple]] = [[(0, b) for b in range(1, p)]]
    for slope in range(p):
        classes.append([(x, (slope * x) % p) for x in range(1, p)])
    return CartanPartition(dimension=p, classes=classes, complete=True)


def commuting_class_search(d: int) -> CartanPartition:
    """Exhaustive search for d+1 classes of d-1 commuting single-qudit labels.

    Returns a complete partition when one exists (always, for prime d);
    otherwise the first-found disjoint classes with complete=False, the
    failed search having proved that no full partition exists.
    """
    check_search(d)
    vertices = pauli_indices(d)
    # one table serves both searches; each reads every pair once
    commutes = _table_lookup((d,), vertices)
    solution = find_commuting_partition(vertices, commutes, d - 1)
    if solution is not None:
        return CartanPartition(dimension=d, classes=solution, complete=True)
    best_effort = greedy_commuting_classes(vertices, commutes, d - 1)
    return CartanPartition(dimension=d, classes=best_effort, complete=False)


def validate_cartan_partition(partition: CartanPartition) -> bool:
    """Recheck disjointness, covering and intra-class commutation.

    A complete partition also needs d + 1 classes of d - 1 labels.
    """
    dims = partition.tensor_dims or (partition.dimension,)
    classes = partition.classes
    # sizes first: the d^2 - 1 labels are listed only for classes that hold as many
    if partition.complete and (
        len(classes) != partition.dimension + 1
        or any(len(cls) != partition.dimension - 1 for cls in classes)
    ):
        return False
    flat = [label for cls in classes for label in cls]
    # covering first: the commutation table reads only labels that fit dims
    if len(flat) != len(set(flat)) or set(flat) != set(tensor_indices(dims)):
        return False
    return _classes_commute(dims, classes)


def _classes_commute(dims: tuple[int, ...], classes: list) -> bool:
    """Exact: every pair within each class commutes, read off its commutation table."""
    return all(not tensor_commutation_table(dims, cls).any() for cls in classes)


# ---------------------------------------------------------------------------
# Tensor products of single-qudit operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TensorMonomial:
    """Kronecker product of monomial factors, kept exactly factor by factor."""

    factors: tuple[MonomialOperator, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.d for f in self.factors)

    def __matmul__(self, other: "TensorMonomial") -> "TensorMonomial":
        if self.dims != other.dims:
            raise ValueError("tensor factor dimensions do not match")
        return TensorMonomial(
            tuple(monomial_mul(u, v) for u, v in zip(self.factors, other.factors))
        )

    def adjoint(self) -> "TensorMonomial":
        return TensorMonomial(tuple(f.adjoint() for f in self.factors))

    def trace(self) -> complex:
        """prod(d_j) times the product of the factor phases tau_j^t_j.

        With L = lcm(d_j), tau_j^t_j = exp(i*pi*t_j*(L/d_j)/L), so the
        product is the single phase PhaseExponent(sum t_j*(L/d_j), L).
        """
        lcm = math.lcm(*self.dims)
        total = 0
        for f in self.factors:
            scalar = f.trace_exact()
            if scalar is None:
                return 0j
            total += scalar.t * (lcm // scalar.d)
        return math.prod(self.dims) * PhaseExponent(total, lcm).to_complex()


def tensor_indices(dims: tuple[int, ...]) -> list[tuple]:
    """All interleaved digit labels (a1, b1, ..., ae, be) except the identity."""
    ranges = []
    for p in dims:
        ranges.extend([range(p), range(p)])
    return [idx for idx in product(*ranges) if any(idx)]


def tensor_pauli(dims: tuple[int, ...], index: tuple) -> TensorMonomial:
    """Build the Kronecker operator from an interleaved digit label."""
    if len(index) != 2 * len(dims):
        raise ValueError(f"label length {len(index)} does not match dims {dims}")
    factors = []
    for pos, p in enumerate(dims):
        a, b = index[2 * pos], index[2 * pos + 1]
        factors.append(u_ab(p, a % p, b % p))
    return TensorMonomial(tuple(factors))


def tensor_indices_commute(dims: tuple[int, ...], idx1: tuple, idx2: tuple) -> bool:
    """Exact commutation test: sum of (a_j b'_j - b_j a'_j)/d_j integral.

    In integers (the symplectic form of Aaronson & Gottesman): with
    L = lcm(d_j), the sum of (a_j b'_j - b_j a'_j) * (L / d_j) is 0 mod L.
    """
    lcm = math.lcm(*dims)
    total = 0
    for pos, p in enumerate(dims):
        a, b = idx1[2 * pos], idx1[2 * pos + 1]
        a2, b2 = idx2[2 * pos], idx2[2 * pos + 1]
        total += (a * b2 - b * a2) * (lcm // p)
    return total % lcm == 0


def tensor_commutation_table(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The array form of `tensor_indices_commute`, for all pairs of labels.

    Entry [i, j] is the symplectic form of labels[i] and labels[j]: with
    w_j = L / d_j and L = lcm(d_j), the sum of (a_j b'_j - b_j a'_j) * w_j
    mod L.  It is 0 exactly when the two operators commute.  With dims =
    (d,) it is ab' - ba' mod d, the form of `indices_commute`.
    """
    lcm = math.lcm(*dims)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 2 * len(dims))
    weights = np.array([lcm // p for p in dims], dtype=np.int64)
    # half[i, j] is the sum of a_k b'_k w_k for labels[i] and labels[j],
    # so half[j, i] is the sum of b_k a'_k w_k
    half = (labels[:, 0::2] * weights) @ labels[:, 1::2].T
    return (half - half.T) % lcm


def _table_lookup(dims: tuple[int, ...], labels: list[tuple]) -> Callable[[tuple, tuple], bool]:
    """A `commutes(u, v)` that reads labels u and v off their `tensor_commutation_table`."""
    position = {label: i for i, label in enumerate(labels)}
    commuting = (tensor_commutation_table(dims, labels) == 0).tolist()

    def commutes(u: tuple, v: tuple) -> bool:
        return commuting[position[u]][position[v]]

    return commutes


def cartan_partition_prime_power(p: int, e: int) -> CartanPartition:
    """Partition the p^2e - 1 tensor labels into p^e + 1 commuting classes.

    Found by the same deterministic backtracking used for single qudits;
    a failure would contradict the existence of the decomposition at this
    size and is raised rather than ignored, as is a nonzero dense
    commutator in the found classes (`partition_dense_commutation_defect`).
    """
    d = check_tensor(p, e)
    dims = (p,) * e
    vertices = tensor_indices(dims)
    commutes = _table_lookup(dims, vertices)
    solution = find_commuting_partition(vertices, commutes, d - 1)
    if solution is None:
        raise RuntimeError(
            f"no partition of the {p**(2 * e) - 1} labels into "
            f"{d + 1} commuting classes of {d - 1} was found"
        )
    partition = CartanPartition(
        dimension=d, classes=solution, complete=True, tensor_dims=dims
    )
    defect = partition_dense_commutation_defect(partition)
    if defect > 1e-12:
        raise RuntimeError(f"dense recheck failed with defect {defect}")
    return partition


def pauli_stack(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The dense `tensor_pauli(dims, idx)` of every label, stacked, bit for bit.

    Each distinct factor matrix u_ab(p, a, b) is built once, and the
    Kronecker products of all labels are one broadcast per factor, with the
    same elementwise products as `np.kron` of the factor matrices.
    """
    factors: dict[tuple[int, int, int], np.ndarray] = {}

    def factor(p: int, a: int, b: int) -> np.ndarray:
        if (p, a, b) not in factors:
            factors[p, a, b] = u_ab(p, a, b).to_matrix()
        return factors[p, a, b]

    out = None
    for pos, p in enumerate(dims):
        f = np.stack([factor(p, idx[2 * pos], idx[2 * pos + 1]) for idx in labels])
        if out is None:
            out = f
        else:
            n, r = out.shape[:2]
            out = (out[:, :, None, :, None] * f[:, None, :, None, :]).reshape(n, r * p, r * p)
    return out


def partition_dense_commutation_defect(partition: CartanPartition) -> float:
    """Max norm of dense intra-class commutators, an independent recheck.

    One row of a class at a time: mats[i] against every later member.  A
    class with fewer than two members has no commutator and adds nothing.
    """
    dims = partition.tensor_dims or (partition.dimension,)

    def commutators():
        for cls in partition.classes:
            if len(cls) < 2:
                continue
            mats = pauli_stack(dims, cls)
            for i in range(len(mats) - 1):
                later = mats[i + 1 :]
                comm = mats[i] @ later
                comm -= later @ mats[i]
                yield comm

    return residual_norm(commutators())


# ---------------------------------------------------------------------------
# The fifteen two-qubit operators and their five-line spread
# ---------------------------------------------------------------------------

TWO_QUBIT_SPREAD: tuple[tuple[tuple, ...], ...] = (
    ((1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 0)),
    ((1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)),
    ((1, 0, 1, 0), (1, 0, 0, 0), (0, 0, 1, 0)),
    ((1, 1, 1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((0, 1, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1)),
)


@dataclass
class SpreadReport:
    sets: tuple[tuple[tuple, ...], ...]
    sets_commute: bool
    union_size: int
    covers_all_nonidentity: bool
    gram_defect: float
    gram_rank: int
    spans_u4: bool
    overall: bool = field(init=False)

    def __post_init__(self) -> None:
        self.overall = (
            self.sets_commute
            and self.union_size == 15
            and self.covers_all_nonidentity
            and self.gram_defect < 1e-12
            and self.gram_rank == 15
            and self.spans_u4
        )


def su4_spread_check() -> SpreadReport:
    """Verify the five commuting triples spanning su(4).

    The spread is the p^e = 4 tensor partition: its classes commute exactly
    by the commutation table and, as a recheck, by the dense commutators,
    which are exact for qubit entries 0 and +-1.
    """
    dims = (2, 2)
    spread = CartanPartition(4, [list(cls) for cls in TWO_QUBIT_SPREAD], tensor_dims=dims)
    sets_commute = _classes_commute(dims, spread.classes) and (
        partition_dense_commutation_defect(spread) == 0.0
    )
    union = [idx for cls in spread.classes for idx in cls]
    union_set = set(union)
    covers = union_set == set(tensor_indices(dims))

    gram = trace_gram([tensor_pauli(dims, idx) for idx in union])
    gram_defect = residual_norm([gram - 4.0 * np.eye(15)])
    # the 15 labels, then the identity
    stacked = pauli_stack(dims, [*union, (0, 0, 0, 0)]).reshape(16, -1)
    gram_rank = int(np.linalg.matrix_rank(stacked[:15]))
    spans_u4 = int(np.linalg.matrix_rank(stacked)) == 16

    return SpreadReport(
        sets=TWO_QUBIT_SPREAD,
        sets_commute=sets_commute,
        union_size=len(union_set),
        covers_all_nonidentity=covers,
        gram_defect=gram_defect,
        gram_rank=gram_rank,
        spans_u4=spans_u4,
    )
