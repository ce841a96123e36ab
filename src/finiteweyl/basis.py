"""The operator basis u_ab = X^a Z^b of u(d) and its commuting-class geometry.

Structure constants are cyclotomic-exact: [u_ab, u_a'b'] is
(q^(-ba') - q^(-ab')) u_(a+a', b+b'), vanishing precisely when
ab' - ba' = 0 mod d.  `cartan_partition(d)` lists one qudit's commuting
classes in closed form: the clock class and the slope classes below q,
the smallest prime factor of d.  At prime d they are the d+1 classes of
d-1 pairwise commuting operators; at composite d they are q+1 classes, as
many as can be disjoint, and no full partition exists.  For prime powers
the d+1 classes of tensor-product labels are found by exhaustive
backtracking over the commutation graph, and the same search certifies
at composite d that one qudit has none.  A single qudit is the tensor
case dims = (d,), so both searches make one search call over the
positions of `tensor_indices(dims)` and return a `CartanPartition` of
those dims.

`commutator_table(d)` holds the exponents of `pauli_commutator` for all
d^4 label pairs: one `CommutatorTable` of int64 tau exponents and target
label indices.  Exact verdicts read the exponents; its `coefficients`
method turns them into the complex commutator coefficients through
`phases.tau_powers`, bit for bit as `pauli_commutator` does.
`tensor_commutation_table(dims, labels)` holds
the symplectic form of every label pair; `tensor_indices_commute` reads
one pair off it.  Both searches read their commutation graph
off it, and `validate_cartan_partition` the commutation within each
class of every partition, the two-qubit spread `TWO_QUBIT_SPREAD` (the
p^e = 4 case) included; it is the one rule for a valid partition.
`pauli_rows(dims, labels)` is the one reader of exact (t, shift, clock)
rows, digits mod d_k, and `pauli_stack(dims, labels)` builds dense Pauli
matrices off them.  All three read labels as one checked (n, 2e)
int64 array, n = 0 allowed, and name a label of another length in their
error.  Every trace pairing, `hs_orthogonality` over the d^2 labels and
the Gram of the spread included, is decided by `trace_orthogonal`: the
integer `operators.trace_gram` of those rows is exactly prod(dims) I.
The digits of a label run over
`label_moduli(dims)`; the text form of a label is `serialize`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from types import EllipsisType

import numpy as np

from .limits import check_dense, check_search, check_structure_table, check_tensor
from .operators import MonomialOperator, residual_norm, trace_gram
from .phases import PhaseExponent, tau_powers
from .search import find_commuting_partition

PauliIndex = tuple[int, int]


def u_ab(d: int, a: int, b: int) -> MonomialOperator:
    """X^a Z^b with no scalar phase."""
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"indices must lie in 0..{d - 1}, got ({a}, {b})")
    return MonomialOperator(PhaseExponent.one(d), a, b)


def pauli_indices(d: int, include_identity: bool = False) -> list[PauliIndex]:
    out = [(a, b) for a in range(d) for b in range(d)]
    return out if include_identity else [ab for ab in out if ab != (0, 0)]


def pauli_commutator(
    d: int, ab: PauliIndex, ab2: PauliIndex, sign: str = "-"
) -> tuple[complex, PauliIndex]:
    """[u_ab, u_a'b']_-+ = (q^(-ba') -+ q^(-ab')) u_(a+a', b+b')."""
    if sign not in ("-", "+"):
        raise ValueError(f"sign must be '-' or '+', got {sign!r}")
    (a, b), (a2, b2) = ab, ab2
    first = PhaseExponent.q_power(-b * a2, d).to_complex()
    second = PhaseExponent.q_power(-a * b2, d).to_complex()
    coeff = first - second if sign == "-" else first + second
    target = ((a + a2) % d, (b + b2) % d)
    return coeff, target


@dataclass(frozen=True, eq=False)
class CommutatorTable:
    """Exponents of u_i u_j for all labels i, j in `pauli_indices(d, True)` order.

    Label (a, b) has index a*d + b.  With i = (a, b) and j = (a', b'),
    u_i u_j = tau^first[i, j] u_k and u_j u_i = tau^second[i, j] u_k, where
    k = target[i, j] is the index of (a + a', b + b') mod d.  The pair
    commutes when first equals second, the zero of `tensor_commutation_table`.
    """

    d: int
    first: np.ndarray  # (-2ba') mod 2d
    second: np.ndarray  # (-2ab') mod 2d
    target: np.ndarray

    def coefficients(self, index: int | EllipsisType = ...) -> np.ndarray:
        """tau^first - tau^second at `index` (default: every pair).

        These are the commutator coefficients `pauli_commutator` returns, bit
        for bit; exact facts about them are read off the exponents.
        """
        out = tau_powers(self.first[index], self.d)
        out -= tau_powers(self.second[index], self.d)
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


def hs_orthogonality(d: int) -> bool:
    """Whether Tr(u^dagger u') = d delta delta over the d^2 labels, by `trace_orthogonal`."""
    return trace_orthogonal((d,), pauli_indices(d, include_identity=True))


def trace_orthogonal(dims: tuple[int, ...], labels: list[tuple]) -> bool:
    """Whether Tr(u_i^dagger u_j) = prod(dims) delta_ij exactly, for labels of equal-d factors."""
    exponents, scalar = trace_gram(pauli_rows(dims, labels), dims[0])
    diagonal = np.eye(len(labels), dtype=bool)
    return bool(np.array_equal(scalar, diagonal) and not exponents[diagonal].any())


@dataclass
class CartanPartition:
    """Disjoint classes of pairwise commuting labels of the factors dims, (d,) for one qudit."""

    dims: tuple[int, ...]
    classes: list[list[tuple]]
    complete: bool = True

    @property
    def dimension(self) -> int:
        return math.prod(self.dims)

    @property
    def class_count(self) -> int:
        return len(self.classes)


def cartan_partition(d: int) -> CartanPartition:
    """The clock class and the q slope classes of su(d), q the smallest prime factor of d.

    Class 0 is the pure clock class {(0, b)}; class i >= 1 collects
    {(x, (i-1) x mod d)}, running the slope over 0..q-1, for d within the
    cap of the MUBs whose eigenbases the classes are at prime d
    (`limits.check_dense`).  Two slopes differ by less than q, a unit mod d,
    so the classes are disjoint.  They cover every label, and the partition
    is complete, exactly when q = d.
    """
    check_dense(d)
    q = next(f for f in range(2, d + 1) if d % f == 0)
    classes: list[list[tuple]] = [[(0, b) for b in range(1, d)]]
    for slope in range(q):
        classes.append([(x, (slope * x) % d) for x in range(1, d)])
    return CartanPartition((d,), classes, q == d)


def commuting_class_search(d: int) -> CartanPartition:
    """Exhaustive search for d+1 classes of d-1 commuting single-qudit labels.

    Returns the partition found when one exists (always, for prime d);
    otherwise, the failed search having proved that none exists,
    `cartan_partition(d)`, which is incomplete.
    """
    check_search(d)
    return _partition_search((d,)) or cartan_partition(d)


def validate_cartan_partition(partition: CartanPartition) -> bool:
    """Recheck that the classes are disjoint, fit dims (the identity does not) and commute.

    A complete partition also needs d + 1 classes of d - 1 labels, and so
    covers every label; an incomplete one need not.
    """
    dims, classes = partition.dims, partition.classes
    # sizes first: the d^2 - 1 labels are listed only for classes that hold as many
    if partition.complete and (
        len(classes) != partition.dimension + 1
        or any(len(cls) != partition.dimension - 1 for cls in classes)
    ):
        return False
    flat = [label for cls in classes for label in cls]
    # fit first: the commutation table reads only labels that fit dims
    if len(flat) != len(set(flat)) or not set(flat) <= set(tensor_indices(dims)):
        return False
    return all(not tensor_commutation_table(dims, cls).any() for cls in classes)


# ---------------------------------------------------------------------------
# Tensor products of single-qudit operators
# ---------------------------------------------------------------------------


def label_moduli(dims: tuple[int, ...]) -> tuple[int, ...]:
    """The modulus of each digit of a label (a1, b1, ..., ae, be): d_k for a_k and b_k."""
    return tuple(m for d in dims for m in (d, d))


def tensor_indices(dims: tuple[int, ...]) -> list[tuple]:
    """All interleaved digit labels (a1, b1, ..., ae, be) except the identity."""
    return [idx for idx in product(*map(range, label_moduli(dims))) if any(idx)]


def _label_array(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The labels as an (n, 2 len(dims)) int64 array, n = 0 for no labels."""
    width = 2 * len(dims)
    for label in labels:
        if len(label) != width:
            raise ValueError(
                f"label length {len(label)} does not match dims {dims}: {tuple(label)}"
            )
    return np.asarray(labels, dtype=np.int64).reshape(-1, width)


def pauli_rows(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The (n, e, 3) int64 rows (0, a_k mod d_k, b_k mod d_k) of the factors u_(a_k b_k)."""
    digits = _label_array(dims, labels)
    rows = np.zeros((len(digits), len(dims), 3), dtype=np.int64)
    rows[..., 1:] = digits.reshape(-1, len(dims), 2) % np.array(dims)[:, None]
    return rows


def tensor_indices_commute(dims: tuple[int, ...], idx1: tuple, idx2: tuple) -> bool:
    """Exact commutation test of two labels, their entry of `tensor_commutation_table`."""
    return bool(tensor_commutation_table(dims, [idx1, idx2])[0, 1] == 0)


def tensor_commutation_table(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The symplectic form of every pair of labels.

    Entry [i, j] is the form of labels[i] and labels[j]: the sum of
    (a_j b'_j - b_j a'_j)/d_j is an integer exactly when the two operators
    commute, so in integers (Aaronson & Gottesman), with w_j = L / d_j and
    L = lcm(d_j), it is the sum of (a_j b'_j - b_j a'_j) * w_j mod L, 0
    exactly for a commuting pair.  With dims = (d,) it is ab' - ba' mod d.
    """
    lcm = math.lcm(*dims)
    labels = _label_array(dims, labels)
    weights = np.array([lcm // p for p in dims], dtype=np.int64)
    # half[i, j] is the sum of a_k b'_k w_k for labels[i] and labels[j],
    # so half[j, i] is the sum of b_k a'_k w_k
    half = (labels[:, 0::2] * weights) @ labels[:, 1::2].T
    return (half - half.T) % lcm


def _partition_search(dims: tuple[int, ...]) -> CartanPartition | None:
    """d + 1 classes of d - 1 labels, d = prod(dims), or None if there are none."""
    # the labels are sorted, so their positions order as they do
    labels = tensor_indices(dims)
    commuting = (tensor_commutation_table(dims, labels) == 0).tolist()
    found = find_commuting_partition(
        range(len(labels)), lambda i, j: commuting[i][j], math.prod(dims) - 1
    )
    if found is None:
        return None
    return CartanPartition(dims, [[labels[i] for i in cls] for cls in found])


def cartan_partition_prime_power(p: int, e: int) -> CartanPartition:
    """Partition the p^2e - 1 tensor labels into p^e + 1 commuting classes.

    Found by the search route of single qudits; a failure would contradict
    the existence of the decomposition at this size and is raised rather
    than ignored, as is a nonzero dense commutator in the found classes
    (`partition_dense_commutation_defect`).
    """
    d = check_tensor(p, e)
    partition = _partition_search((p,) * e)
    if partition is None:
        raise RuntimeError(
            f"no partition of the {p**(2 * e) - 1} labels into "
            f"{d + 1} commuting classes of {d - 1} was found"
        )
    defect = partition_dense_commutation_defect(partition)
    if defect > 1e-12:
        raise RuntimeError(f"dense recheck failed with defect {defect}")
    return partition


def pauli_stack(dims: tuple[int, ...], labels: list[tuple]) -> np.ndarray:
    """The dense Kronecker product of every label's factors u_(a_k b_k), stacked.

    The factors are read off `pauli_rows`, so digits reduce mod d_k.  Each
    distinct factor matrix u_ab(p, a, b) is built once, and the Kronecker
    products of all labels are one broadcast per factor, with the same
    elementwise products as `np.kron` of the factor matrices.
    """
    rows = pauli_rows(dims, labels)
    factors: dict[tuple[int, int, int], np.ndarray] = {}

    def factor(p: int, a: int, b: int) -> np.ndarray:
        if (p, a, b) not in factors:
            factors[p, a, b] = u_ab(p, a, b).to_matrix()
        return factors[p, a, b]

    out = None
    for pos, p in enumerate(dims):
        # (n, p, p) complex, n = 0 for no labels
        f = np.array([factor(p, a, b) for a, b in rows[:, pos, 1:].tolist()], dtype=complex)
        f = f.reshape(-1, p, p)
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
    dims = partition.dims

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
    orthogonal: bool
    gram_defect: float
    overall: bool = field(init=False)

    def __post_init__(self) -> None:
        self.overall = (
            self.sets_commute
            and self.union_size == 15
            and self.covers_all_nonidentity
            and self.orthogonal
            and self.gram_defect == 0.0
        )


def su4_spread_check() -> SpreadReport:
    """Verify the five commuting triples spanning su(4).

    The spread is the p^e = 4 tensor partition: it passes
    `validate_cartan_partition`, and with the identity its exact Gram is 4 I.
    Dense commutators and a dense Gram, exact for qubit entries, recheck both.
    """
    dims = (2, 2)
    spread = CartanPartition(dims, [list(cls) for cls in TWO_QUBIT_SPREAD])
    sets_commute = validate_cartan_partition(spread) and (
        partition_dense_commutation_defect(spread) == 0.0
    )
    union = [idx for cls in spread.classes for idx in cls]
    union_set = set(union)
    covers = union_set == set(tensor_indices(dims))

    # the 15 labels, then the identity
    labels = [*union, (0, 0, 0, 0)]
    stacked = pauli_stack(dims, labels).reshape(16, -1)

    return SpreadReport(
        sets=TWO_QUBIT_SPREAD,
        sets_commute=sets_commute,
        union_size=len(union_set),
        covers_all_nonidentity=covers,
        orthogonal=trace_orthogonal(dims, labels),
        gram_defect=residual_norm([stacked.conj() @ stacked.T - 4 * np.eye(16)]),
    )
