"""The discrete Heisenberg group of order d^3 over the ring Z_d.

Elements are triples (a, b, c) mod d with the law

    (a, b, c) (a', b', c') = (a + a' - c b', b + b', c + c')

realized faithfully by the monomials q^a X^b Z^c.  The module provides the
group operations, conjugacy classes and centralizers by brute force, the
handful of named subgroups, one-dimensional characters, the monomial
representations rho_k, and the d^3-dimensional bracket on the group
algebra.

Brute-force enumerations are capped by `limits` (default d <= 16) since
class and centralizer computations grow like d^4.  Normality of a named
subgroup is tested by conjugating it with the generators (1,0,0), (0,1,0)
and (0,0,1) only, at a cost of 3|H| conjugations.

At run time the module holds elements only as int arrays whose last axis
holds (a, b, c): the census returns each class as a row-sorted (n, 3)
int64 array and each named subgroup is one such array.  The laws on
those arrays are `pd_element_array` (the d^3 elements in lexicographic
(a, b, c) order), `pd_compose_array` and `pd_inverse_array` (the group
law), `pd_centralizer_sizes`, `pd_element_orders`,
`pd_character_exponents` (tau exponents of the linear characters),
`pd_irrep_array` (rho_k as (t, shift, clock) rows for
`operators.monomial_mul_array`), `pd_irrep_trace_exponents` (the traces
of rho_k, read off those rows by `operators.monomial_trace_array`) and
`pd_lie_bracket_terms` (the signed terms of the bracket).
They evaluate integer formulas mod d or mod 2d, so they are exact; the
census, ambivalence, closure, normality, commutativity, element orders,
the centre, the quotient law and the character norms are evaluated with
them, and so is every check of `suites.suite_group`.

`PdElement`, `pd_conjugate` and `pd_centralizer_size` are the public
single-element API.  They hold no law of their own: `PdElement.compose`
and `inverse` read `pd_compose_array` and `pd_inverse_array` on the
(a, b, c) key, and `pd_centralizer_size` reads `pd_centralizer_sizes`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .limits import DEFAULT_BRUTE_FORCE_CAP, check_brute_force, check_dimension
from .operators import monomial_trace_array

PdKey = tuple[int, int, int]


@dataclass(frozen=True, slots=True, init=False)
class PdElement:
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        d = operator.index(d)
        if d < 2:
            raise ValueError(f"modulus must be >= 2, got {d}")
        object.__setattr__(self, "a", operator.index(a) % d)
        object.__setattr__(self, "b", operator.index(b) % d)
        object.__setattr__(self, "c", operator.index(c) % d)
        object.__setattr__(self, "d", d)

    def compose(self, other: "PdElement") -> "PdElement":
        if self.d != other.d:
            raise ValueError(f"modulus mismatch: {self.d} != {other.d}")
        return PdElement(*pd_compose_array(self.key(), other.key(), self.d).tolist(), self.d)

    def inverse(self) -> "PdElement":
        return PdElement(*pd_inverse_array(self.key(), self.d).tolist(), self.d)

    def key(self) -> PdKey:
        return (self.a, self.b, self.c)


def pd_conjugate(g: PdElement, h: PdElement) -> PdElement:
    """g h g^-1, via composition (the closed form only moves h.a)."""
    return g.compose(h).compose(g.inverse())


def pd_element_array(d: int) -> np.ndarray:
    """The d^3 elements as a (d^3, 3) int64 array, in lexicographic (a, b, c) order."""
    check_dimension(d)
    return np.indices((d, d, d), dtype=np.int64).reshape(3, -1).T


def pd_compose_array(g: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """The group law on (..., 3) int arrays of (a, b, c), broadcast, reduced mod d."""
    g, h = np.asarray(g, dtype=np.int64), np.asarray(h, dtype=np.int64)
    out = g + h
    out[..., 0] -= g[..., 2] * h[..., 1]
    out %= d
    return out


def pd_inverse_array(g: np.ndarray, d: int) -> np.ndarray:
    """The inverse (-a - bc, -b, -c) of each row of a (..., 3) int array, reduced mod d."""
    g = np.asarray(g, dtype=np.int64)
    out = -g
    out[..., 0] -= g[..., 1] * g[..., 2]
    out %= d
    return out


def _element_codes(g: np.ndarray, d: int) -> np.ndarray:
    """Index of each reduced (a, b, c) in `pd_element_array` order."""
    return (g[..., 0] * d + g[..., 1]) * d + g[..., 2]


@dataclass
class ConjugacyClassReport:
    """The classes as row-sorted (n, 3) int64 arrays, ordered by their first row."""

    d: int
    classes: list[np.ndarray]

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def size_histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(len(cls) for cls in self.classes).items()))

    @property
    def singleton_count(self) -> int:
        return self.size_histogram.get(1, 0)

    @property
    def size_d_count(self) -> int:
        return self.size_histogram.get(self.d, 0)


def pd_conjugacy_classes(d: int, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> ConjugacyClassReport:
    """Exact classes by orbit enumeration.

    The conjugate of (a, b, c) by (a', b', c') is (a + cb' - bc', b, c), so
    each orbit is swept by running (b', c') over Z_d^2: the shifts of a it
    reaches are marked per (b, c), and each element is filed under the
    smallest element of its orbit.
    """
    check_brute_force(d, cap)
    z = np.arange(d)
    b, c, c2 = np.ix_(z, z, z)
    # reachable[b, c, s]: some (b', c') shifts a by s; one b' at a time keeps memory at d^3
    reachable = np.zeros((d, d, d), dtype=bool)
    for b2 in range(d):
        np.put_along_axis(reachable, (c * b2 - b * c2) % d, True, axis=2)
    # smallest[b, c, a]: the smallest a + s mod d over the reachable shifts s
    smallest = np.full((d, d, d), d)
    for s in range(d):
        np.minimum(smallest, np.where(reachable[:, :, s, None], (z + s) % d, d), out=smallest)
    elements = pd_element_array(d)
    first = elements.copy()
    first[:, 0] = smallest.transpose(2, 0, 1).ravel()
    labels = _element_codes(first, d)
    # a stable sort keeps each class in `pd_element_array` order
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return ConjugacyClassReport(d=d, classes=np.split(elements[order], bounds))


def pd_centralizer_size(g: PdElement) -> int:
    """Number of elements commuting with g, read off `pd_centralizer_sizes`."""
    return int(pd_centralizer_sizes(g.key(), g.d))


def pd_centralizer_sizes(g: np.ndarray, d: int) -> np.ndarray:
    """The centralizer order of each element of a (..., 3) int array.

    Commutation depends only on (b', c'), so a brute-force count, once per
    coset label (b, c) that occurs: the number of (b', c') with
    c b' - b c' = 0 (mod d), times d choices of a'.
    """
    g = np.asarray(g, dtype=np.int64) % d
    labels, index = np.unique(g[..., 1] * d + g[..., 2], return_inverse=True)
    b, c = (x[:, None, None] for x in np.divmod(labels, d))
    z = np.arange(d)
    counts = d * np.count_nonzero((c * z[:, None] - b * z) % d == 0, axis=(1, 2))
    return counts[index].reshape(g.shape[:-1])


def pd_is_ambivalent(report: ConjugacyClassReport) -> bool:
    """Whether every conjugacy class of the census is closed under inversion."""
    d = report.d
    members = np.concatenate(report.classes)
    codes = _element_codes(members, d)
    # the class of each element, indexed in `pd_element_array` order
    label = np.full(d**3, -1)
    label[codes] = np.repeat(np.arange(report.class_count), [len(cls) for cls in report.classes])
    return bool((label[_element_codes(pd_inverse_array(members, d), d)] == label[codes]).all())


@dataclass(frozen=True)
class Subgroup:
    name: str
    elements: np.ndarray
    is_normal: bool
    isomorphism: str


def _members(array: np.ndarray, d: int) -> np.ndarray:
    """The membership mask of the rows of a (n, 3) array, in `pd_element_array` order."""
    member = np.zeros(d**3, dtype=bool)
    member[_element_codes(array, d)] = True
    return member


def _is_closed(array: np.ndarray, d: int) -> bool:
    member = _members(array, d)
    products = pd_compose_array(array[:, None, :], array[None, :, :], d)
    return bool(
        member[_element_codes(products, d)].all()
        and member[_element_codes(pd_inverse_array(array, d), d)].all()
    )


def _is_normal(array: np.ndarray, d: int) -> bool:
    # (gk) H (gk)^-1 = g (k H k^-1) g^-1, so the generators of P_d suffice
    generators = np.eye(3, dtype=np.int64)[:, None, :]
    conjugates = pd_compose_array(
        pd_compose_array(generators, array, d), pd_inverse_array(generators, d), d
    )
    return bool(_members(array, d)[_element_codes(conjugates, d)].all())


def _is_abelian(array: np.ndarray, d: int) -> bool:
    # every pair commutes: c b' - b c' = 0 (mod d)
    b, c = array[:, 1], array[:, 2]
    return not ((np.outer(c, b) - np.outer(b, c)) % d).any()


def pd_element_orders(g: np.ndarray, d: int) -> np.ndarray:
    """The order of each element of a (..., 3) int array.

    The powers g^n come from repeated `pd_compose_array`, all elements at
    once; each order is the first n at which g^n is the identity.
    """
    g = np.asarray(g, dtype=np.int64) % d
    orders = np.zeros(g.shape[:-1], dtype=np.int64)
    power, n = g, 1
    while not orders.all():
        orders[(orders == 0) & ~power.any(axis=-1)] = n
        power, n = pd_compose_array(power, g, d), n + 1
    return orders


def _isomorphism_tag(array: np.ndarray, d: int) -> str:
    if not _is_abelian(array, d):
        return "nonabelian"
    orders = pd_element_orders(array, d)
    n = len(array)
    if n == d and orders.max() == d:
        return f"cyclic-Z{d}"
    if n == d * d:
        # Z_d x Z_d is pinned down by its order-divisor counts.
        looks_like_product = all(
            np.count_nonzero(m % orders == 0) == math.gcd(m, d) ** 2
            for m in range(1, d + 1)
            if d % m == 0
        )
        if looks_like_product and orders.max() == d:
            return f"Z{d}xZ{d}"
    return "generic-abelian"


def pd_named_subgroups(d: int, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> list[Subgroup]:
    """The six listed subgroups, with closure/normality verified.

    Each subset holds x_1 r_1 + ... + x_k r_k for its rows r_i below, with
    (x_1, ..., x_k) running over Z_d^k in lexicographic order.
    """
    check_brute_force(d, cap)
    subsets = [
        ("center", [(1, 0, 0)]),
        ("shift-axis", [(0, 1, 0)]),
        ("clock-axis", [(0, 0, 1)]),
        ("phase-shift-plane", [(1, 0, 0), (0, 1, 0)]),
        ("phase-clock-plane", [(1, 0, 0), (0, 0, 1)]),
        ("diagonal-plane", [(1, 0, 0), (0, 1, 1)]),
    ]
    out = []
    for name, rows in subsets:
        coordinates = np.indices((d,) * len(rows), dtype=np.int64).reshape(len(rows), -1).T
        elements = coordinates @ np.array(rows, dtype=np.int64)
        if not _is_closed(elements, d):
            raise RuntimeError(f"subset {name} is not closed under the group law")
        out.append(Subgroup(name, elements, _is_normal(elements, d), _isomorphism_tag(elements, d)))
    return out


def pd_center_is_center(d: int) -> bool:
    """The set {(a,0,0)} equals the centralizer of the whole group."""
    elements = pd_element_array(d)
    center = elements[pd_centralizer_sizes(elements, d) == d**3]
    return bool(np.array_equal(center, [(a, 0, 0) for a in range(d)]))


def pd_quotient_is_double_cyclic(d: int) -> bool:
    """P_d / Z(P_d) has the componentwise law on coset labels (b, c), every pair at once."""
    b, c = np.divmod(np.arange(d * d, dtype=np.int64), d)
    cosets = np.stack([np.zeros_like(b), b, c], axis=-1)
    products = pd_compose_array(cosets[:, None], cosets[None], d)
    return bool(np.array_equal(products[..., 1:], (cosets[:, None, 1:] + cosets[None, :, 1:]) % d))


def pd_irrep_counts(d: int) -> tuple[int, int]:
    """Claimed irreducible-representation census (d^2 linear, d-1 of dim d).

    The squared-dimension identity d^2 * 1 + (d-1) * d^2 = d^3 always holds
    arithmetically; the census itself is verified elsewhere only for prime
    d (rho_k is irreducible exactly when gcd(k, d) = 1).
    """
    check_dimension(d)
    one_dim, d_dim = d * d, d - 1
    return one_dim, d_dim


def pd_character_exponents(m: int, n: int, g: np.ndarray, d: int) -> np.ndarray:
    """Tau exponents of the character (a, b, c) -> q^(mb + nc); int arrays m, n and g broadcast."""
    g = np.asarray(g, dtype=np.int64)
    return (2 * (m * g[..., 1] + n * g[..., 2])) % (2 * d)


def pd_irrep_array(k: int, g: np.ndarray, d: int) -> np.ndarray:
    """rho_k(a, b, c) = q^(ka) X^b Z^(kc) for a (..., 3) int array, as (..., 3) monomial rows.

    Each row is (t, shift, clock) = (2ka mod 2d, b mod d, kc mod d), the
    tau exponent and powers of q^(ka) X^b Z^(kc), in the layout of
    `operators.monomial_mul_array`.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in 1..{d - 1}, got {k}")
    return np.asarray(g, dtype=np.int64) * (2 * k, 1, k) % (2 * d, d, d)


def pd_irrep_trace_exponents(k: int, g: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The (exponents, scalar) trace of rho_k(g): `monomial_trace_array` of its rows."""
    return monomial_trace_array(pd_irrep_array(k, g, d)[..., None, :], d)


def irrep_character_norm(k: int, d: int) -> Fraction:
    """(1/d^3) * sum over the group of |Tr rho_k|^2, computed exactly.

    Equals 1 exactly when rho_k is irreducible; in general the value is
    gcd(k, d), the number of irreducible components counted with squared
    multiplicity.
    """
    _, scalar = pd_irrep_trace_exponents(k, pd_element_array(d), d)
    # |d * tau^t|^2 = d^2 for every scalar rho_k(g)
    return Fraction(d * d * int(np.count_nonzero(scalar)), d**3)


def pd_lie_bracket_terms(
    f: np.ndarray, f_coeffs: np.ndarray, g: np.ndarray, g_coeffs: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """The bracket <f, g> = fg - gf of two integer combinations of elements, left unmerged.

    f holds (..., n, 3) keys with (..., n) integer coefficients and g holds
    (..., m, 3) keys with (..., m) coefficients.  Returns the (..., 2nm, 3)
    keys and (..., 2nm) coefficients of the bracket's signed terms, in the
    order of a loop over the pairs of terms: for each pair, +f_i g_j at
    f_i g_j, then -f_i g_j at g_j f_i.  Summing the coefficients per key
    gives the terms of the bracket.
    """
    left, right = np.asarray(f)[..., :, None, :], np.asarray(g)[..., None, :, :]
    keys = np.stack([pd_compose_array(left, right, d), pd_compose_array(right, left, d)], axis=-2)
    coeffs = np.asarray(f_coeffs)[..., :, None, None] * np.asarray(g_coeffs)[..., None, :, None]
    coeffs = np.broadcast_to(coeffs * np.array([1, -1]), keys.shape[:-1])
    batch = keys.shape[:-4]
    return keys.reshape(*batch, -1, 3), coeffs.reshape(*batch, -1)


def class_count_minus_order_factor(d: int) -> int:
    """(d-1)^2 (d+1), the order of the group minus the prime-case class count."""
    return (d - 1) ** 2 * (d + 1)
