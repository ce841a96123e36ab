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
and (0,0,1) only, at a cost of at most 3|H| conjugations.

The scalar forms share one law on (a, b, c) keys, `pd_compose_key`:
`PdElement.compose` calls it, and the bracket accumulates its products
straight into one dict of terms.

Array forms sit next to the scalar forms they mirror and take int arrays
whose last axis holds (a, b, c): `pd_element_array` (the elements in
`pd_elements` order), `pd_compose_array` and `pd_inverse_array` (the group
law), `pd_centralizer_sizes`, `pd_element_orders` (`_element_order`),
`pd_character_exponents` (tau exponents of `pd_character`), `pd_irrep_array`
(`pd_irrep` as (t, shift, clock) rows for `operators.monomial_mul_array`),
`pd_irrep_trace_exponents` (`rho_k(g).trace_exact()`) and
`pd_lie_bracket_terms` (the signed terms of `pd_lie_bracket_combinations`).
They evaluate the same integer formulas mod d or mod 2d, so they agree
exactly with the scalar forms; closure, commutativity, element orders, the
centre, the quotient law and the character norms are evaluated with them,
and so are the sampled group-law, representation and bracket checks of
`suites.suite_group`.  Normality stays on the scalar `pd_conjugate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable

import numpy as np

from .limits import DEFAULT_BRUTE_FORCE_CAP, check_brute_force, check_dimension
from .operators import MonomialOperator, monomial_mul
from .phases import PhaseExponent

PdKey = tuple[int, int, int]


def pd_compose_key(g: PdKey, h: PdKey, d: int) -> PdKey:
    """The group law on (a, b, c) keys, reduced mod d."""
    a, b, c = g
    a2, b2, c2 = h
    return ((a + a2 - c * b2) % d, (b + b2) % d, (c + c2) % d)


@dataclass(frozen=True, slots=True, init=False)
class PdElement:
    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if d < 2:
            raise ValueError(f"modulus must be >= 2, got {d}")
        object.__setattr__(self, "a", a % d)
        object.__setattr__(self, "b", b % d)
        object.__setattr__(self, "c", c % d)
        object.__setattr__(self, "d", d)

    def compose(self, other: "PdElement") -> "PdElement":
        if self.d != other.d:
            raise ValueError(f"modulus mismatch: {self.d} != {other.d}")
        return PdElement(*pd_compose_key(self.key(), other.key(), self.d), self.d)

    def inverse(self) -> "PdElement":
        return PdElement(-self.a - self.b * self.c, -self.b, -self.c, self.d)

    def commutes_with(self, other: "PdElement") -> bool:
        return (self.c * other.b - self.b * other.c) % self.d == 0

    def key(self) -> PdKey:
        return (self.a, self.b, self.c)


def pd_identity(d: int) -> PdElement:
    return PdElement(0, 0, 0, d)


def pd_conjugate(g: PdElement, h: PdElement) -> PdElement:
    """g h g^-1, via composition (the closed form only moves h.a)."""
    return g.compose(h).compose(g.inverse())


def pd_elements(d: int) -> list[PdElement]:
    return [PdElement(a, b, c, d) for a, b, c in product(range(d), repeat=3)]


def pd_element_array(d: int) -> np.ndarray:
    """The d^3 elements as a (d^3, 3) int64 array, in `pd_elements` order."""
    check_dimension(d)
    return np.indices((d, d, d), dtype=np.int64).reshape(3, -1).T


def pd_compose_array(g: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """`PdElement.compose` on (..., 3) int arrays, broadcast, reduced mod d."""
    g, h = np.asarray(g, dtype=np.int64), np.asarray(h, dtype=np.int64)
    out = g + h
    out[..., 0] -= g[..., 2] * h[..., 1]
    out %= d
    return out


def pd_inverse_array(g: np.ndarray, d: int) -> np.ndarray:
    """`PdElement.inverse` on a (..., 3) int array, reduced mod d."""
    g = np.asarray(g, dtype=np.int64)
    out = -g
    out[..., 0] -= g[..., 1] * g[..., 2]
    out %= d
    return out


def _element_codes(g: np.ndarray, d: int) -> np.ndarray:
    """Index of each reduced (a, b, c) in `pd_elements` order."""
    return (g[..., 0] * d + g[..., 1]) * d + g[..., 2]


@dataclass
class ConjugacyClassReport:
    d: int
    classes: list[list[PdElement]]
    singleton_count: int
    size_d_count: int
    size_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.classes)


def pd_conjugacy_classes(d: int, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> ConjugacyClassReport:
    """Exact classes by orbit enumeration.

    The conjugate of (a, b, c) by (a', b', c') is (a + cb' - bc', b, c), so
    each orbit is swept by running (b', c') over Z_d^2.
    """
    check_brute_force(d, cap)
    classes: list[list[PdElement]] = []
    seen: set[PdKey] = set()
    for a, b, c in product(range(d), repeat=3):
        if (a, b, c) in seen:
            continue
        orbit = {
            ((a + c * b2 - b * c2) % d, b, c)
            for b2, c2 in product(range(d), repeat=2)
        }
        seen |= orbit
        classes.append([PdElement(*t, d) for t in sorted(orbit)])
    classes.sort(key=lambda cls: cls[0].key())
    histogram: dict[int, int] = {}
    for cls in classes:
        histogram[len(cls)] = histogram.get(len(cls), 0) + 1
    return ConjugacyClassReport(
        d=d,
        classes=classes,
        singleton_count=histogram.get(1, 0),
        size_d_count=histogram.get(d, 0),
        size_histogram=dict(sorted(histogram.items())),
    )


def pd_centralizer_size(g: PdElement) -> int:
    """Number of elements commuting with g, by brute-force count.

    Commutation depends only on (b', c'), so each solution of
    c b' - b c' = 0 (mod d) accounts for d choices of a'.
    """
    d = g.d
    pairs = sum(
        1
        for b2, c2 in product(range(d), repeat=2)
        if (g.c * b2 - g.b * c2) % d == 0
    )
    return d * pairs


def pd_centralizer_sizes(g: np.ndarray, d: int) -> np.ndarray:
    """`pd_centralizer_size` of each element of a (..., 3) int array.

    The same brute-force count, once per coset label (b, c): the number of
    (b', c') with c b' - b c' = 0 (mod d), times d.
    """
    g = np.asarray(g, dtype=np.int64) % d
    z = np.arange(d)
    b, c, b2, c2 = np.ix_(z, z, z, z)
    table = d * np.count_nonzero((c * b2 - b * c2) % d == 0, axis=(2, 3))
    return table[g[..., 1], g[..., 2]]


def pd_is_ambivalent(report: ConjugacyClassReport) -> bool:
    """Whether every conjugacy class of the census is closed under inversion."""
    for cls in report.classes:
        members = {g.key() for g in cls}
        if any(g.inverse().key() not in members for g in cls):
            return False
    return True


@dataclass(frozen=True)
class Subgroup:
    name: str
    elements: tuple[PdElement, ...]
    is_normal: bool
    isomorphism: str


def _as_array(elements: Iterable[PdElement]) -> tuple[np.ndarray, int]:
    elems = list(elements)
    return np.array([g.key() for g in elems], dtype=np.int64).reshape(-1, 3), elems[0].d


def _is_closed(elements: Iterable[PdElement]) -> bool:
    array, d = _as_array(elements)
    member = np.zeros(d**3, dtype=bool)
    member[_element_codes(array, d)] = True
    products = pd_compose_array(array[:, None, :], array[None, :, :], d)
    return bool(
        member[_element_codes(products, d)].all()
        and member[_element_codes(pd_inverse_array(array, d), d)].all()
    )


def _is_normal(elements: Iterable[PdElement], d: int) -> bool:
    # (gk) H (gk)^-1 = g (k H k^-1) g^-1, so the generators of P_d suffice.
    keys = {g.key() for g in elements}
    for g in (PdElement(1, 0, 0, d), PdElement(0, 1, 0, d), PdElement(0, 0, 1, d)):
        for h in elements:
            if pd_conjugate(g, h).key() not in keys:
                return False
    return True


def _is_abelian(elements: Iterable[PdElement]) -> bool:
    # PdElement.commutes_with on every pair: c b' - b c' = 0 (mod d)
    array, d = _as_array(elements)
    b, c = array[:, 1], array[:, 2]
    cross = np.outer(c, b)
    cross -= np.outer(b, c)
    cross %= d
    return not cross.any()


def _element_order(g: PdElement) -> int:
    acc = g
    order = 1
    ident = pd_identity(g.d).key()
    while acc.key() != ident:
        acc = acc.compose(g)
        order += 1
    return order


def pd_element_orders(g: np.ndarray, d: int) -> np.ndarray:
    """`_element_order` of each element of a (..., 3) int array.

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


def _isomorphism_tag(elements: list[PdElement], d: int) -> str:
    if not _is_abelian(elements):
        return "nonabelian"
    orders = pd_element_orders(_as_array(elements)[0], d)
    n = len(elements)
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
    """The six listed subgroups, with closure/normality verified."""
    check_brute_force(d, cap)
    rng = range(d)
    subsets: list[tuple[str, list[PdElement]]] = [
        ("center", [PdElement(a, 0, 0, d) for a in rng]),
        ("shift-axis", [PdElement(0, b, 0, d) for b in rng]),
        ("clock-axis", [PdElement(0, 0, c, d) for c in rng]),
        ("phase-shift-plane", [PdElement(a, b, 0, d) for a in rng for b in rng]),
        ("phase-clock-plane", [PdElement(a, 0, c, d) for a in rng for c in rng]),
        ("diagonal-plane", [PdElement(a, b, b, d) for a in rng for b in rng]),
    ]
    out = []
    for name, elements in subsets:
        if not _is_closed(elements):
            raise RuntimeError(f"subset {name} is not closed under the group law")
        out.append(
            Subgroup(
                name=name,
                elements=tuple(elements),
                is_normal=_is_normal(elements, d),
                isomorphism=_isomorphism_tag(elements, d),
            )
        )
    return out


def pd_center_is_center(d: int) -> bool:
    """The set {(a,0,0)} equals the centralizer of the whole group."""
    elements = pd_element_array(d)
    center = elements[pd_centralizer_sizes(elements, d) == d**3]
    return bool(np.array_equal(center, [(a, 0, 0) for a in range(d)]))


def pd_quotient_is_double_cyclic(d: int) -> bool:
    """P_d / Z(P_d) has the componentwise law on coset labels (b, c)."""
    b2, c2 = np.divmod(np.arange(d * d, dtype=np.int64), d)
    cosets = np.stack([np.zeros_like(b2), b2, c2], axis=-1)
    for b, c in product(range(d), repeat=2):
        products = pd_compose_array((0, b, c), cosets, d)
        if not (
            np.array_equal(products[:, 1], (b + b2) % d)
            and np.array_equal(products[:, 2], (c + c2) % d)
        ):
            return False
    return True


def pd_irrep_counts(d: int) -> tuple[int, int]:
    """Claimed irreducible-representation census (d^2 linear, d-1 of dim d).

    The squared-dimension identity d^2 * 1 + (d-1) * d^2 = d^3 always holds
    arithmetically; the census itself is verified elsewhere only for prime
    d (rho_k is irreducible exactly when gcd(k, d) = 1).
    """
    check_dimension(d)
    one_dim, d_dim = d * d, d - 1
    if one_dim + d_dim * d * d != d**3:
        raise RuntimeError("squared-dimension identity failed")
    return one_dim, d_dim


def pd_character(m: int, n: int, d: int) -> Callable[[PdElement], PhaseExponent]:
    """The linear character (a, b, c) -> q^(mb + nc)."""

    def chi(g: PdElement) -> PhaseExponent:
        return PhaseExponent.q_power(m * g.b + n * g.c, d)

    return chi


def pd_character_exponents(m: int, n: int, g: np.ndarray, d: int) -> np.ndarray:
    """Tau exponents of `pd_character(m, n, d)` on a (..., 3) int array."""
    g = np.asarray(g, dtype=np.int64)
    return (2 * (m * g[..., 1] + n * g[..., 2])) % (2 * d)


def pd_irrep(k: int, d: int) -> Callable[[PdElement], MonomialOperator]:
    """The monomial representation rho_k(a, b, c) = q^(ka) X^b Z^(kc)."""
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in 1..{d - 1}, got {k}")

    def rho(g: PdElement) -> MonomialOperator:
        return MonomialOperator(PhaseExponent.q_power(k * g.a, d), g.b, k * g.c)

    return rho


def pd_irrep_array(k: int, g: np.ndarray, d: int) -> np.ndarray:
    """`pd_irrep(k, d)(g)` for a (..., 3) int array, as (..., 3) monomial rows.

    Each row is (t, shift, clock) = (2ka mod 2d, b mod d, kc mod d), the
    tau exponent and powers of q^(ka) X^b Z^(kc), in the layout of
    `operators.monomial_mul_array`.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in 1..{d - 1}, got {k}")
    return np.asarray(g, dtype=np.int64) * (2 * k, 1, k) % (2 * d, d, d)


def pd_irrep_trace_exponents(k: int, g: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """`pd_irrep(k, d)(g).trace_exact()` for a (..., 3) int array.

    Returns (exponents, scalar): where `scalar` holds, rho_k(g) is the
    scalar d * tau^exponent and its trace is that; elsewhere it is traceless
    and the exponent is meaningless.
    """
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in 1..{d - 1}, got {k}")
    g = np.asarray(g, dtype=np.int64)
    scalar = (g[..., 1] % d == 0) & ((k * g[..., 2]) % d == 0)
    return (2 * k * g[..., 0]) % (2 * d), scalar


def irrep_character_norm(k: int, d: int) -> Fraction:
    """(1/d^3) * sum over the group of |Tr rho_k|^2, computed exactly.

    Equals 1 exactly when rho_k is irreducible; in general the value is
    gcd(k, d), the number of irreducible components counted with squared
    multiplicity.
    """
    _, scalar = pd_irrep_trace_exponents(k, pd_element_array(d), d)
    # |d * tau^t|^2 = d^2 for every scalar rho_k(g)
    return Fraction(d * d * int(np.count_nonzero(scalar)), d**3)


class FormalCombination:
    """Finitely supported integer combination of group elements."""

    def __init__(self, terms: dict[PdKey, int], d: int):
        self.d = d
        self.terms = {k: v for k, v in terms.items() if v != 0}

    @classmethod
    def zero(cls, d: int) -> "FormalCombination":
        return cls({}, d)

    @classmethod
    def single(cls, g: PdElement, coeff: int = 1) -> "FormalCombination":
        return cls({g.key(): coeff}, g.d)

    def __add__(self, other: "FormalCombination") -> "FormalCombination":
        if self.d != other.d:
            raise ValueError("modulus mismatch")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return FormalCombination(merged, self.d)

    def __sub__(self, other: "FormalCombination") -> "FormalCombination":
        return self + other.scale(-1)

    def scale(self, factor: int) -> "FormalCombination":
        return FormalCombination({k: factor * v for k, v in self.terms.items()}, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalCombination)
            and self.d == other.d
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{v}*{k}" for k, v in sorted(self.terms.items()))
        return f"FormalCombination({body or '0'}, d={self.d})"


def _add_bracket(terms: dict[PdKey, int], g: PdKey, h: PdKey, d: int, coeff: int) -> None:
    """Accumulate coeff * (gh - hg) into terms."""
    gh, hg = pd_compose_key(g, h, d), pd_compose_key(h, g, d)
    terms[gh] = terms.get(gh, 0) + coeff
    terms[hg] = terms.get(hg, 0) - coeff


def pd_lie_bracket(g: PdElement, h: PdElement) -> FormalCombination:
    """The bracket <g, h> = gh - hg in the group algebra."""
    if g.d != h.d:
        raise ValueError(f"modulus mismatch: {g.d} != {h.d}")
    terms: dict[PdKey, int] = {}
    _add_bracket(terms, g.key(), h.key(), g.d, 1)
    return FormalCombination(terms, g.d)


def pd_lie_bracket_combinations(
    f: FormalCombination, g: FormalCombination
) -> FormalCombination:
    """Bilinear extension of the bracket to formal combinations."""
    if f.d != g.d:
        raise ValueError(f"modulus mismatch: {f.d} != {g.d}")
    terms: dict[PdKey, int] = {}
    for key1, coeff1 in f.terms.items():
        for key2, coeff2 in g.terms.items():
            _add_bracket(terms, key1, key2, f.d, coeff1 * coeff2)
    return FormalCombination(terms, f.d)


def pd_lie_bracket_terms(
    f: np.ndarray, f_coeffs: np.ndarray, g: np.ndarray, g_coeffs: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """`pd_lie_bracket_combinations` on arrays of terms, left unmerged.

    f holds (..., n, 3) keys with (..., n) integer coefficients and g holds
    (..., m, 3) keys with (..., m) coefficients.  Returns the (..., 2nm, 3)
    keys and (..., 2nm) coefficients of the bracket's signed terms, in the
    order of the scalar loop: for each pair of terms, +f_i g_j at f_i g_j,
    then -f_i g_j at g_j f_i.  Summing the coefficients per key gives the
    terms of the scalar combination.
    """
    left, right = np.asarray(f)[..., :, None, :], np.asarray(g)[..., None, :, :]
    keys = np.stack([pd_compose_array(left, right, d), pd_compose_array(right, left, d)], axis=-2)
    coeffs = np.asarray(f_coeffs)[..., :, None, None] * np.asarray(g_coeffs)[..., None, :, None]
    coeffs = np.broadcast_to(coeffs * np.array([1, -1]), keys.shape[:-1])
    batch = keys.shape[:-4]
    return keys.reshape(*batch, -1, 3), coeffs.reshape(*batch, -1)


def bracket_matches_monomial_commutator(g: PdElement, h: PdElement) -> bool:
    """The group-algebra bracket maps to the matrix commutator of the w's.

    Both sides are computed in exact monomial arithmetic: the bracket's two
    group terms must be exactly the monomials w(gh) and w(hg).
    """
    d = g.d
    wg = MonomialOperator.w(d, g.a, g.b, g.c)
    wh = MonomialOperator.w(d, h.a, h.b, h.c)
    gh, hg = g.compose(h), h.compose(g)
    return (
        monomial_mul(wg, wh) == MonomialOperator.w(d, gh.a, gh.b, gh.c)
        and monomial_mul(wh, wg) == MonomialOperator.w(d, hg.a, hg.b, hg.c)
    )


def class_count_minus_order_factor(d: int) -> int:
    """(d-1)^2 (d+1), the order of the group minus the prime-case class count."""
    return (d - 1) ** 2 * (d + 1)
