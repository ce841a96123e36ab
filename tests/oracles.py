"""Scalar forms of the laws that `finiteweyl` evaluates on int64 arrays.

The library ships one implementation of each law: the array kernels of
`operators`, `group`, `basis` and `mub`, which its single-element API
(`monomial_mul`, `PdElement.compose`, `pd_centralizer_size`, ...) reads
too.  The scalar forms below are references the tests pin those kernels
to, one element, label or pair at a time:

- P_d: the group law on (a, b, c) keys (`pd_compose_key`), its elements
  in (a, b, c) order, element orders, centralizer orders counted over
  Z_d^2, the linear characters q^(mb + nc), the monomial representations
  rho_k and the bracket gh - hg on the group algebra (`FormalCombination`);
- u(d): the commutation test ab' - ba' = 0 (mod d) of two labels and of
  two tensor labels (the sum of (a_k b'_k - b_k a'_k)/d_k integral, in
  `Fraction`s), the exponents of the two coefficients q^(-ba') and
  q^(-ab') of their (anti)commutator, the same exponents and the target
  label for every pair at once in closed form (the table
  `basis.commutator_table` reads off the product kernel), and the
  factors u_(a_k b_k) of a tensor label;
- the literal residual of F = (H_0 S)^dagger, acceptance criterion 05,
  which fails by design;
- the float rechecks in the form that makes every dense matrix and
  product on its own: the structure constants against dense commutators,
  two GEMMs per row of label pairs, and the weyl suite's monomial products
  and unitarity, one `to_matrix` per monomial.  The suites' checks make
  each product once and stack the monomials, and must return the same
  float.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from itertools import product

import numpy as np

from finiteweyl.basis import commutator_table, pauli_indices, pauli_stack, u_ab
from finiteweyl.group import PdElement, PdKey
from finiteweyl.mub import hadamard_h_a, s_permutation
from finiteweyl.operators import (
    MonomialOperator,
    fourier_matrix,
    monomial_mul,
    residual_norm,
    unitary_defect,
)
from finiteweyl.phases import PhaseExponent

PauliIndex = tuple[int, int]


# ---------------------------------------------------------------------------
# P_d
# ---------------------------------------------------------------------------


def pd_compose_key(g: PdKey, h: PdKey, d: int) -> PdKey:
    """The group law (a + a' - cb', b + b', c + c') on (a, b, c) keys, reduced mod d."""
    a, b, c = g
    a2, b2, c2 = h
    return ((a + a2 - c * b2) % d, (b + b2) % d, (c + c2) % d)


def pd_identity(d: int) -> PdElement:
    return PdElement(0, 0, 0, d)


def pd_elements(d: int) -> list[PdElement]:
    return [PdElement(a, b, c, d) for a, b, c in product(range(d), repeat=3)]


def element_order(g: PdElement) -> int:
    acc = g.key()
    order = 1
    while acc != (0, 0, 0):
        acc = pd_compose_key(acc, g.key(), g.d)
        order += 1
    return order


def centralizer_size(g: PdElement) -> int:
    """Number of elements commuting with g, counted over Z_d^2.

    Commutation depends only on (b', c'), so each solution of
    c b' - b c' = 0 (mod d) accounts for d choices of a'.
    """
    d = g.d
    pairs = sum(1 for b2, c2 in product(range(d), repeat=2) if (g.c * b2 - g.b * c2) % d == 0)
    return d * pairs


def pd_character(m: int, n: int, d: int) -> Callable[[PdElement], PhaseExponent]:
    """The linear character (a, b, c) -> q^(mb + nc)."""

    def chi(g: PdElement) -> PhaseExponent:
        return PhaseExponent.q_power(m * g.b + n * g.c, d)

    return chi


def pd_irrep(k: int, d: int) -> Callable[[PdElement], MonomialOperator]:
    """The monomial representation rho_k(a, b, c) = q^(ka) X^b Z^(kc)."""
    if not 1 <= k <= d - 1:
        raise ValueError(f"k must lie in 1..{d - 1}, got {k}")

    def rho(g: PdElement) -> MonomialOperator:
        return MonomialOperator(PhaseExponent.q_power(k * g.a, d), g.b, k * g.c)

    return rho


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


# ---------------------------------------------------------------------------
# u(d)
# ---------------------------------------------------------------------------


def indices_commute(d: int, ab: PauliIndex, ab2: PauliIndex) -> bool:
    (a, b), (a2, b2) = ab, ab2
    return (a * b2 - b * a2) % d == 0


def tensor_labels_commute(dims: tuple[int, ...], u: tuple, v: tuple) -> bool:
    """Whether the sum of (a_k b'_k - b_k a'_k)/d_k over the factors is an integer."""
    total = sum(
        Fraction(u[2 * k] * v[2 * k + 1] - u[2 * k + 1] * v[2 * k], p) for k, p in enumerate(dims)
    )
    return total.denominator == 1


def commutator_coefficient_exponents(
    d: int, ab: PauliIndex, ab2: PauliIndex
) -> tuple[PhaseExponent, PhaseExponent]:
    """The pair (q^(-ba'), q^(-ab')) entering the (anti)commutator."""
    (a, b), (a2, b2) = ab, ab2
    return PhaseExponent.q_power(-b * a2, d), PhaseExponent.q_power(-a * b2, d)


def commutator_table_closed_form(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(-2ba', -2ab') mod 2d and the index of (a + a', b + b') mod d, label (a, b) at a*d + b."""
    a, b = np.divmod(np.arange(d * d, dtype=np.int64), d)
    return (
        (-2 * np.outer(b, a)) % (2 * d),
        (-2 * np.outer(a, b)) % (2 * d),
        ((a[:, None] + a) % d) * d + (b[:, None] + b) % d,
    )


def tensor_factors(dims: tuple[int, ...], label: tuple) -> tuple[MonomialOperator, ...]:
    """The factors u_(a_k b_k) of label (a1, b1, ..., ae, be), digits reduced mod d_k."""
    return tuple(u_ab(p, label[2 * k] % p, label[2 * k + 1] % p) for k, p in enumerate(dims))


# ---------------------------------------------------------------------------
# MUBs
# ---------------------------------------------------------------------------


def fourier_hadamard_residual(d: int) -> float:
    """Literal residual of the factorization F = (H_0 S)^dagger."""
    h0 = hadamard_h_a(d, 0).to_matrix()
    candidate = (h0 @ s_permutation(d)).conj().T
    return residual_norm([fourier_matrix(d) - candidate])


# ---------------------------------------------------------------------------
# Float rechecks
# ---------------------------------------------------------------------------


def structure_closure_per_row(d: int) -> float:
    """`structure_constants_close_dense_commutators` with both products in every row.

    Row i forms u_i u_j and u_j u_i for every j, so each product is made
    twice, once in row i and once in row j, and compares the commutator
    with the table's coefficient times u_target.
    """
    table = commutator_table(d)
    mats = pauli_stack((d,), pauli_indices(d, include_identity=True))
    defect, work = np.empty_like(mats), np.empty_like(mats)
    maxima = []
    for i, left in enumerate(mats):
        np.matmul(left, mats, out=defect)
        defect -= np.matmul(mats, left, out=work)
        expected = np.take(mats, table.target[i], axis=0, out=work, mode="clip")
        defect -= np.multiply(table.coefficients(i)[:, None, None], expected, out=expected)
        maxima.append(np.max(np.abs(defect, out=work.real)))
    return residual_norm(maxima)


def monomial_checks_per_pair(d: int) -> tuple[float, float]:
    """`monomial_product_matches_dense` and `monomials_unitary`, one `to_matrix` per monomial.

    The draws are the weyl suite's: seed 23, 300 pairs (u, v), then 100
    monomials, each drawn as (t, shift, clock).
    """
    rng = random.Random(23)

    def random_monomial() -> MonomialOperator:
        return MonomialOperator.from_tau_exponent(
            d, rng.randrange(2 * d), rng.randrange(d), rng.randrange(d)
        )

    pairs = [(random_monomial(), random_monomial()) for _ in range(300)]
    products = residual_norm(
        u.to_matrix() @ v.to_matrix() - monomial_mul(u, v).to_matrix() for u, v in pairs
    )
    unitary = residual_norm(unitary_defect(random_monomial().to_matrix()) for _ in range(100))
    return products, unitary
