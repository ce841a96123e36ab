import math
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finiteweyl.group as group_mod
from finiteweyl.group import (
    FormalCombination,
    PdElement,
    _element_order,
    _is_abelian,
    _is_closed,
    _is_normal,
    bracket_matches_monomial_commutator,
    class_count_minus_order_factor,
    irrep_character_norm,
    pd_centralizer_size,
    pd_centralizer_sizes,
    pd_character,
    pd_character_exponents,
    pd_compose_array,
    pd_compose_key,
    pd_conjugacy_classes,
    pd_conjugate,
    pd_element_array,
    pd_element_orders,
    pd_elements,
    pd_identity,
    pd_inverse_array,
    pd_irrep,
    pd_irrep_array,
    pd_irrep_counts,
    pd_irrep_trace_exponents,
    pd_is_ambivalent,
    pd_lie_bracket,
    pd_lie_bracket_combinations,
    pd_lie_bracket_terms,
    pd_named_subgroups,
    pd_quotient_is_double_cyclic,
)
from finiteweyl.operators import MonomialOperator, monomial_mul, monomial_mul_array
from finiteweyl.phases import PhaseExponent

SMALL_D = range(2, 7)


def brute_force_classes(d: int) -> list[list[tuple[int, int, int]]]:
    """Independent oracle: conjugate by every group element explicitly.

    Each class is sorted, and the classes come in order of their smallest
    element.
    """
    remaining = {g.key() for g in pd_elements(d)}
    classes = []
    elems = pd_elements(d)
    while remaining:
        seed_key = min(remaining)
        seed = PdElement(*seed_key, d)
        orbit = {pd_conjugate(h, seed).key() for h in elems}
        remaining -= orbit
        classes.append(sorted(orbit))
    return classes


def test_compose_law():
    assert PdElement(1, 2, 1, 3).compose(PdElement(0, 1, 2, 3)) == pd_identity(3)
    assert PdElement(1, 1, 1, 2).compose(PdElement(1, 1, 1, 2)) == PdElement(1, 0, 0, 2)


def test_euler_decomposition():
    for d in (2, 3, 5):
        for a, b, c in product(range(d), repeat=3):
            built = (
                PdElement(a, 0, 0, d)
                .compose(PdElement(0, b, 0, d))
                .compose(PdElement(0, 0, c, d))
            )
            assert built == PdElement(a, b, c, d)


def test_element_fields_are_integers():
    with pytest.raises(TypeError):
        PdElement(1.5, 0, 0, 3)
    for fields in [(0, 2.0, 0, 3), (0, 0, 1.0, 3), (0, 0, 0, 3.0), ("1", 0, 0, 3)]:
        with pytest.raises(TypeError):
            PdElement(*fields)
    g = PdElement(np.int64(4), np.int32(-1), np.uint8(2), np.int64(3))
    assert g == PdElement(1, 2, 2, 3)
    assert all(type(x) is int for x in (g.a, g.b, g.c, g.d))
    assert PdElement(True, False, True, 2).key() == (1, 0, 1)


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        PdElement(0, 0, 0, 2).compose(PdElement(0, 0, 0, 3))


def test_inverse():
    assert pd_identity(5).inverse() == pd_identity(5)
    assert PdElement(1, 2, 1, 3).inverse() == PdElement(0, 1, 2, 3)
    for g in pd_elements(2):
        assert g.compose(g.inverse()) == pd_identity(2)
        assert g.inverse().compose(g) == pd_identity(2)


def test_associativity_small_d_exhaustive():
    for d in (2, 3):
        elems = pd_elements(d)
        for g, h, k in product(elems, repeat=3):
            assert g.compose(h).compose(k) == g.compose(h.compose(k))


def test_associativity_random_larger_d():
    rng = random.Random(11)
    for d in (5, 8, 12):
        elems = pd_elements(d)
        for _ in range(3500):
            g, h, k = (rng.choice(elems) for _ in range(3))
            assert g.compose(h).compose(k) == g.compose(h.compose(k))


def test_class_report_small_dimensions():
    rep2 = pd_conjugacy_classes(2)
    assert rep2.class_count == 5
    assert rep2.singleton_count == 2
    assert rep2.size_histogram == {1: 2, 2: 3}

    rep3 = pd_conjugacy_classes(3)
    assert rep3.class_count == 11
    assert rep3.singleton_count == 3
    assert rep3.size_histogram == {1: 3, 3: 8}


def test_center_classes_are_singletons():
    for d in (2, 3, 4, 6):
        rep = pd_conjugacy_classes(d)
        for cls in rep.classes:
            if tuple(cls[0, 1:]) == (0, 0):
                assert len(cls) == 1
        assert rep.singleton_count == d


def test_classes_partition_group_and_match_centralizers():
    for d in range(2, 9):
        rep = pd_conjugacy_classes(d)
        seen = [tuple(row) for cls in rep.classes for row in cls.tolist()]
        assert len(seen) == d**3 and len(set(seen)) == d**3
        for cls in rep.classes:
            g = PdElement(*cls[0].tolist(), d)
            # orbit-stabilizer in verifiable form
            assert len(cls) * pd_centralizer_size(g) == d**3
            # class size is d / gcd(b, c, d)
            assert len(cls) == d // math.gcd(math.gcd(g.b, g.c), d)


def test_class_count_census_two_routes():
    # closed-form orbits against explicit conjugation by all d^3 elements
    for d in range(2, 7):
        rep = pd_conjugacy_classes(d)
        expected = brute_force_classes(d)
        assert rep.class_count == len(expected)
        # the same classes, each row-sorted, in the same order
        assert [[tuple(row) for row in cls.tolist()] for cls in rep.classes] == expected
        assert all(cls.dtype == np.int64 and cls.shape[1:] == (3,) for cls in rep.classes)


def test_class_count_census_arithmetic_oracle():
    # counting pairs (b, c) by gcd(b, c, d) = g gives sum over g | d of
    # g * #{(b, c) mod d/g coprime to d/g}, an independent closed form
    def coprime_pairs(n: int) -> int:
        return sum(
            1
            for b in range(n)
            for c in range(n)
            if math.gcd(math.gcd(b, c), n) == 1
        )

    for d in range(2, 13):
        expected = sum(g * coprime_pairs(d // g) for g in range(1, d + 1) if d % g == 0)
        assert pd_conjugacy_classes(d).class_count == expected


def test_class_count_formula_prime_only():
    # the d(d+1)-1 count is a prime-modulus statement; composite moduli
    # acquire extra short classes of size d / gcd(b, c, d)
    for d in (2, 3, 5, 7, 11):
        assert pd_conjugacy_classes(d).class_count == d * (d + 1) - 1
    assert pd_conjugacy_classes(4).class_count == 22
    assert pd_conjugacy_classes(6).class_count == 55


def test_conjugacy_cap():
    with pytest.raises(ValueError):
        pd_conjugacy_classes(17)
    assert pd_conjugacy_classes(17, cap=17).class_count == 17 * 18 - 1


def test_centralizer_sizes():
    assert pd_centralizer_size(pd_identity(3)) == 27
    assert pd_centralizer_size(PdElement(0, 1, 0, 3)) == 9
    assert pd_centralizer_size(PdElement(0, 2, 0, 4)) == 32
    for d in (2, 3, 4, 5, 6):
        for g in pd_elements(d):
            size = pd_centralizer_size(g)
            assert size % d**2 == 0
            assert (size == d**3) == ((g.b, g.c) == (0, 0))


def test_ambivalence():
    for d in range(2, 9):
        assert pd_is_ambivalent(pd_conjugacy_classes(d)) == (d == 2)


def test_named_subgroups_d3():
    table = {s.name: s for s in pd_named_subgroups(3)}
    center = table["center"]
    assert center.elements.tolist() == [[0, 0, 0], [1, 0, 0], [2, 0, 0]]
    assert center.is_normal and center.isomorphism == "cyclic-Z3"
    assert table["shift-axis"].is_normal is False
    assert table["clock-axis"].is_normal is False
    assert table["phase-shift-plane"].is_normal
    assert table["phase-shift-plane"].isomorphism == "Z3xZ3"
    diag = table["diagonal-plane"]
    assert diag.is_normal and len(diag.elements) == 9
    assert diag.isomorphism == "Z3xZ3"


def test_named_subgroups_d2():
    table = {s.name: s for s in pd_named_subgroups(2)}
    plane = table["phase-shift-plane"]
    assert len(plane.elements) == 4 and plane.is_normal
    assert plane.isomorphism == "Z2xZ2"
    # (0,1,1) squares to the central element, so the diagonal plane is
    # cyclic of order 4 rather than a product
    assert table["diagonal-plane"].isomorphism == "generic-abelian"


def brute_force_is_normal(elements, d: int) -> bool:
    """Independent oracle: conjugate by every one of the d^3 elements."""
    keys = {h.key() for h in elements}
    return all(
        pd_conjugate(g, h).key() in keys for g in pd_elements(d) for h in elements
    )


def cyclic_subgroup(g: PdElement) -> tuple[PdElement, ...]:
    members = [pd_identity(g.d)]
    acc = g
    while acc != members[0]:
        members.append(acc)
        acc = acc.compose(g)
    return tuple(members)


def named_subsets(d: int) -> list[list[PdElement]]:
    return [[PdElement(*row, d) for row in s.elements.tolist()] for s in pd_named_subgroups(d)]


def test_generator_normality_matches_brute_force():
    for d in range(2, 9):
        named = named_subsets(d)
        cyclic = {frozenset(cyclic_subgroup(g)) for g in pd_elements(d)}
        verdicts = set()
        for members in named + [list(c) for c in cyclic]:
            expected = brute_force_is_normal(members, d)
            assert _is_normal(keys_of(members), d) == expected, (d, members)
            verdicts.add(expected)
        # both verdicts occur, so a shortcut that always agrees cannot pass
        assert verdicts == {True, False}


def test_census_and_named_subgroups_run_on_the_array_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scalar group law was called")

    monkeypatch.setattr(group_mod, "pd_conjugate", refuse)
    monkeypatch.setattr(PdElement, "compose", refuse)
    monkeypatch.setattr(PdElement, "__init__", refuse)
    subgroups = pd_named_subgroups(12)
    report = pd_conjugacy_classes(12)
    assert [s.is_normal for s in subgroups] == [True, False, False, True, True, True]
    assert report.class_count == 242 and not pd_is_ambivalent(report)


def test_quotient_by_center():
    for d in range(2, 8):
        assert pd_quotient_is_double_cyclic(d)


def test_irrep_counts():
    for d in (-1, 0, 1):
        with pytest.raises(ValueError, match="must be >= 2"):
            pd_irrep_counts(d)
    assert pd_irrep_counts(2) == (4, 1)
    assert pd_irrep_counts(3) == (9, 2)
    one_dim, d_dim = pd_irrep_counts(7)
    assert one_dim + d_dim * 49 == 343


def test_characters_are_homomorphisms():
    d = 2
    elems = pd_elements(d)
    for m, n in product(range(d), repeat=2):
        chi = pd_character(m, n, d)
        for g, h in product(elems, repeat=2):
            assert chi(g.compose(h)) == chi(g) * chi(h)
    assert pd_character(1, 0, 2)(PdElement(0, 1, 0, 2)).to_complex() == -1 + 0j
    trivial = pd_character(0, 0, 5)
    assert all(trivial(g).is_one for g in pd_elements(5))


def test_characters_separate_by_sampling():
    d = 4
    rng = random.Random(13)
    elems = pd_elements(d)
    for m, n in ((1, 0), (0, 3), (2, 1)):
        chi = pd_character(m, n, d)
        for _ in range(200):
            g, h = rng.choice(elems), rng.choice(elems)
            assert chi(g.compose(h)) == chi(g) * chi(h)


def test_irrep_is_homomorphism():
    for d in (2, 3, 4):
        elems = pd_elements(d)
        for k in range(1, d):
            rho = pd_irrep(k, d)
            for g, h in product(elems, repeat=2):
                assert monomial_mul(rho(g), rho(h)) == rho(g.compose(h))


def test_irrep_examples():
    rho2 = pd_irrep(2, 3)
    image = rho2(PdElement(1, 0, 1, 3))
    assert image == MonomialOperator(PhaseExponent.q_power(2, 3), 0, 2)
    rho1 = pd_irrep(1, 5)
    g = PdElement(2, 3, 4, 5)
    assert rho1(g) == MonomialOperator.w(5, 2, 3, 4)
    with pytest.raises(ValueError):
        pd_irrep(0, 3)
    with pytest.raises(ValueError):
        pd_irrep(5, 5)


def test_irrep_character_norms():
    assert irrep_character_norm(1, 2) == 1
    for d in (2, 3, 5, 7):
        for k in range(1, d):
            assert irrep_character_norm(k, d) == 1
    # composite moduli: the norm counts components, equal to gcd(k, d)
    for d in (4, 6, 8, 9):
        for k in range(1, d):
            assert irrep_character_norm(k, d) == Fraction(math.gcd(k, d))


def test_lie_bracket_values():
    g = PdElement(0, 1, 0, 2)
    h = PdElement(0, 0, 1, 2)
    bracket = pd_lie_bracket(g, h)
    assert bracket.terms == {(0, 1, 1): 1, (1, 1, 1): -1}
    assert pd_lie_bracket(g, g).is_zero
    for d in (2, 3, 5):
        for a in range(d):
            central = PdElement(a, 0, 0, d)
            for other in pd_elements(d)[:: max(1, d)]:
                assert pd_lie_bracket(central, other).is_zero


def test_lie_bracket_antisymmetry_and_vanishing():
    rng = random.Random(19)
    for d in (2, 3, 4, 5):
        elems = pd_elements(d)
        for _ in range(300):
            g, h = rng.choice(elems), rng.choice(elems)
            assert pd_lie_bracket(g, h) == pd_lie_bracket(h, g).scale(-1)
            vanish = (g.c * h.b - g.b * h.c) % d == 0
            assert pd_lie_bracket(g, h).is_zero == vanish


def test_lie_bracket_jacobi():
    rng = random.Random(23)
    for d in (2, 3, 5, 7):
        elems = pd_elements(d)
        for _ in range(250):
            g, h, k = (rng.choice(elems) for _ in range(3))
            total = (
                pd_lie_bracket_combinations(
                    pd_lie_bracket(g, h), FormalCombination.single(k)
                )
                + pd_lie_bracket_combinations(
                    pd_lie_bracket(h, k), FormalCombination.single(g)
                )
                + pd_lie_bracket_combinations(
                    pd_lie_bracket(k, g), FormalCombination.single(h)
                )
            )
            assert total.is_zero


def test_bracket_matches_monomial_commutator():
    for d in (2, 3, 4):
        elems = pd_elements(d)
        for g, h in product(elems, repeat=2):
            assert bracket_matches_monomial_commutator(g, h)
    rng = random.Random(29)
    for d in (5, 6, 7, 8):
        elems = pd_elements(d)
        for _ in range(800):
            assert bracket_matches_monomial_commutator(rng.choice(elems), rng.choice(elems))


def test_order_minus_class_count_divisibility():
    for d in range(2, 34):
        value = class_count_minus_order_factor(d)
        assert value == d**3 - (d * (d + 1) - 1)
        if d % 2 == 0:
            assert value % 2 == 1
        elif d % 4 == 3:
            assert value % 16 == 0
        else:
            assert value % 32 == 0


# ---------------------------------------------------------------------------
# Array forms against the scalar forms they mirror
# ---------------------------------------------------------------------------


def keys_of(elements) -> np.ndarray:
    return np.array([g.key() for g in elements], dtype=np.int64).reshape(-1, 3)


def w_of(g: PdElement) -> MonomialOperator:
    return MonomialOperator.w(g.d, g.a, g.b, g.c)


@st.composite
def elements_mod_d(draw, count: int):
    """d in 2..16 and `count` elements of P_d."""
    d = draw(st.integers(2, 16))
    coords = st.tuples(*[st.integers(0, d - 1)] * 3)
    return d, [PdElement(*draw(coords), d) for _ in range(count)]


def test_element_array_is_pd_elements_order():
    for d in SMALL_D:
        array = pd_element_array(d)
        assert array.dtype == np.int64
        assert np.array_equal(array, keys_of(pd_elements(d)))
    with pytest.raises(ValueError, match="must be >= 2"):
        pd_element_array(1)


def test_array_group_law_matches_compose_exhaustively():
    for d in SMALL_D:
        elems = pd_elements(d)
        array = keys_of(elems)
        products = pd_compose_array(array[:, None, :], array[None, :, :], d)
        expected = np.array([[g.compose(h).key() for h in elems] for g in elems])
        assert np.array_equal(products, expected)
        assert np.array_equal(pd_inverse_array(array, d), keys_of(g.inverse() for g in elems))


@given(elements_mod_d(2), st.lists(st.integers(-40, 40), min_size=6, max_size=6))
def test_array_group_law_matches_compose_on_samples(case, shifts):
    # unreduced inputs: the array law reduces mod d exactly as PdElement does
    d, (g, h) = case
    raw_g = np.array(g.key()) + d * np.array(shifts[:3])
    raw_h = np.array(h.key()) + d * np.array(shifts[3:])
    assert tuple(pd_compose_array(raw_g, raw_h, d)) == g.compose(h).key()
    assert tuple(pd_inverse_array(raw_g, d)) == g.inverse().key()


def test_character_and_trace_exponents_match_scalar_forms_exhaustively():
    for d in SMALL_D:
        elems = pd_elements(d)
        array = keys_of(elems)
        for m, n in product(range(d), repeat=2):
            chi = pd_character(m, n, d)
            expected = [chi(g).t for g in elems]
            assert pd_character_exponents(m, n, array, d).tolist() == expected
        for k in range(1, d):
            exponents, scalar = pd_irrep_trace_exponents(k, array, d)
            traces = [pd_irrep(k, d)(g).trace_exact() for g in elems]
            assert scalar.tolist() == [t is not None for t in traces]
            assert exponents[scalar].tolist() == [t.t for t in traces if t is not None]
        with pytest.raises(ValueError, match="k must lie"):
            pd_irrep_trace_exponents(d, array, d)


@given(elements_mod_d(1), st.integers(0, 40), st.integers(0, 40), st.integers(1, 15))
def test_character_and_trace_exponents_match_scalar_forms_on_samples(case, m, n, k):
    d, (g,) = case
    k = 1 + k % (d - 1)
    assert pd_character_exponents(m, n, np.array(g.key()), d) == pd_character(m, n, d)(g).t
    exponent, scalar = pd_irrep_trace_exponents(k, np.array(g.key()), d)
    trace = pd_irrep(k, d)(g).trace_exact()
    assert bool(scalar) == (trace is not None)
    if trace is not None:
        assert exponent == trace.t


def monomial_row(u: MonomialOperator) -> tuple[int, int, int]:
    return (u.phase.t, u.shift, u.clock)


def twin_samples(d: int) -> list[PdElement]:
    """Every element for d <= 4, else 300 fixed draws."""
    elems = pd_elements(d)
    if d <= 4:
        return elems
    rng = random.Random(47)
    return [rng.choice(elems) for _ in range(300)]


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_irrep_array_matches_pd_irrep(d):
    elems = twin_samples(d)
    array = keys_of(elems)
    for k in range(1, d):
        rows = pd_irrep_array(k, array, d)
        assert rows.dtype == np.int64
        assert rows.tolist() == [list(monomial_row(pd_irrep(k, d)(g))) for g in elems]
        # unreduced keys give the same rows
        assert np.array_equal(pd_irrep_array(k, array - 5 * d, d), rows)
    with pytest.raises(ValueError, match="k must lie"):
        pd_irrep_array(d, array, d)


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_irrep_array_is_a_homomorphism_under_the_array_laws(d):
    elems = twin_samples(d)
    g, h = keys_of(elems)[:, None, :], keys_of(elems[:10])[None, :, :]
    for k in range(1, d):
        rho_g, rho_h, rho_gh = (pd_irrep_array(k, x, d) for x in (g, h, pd_compose_array(g, h, d)))
        assert np.array_equal(monomial_mul_array(rho_g, rho_h, d), rho_gh)


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_element_orders_match_element_order(d):
    elems = twin_samples(d)
    orders = pd_element_orders(keys_of(elems), d)
    assert orders.dtype == np.int64
    assert orders.tolist() == [_element_order(g) for g in elems]


def merged_terms(keys: np.ndarray, coeffs: np.ndarray) -> dict:
    """The signed terms summed per key, zero sums dropped, as FormalCombination keeps them."""
    terms: dict = {}
    for key, coeff in zip(map(tuple, keys.tolist()), coeffs.tolist()):
        terms[key] = terms.get(key, 0) + coeff
    return {key: coeff for key, coeff in terms.items() if coeff}


def single_terms(g: PdElement) -> tuple[np.ndarray, np.ndarray]:
    return np.array([g.key()]), np.ones(1, dtype=np.int64)


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_bracket_terms_match_pd_lie_bracket(d):
    elems = twin_samples(d)
    pairs = list(product(elems, repeat=2)) if d <= 4 else list(zip(elems, elems[::-1]))
    g = keys_of(g for g, _ in pairs)[:, None, :]
    h = keys_of(h for _, h in pairs)[:, None, :]
    one = np.ones(1, dtype=np.int64)
    keys, coeffs = pd_lie_bracket_terms(g, one, h, one, d)
    assert keys.shape == (len(pairs), 2, 3) and coeffs.shape == (len(pairs), 2)
    # +gh then -hg, in the order of the scalar loop
    assert np.array_equal(keys[:, 0], pd_compose_array(g[:, 0], h[:, 0], d))
    assert np.array_equal(keys[:, 1], pd_compose_array(h[:, 0], g[:, 0], d))
    assert (coeffs == [1, -1]).all()
    for (x, y), k, c in zip(pairs, keys, coeffs):
        assert merged_terms(k, c) == pd_lie_bracket(x, y).terms


@pytest.mark.parametrize("d", [2, 3, 4, 12])
def test_nested_bracket_terms_match_pd_lie_bracket_combinations(d):
    elems = twin_samples(d)
    if d == 2:
        triples = list(product(elems, repeat=3))
    else:
        rng = random.Random(53)
        triples = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(500)]
    for g, h, k in triples:
        inner = pd_lie_bracket_terms(*single_terms(g), *single_terms(h), d)
        keys, coeffs = pd_lie_bracket_terms(*inner, *single_terms(k), d)
        expected = pd_lie_bracket_combinations(
            pd_lie_bracket(g, h), FormalCombination.single(k)
        )
        assert keys.shape == (4, 3)
        assert merged_terms(keys, coeffs) == expected.terms


def test_centralizer_sizes_match_brute_force_count():
    for d in SMALL_D:
        elems = pd_elements(d)
        expected = [pd_centralizer_size(g) for g in elems]
        assert pd_centralizer_sizes(keys_of(elems), d).tolist() == expected


@given(elements_mod_d(1))
def test_centralizer_sizes_match_brute_force_count_on_samples(case):
    d, (g,) = case
    assert pd_centralizer_sizes(np.array(g.key()), d) == pd_centralizer_size(g)


def brute_force_is_closed(elements) -> bool:
    keys = {g.key() for g in elements}
    return all(g.compose(h).key() in keys for g in elements for h in elements) and all(
        g.inverse().key() in keys for g in elements
    )


def test_closure_and_commutativity_match_brute_force():
    for d in range(2, 6):
        named = named_subsets(d)
        cyclic = [list(cyclic_subgroup(g)) for g in pd_elements(d)]
        # a subset missing one element, or with one extra, is rarely closed
        broken = [members[:-1] for members in named + cyclic if len(members) > 1]
        broken += [members + [PdElement(0, 1, 1, d)] for members in named]
        verdicts = set()
        for members in named + cyclic + broken:
            expected = brute_force_is_closed(members)
            assert _is_closed(keys_of(members), d) == expected, (d, members)
            assert _is_abelian(keys_of(members), d) == all(
                g.commutes_with(h) for g in members for h in members
            )
            verdicts.add(expected)
        assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The group law as a property
# ---------------------------------------------------------------------------


@given(elements_mod_d(3))
def test_group_law_properties(case):
    d, (g, h, k) = case
    identity = pd_identity(d)
    assert g.compose(h).compose(k) == g.compose(h.compose(k))
    assert identity.compose(g) == g == g.compose(identity)
    assert g.compose(g.inverse()) == identity == g.inverse().compose(g)
    # the monomial realisation w(a, b, c) = q^a X^b Z^c is a homomorphism
    assert monomial_mul(w_of(g), w_of(h)) == w_of(g.compose(h))


@given(elements_mod_d(1), st.integers(-3, 3))
def test_pd_element_value_semantics(case, shift):
    d, (g,) = case
    a, b, c = g.key()
    assert all(0 <= x < d for x in (a, b, c))
    assert repr(g) == f"PdElement(a={a}, b={b}, c={c}, d={d})"
    same = PdElement(a=a + shift * d, b=b + d, c=c - 2 * d, d=d)
    assert same == g and hash(same) == hash(g) == hash((a, b, c, d))
    assert g != PdElement(a + 1, b, c, d) and g != PdElement(a, b, c, d + 1)
    with pytest.raises(FrozenInstanceError):
        g.a = 0
    with pytest.raises(FrozenInstanceError):
        del g.a
    assert not hasattr(g, "__dict__")


# ---------------------------------------------------------------------------
# The bracket against its single/scale/add form
# ---------------------------------------------------------------------------


def bracket_by_single_scale_add(g: PdElement, h: PdElement) -> FormalCombination:
    """gh - hg built from one-term combinations, as the bracket once was."""
    return FormalCombination.single(g.compose(h)) - FormalCombination.single(h.compose(g))


def bracket_combinations_by_single_scale_add(
    f: FormalCombination, g: FormalCombination
) -> FormalCombination:
    out = FormalCombination.zero(f.d)
    for key1, coeff1 in f.terms.items():
        for key2, coeff2 in g.terms.items():
            bracket = bracket_by_single_scale_add(PdElement(*key1, f.d), PdElement(*key2, g.d))
            out = out + bracket.scale(coeff1 * coeff2)
    return out


@st.composite
def combinations_mod_d(draw):
    """d in 2..16 and two combinations whose keys need not be reduced."""
    d = draw(st.integers(2, 16))
    keys = st.tuples(*[st.integers(-2 * d, 2 * d)] * 3)
    terms = st.dictionaries(keys, st.integers(-3, 3), max_size=5)
    return d, FormalCombination(draw(terms), d), FormalCombination(draw(terms), d)


@given(elements_mod_d(2))
def test_bracket_is_the_single_scale_add_form(case):
    d, (g, h) = case
    assert pd_compose_key(g.key(), h.key(), d) == tuple(pd_compose_array(g.key(), h.key(), d))
    assert pd_lie_bracket(g, h) == bracket_by_single_scale_add(g, h)


@given(combinations_mod_d())
def test_bracket_combinations_are_the_single_scale_add_form(case):
    _, f, g = case
    assert pd_lie_bracket_combinations(f, g) == bracket_combinations_by_single_scale_add(f, g)


def test_bracket_combinations_reject_mixed_moduli():
    f = FormalCombination.single(PdElement(0, 1, 0, 3))
    g = FormalCombination.single(PdElement(0, 0, 1, 4))
    with pytest.raises(ValueError, match="modulus mismatch"):
        pd_lie_bracket_combinations(f, g)


@given(combinations_mod_d())
def test_bracket_terms_match_combinations_on_samples(case):
    d, f, g = case

    def as_terms(combination):
        keys = np.array(list(combination.terms), dtype=np.int64).reshape(-1, 3)
        return keys, np.array(list(combination.terms.values()), dtype=np.int64)

    keys, coeffs = pd_lie_bracket_terms(*as_terms(f), *as_terms(g), d)
    assert keys.shape == (2 * len(f.terms) * len(g.terms), 3)
    assert merged_terms(keys, coeffs) == pd_lie_bracket_combinations(f, g).terms
