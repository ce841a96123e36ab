import random
from itertools import product

import numpy as np

from conftest import max_abs
from finiteweyl.heisenberg import (
    HW_IDENTITY,
    HWElement,
    generator_matrices,
    hw_class_is_ambivalent,
    hw_commutator,
    hw_commutator_closed,
    hw_commutes,
    hw_conjugate,
    hw_conjugate_closed,
    hw_lie_check,
    hw_matrix,
    hw_matrix_law,
    hw_to_matrix_params,
    random_dyadic_elements,
    series_exponential,
)

GRID = [
    HWElement(x, y, z)
    for x, y, z in product([-1.0, -0.5, 0.0, 0.5, 1.0], repeat=3)
]


def test_identity_and_inverse():
    for g in GRID:
        assert HW_IDENTITY.compose(g) == g
        assert g.compose(HW_IDENTITY) == g
        assert g.compose(g.inverse()) == HW_IDENTITY
        assert g.inverse().compose(g) == HW_IDENTITY


def test_explicit_inverse_pair():
    g = HWElement(1.0, 2.0, 3.0)
    assert g.inverse() == HWElement(-7.0, -2.0, -3.0)
    assert g.compose(HWElement(-7.0, -2.0, -3.0)) == HW_IDENTITY


def test_commutator_closed_form():
    pairs = random_dyadic_elements(400, seed=1)
    for g, h in zip(pairs[:200], pairs[200:]):
        assert hw_commutator(g, h) == hw_commutator_closed(g, h)


def test_commutation_iff_cross_term():
    for g in GRID[::7]:
        for h in GRID[::11]:
            same = g.compose(h) == h.compose(g)
            assert same == hw_commutes(g, h)
            assert same == (g.z * h.y - g.y * h.z == 0.0)


def test_conjugation_matches_composition():
    # frozen from the composition oracle: conjugating (0,1,0) by (0,0,1)
    assert hw_conjugate(HWElement(0, 0, 1), HWElement(0, 1, 0)) == HWElement(-1.0, 1.0, 0.0)
    pairs = random_dyadic_elements(300, seed=2)
    for g, h in zip(pairs[:150], pairs[150:]):
        assert hw_conjugate(g, h) == hw_conjugate_closed(g, h)


def test_conjugation_fixes_commuting_pairs():
    g = HWElement(0.5, 1.0, -1.5)
    h = HWElement(-2.0, 1.0, -1.5)  # same (y, z) means they commute
    assert hw_conjugate(g, h) == h


def test_conjugation_by_identity():
    for g in GRID[::5]:
        assert hw_conjugate(HW_IDENTITY, g) == g


def test_associativity_exact():
    rng = random.Random(7)
    elems = random_dyadic_elements(120, seed=9)
    for _ in range(500):
        g, h, k = (elems[rng.randrange(len(elems))] for _ in range(3))
        assert g.compose(h).compose(k) == g.compose(h.compose(k))


def test_matrix_shape_and_identity():
    m = hw_matrix(HW_IDENTITY)
    assert np.array_equal(m, np.eye(3))
    g = HWElement(1.0, 2.0, 4.0)
    m = hw_matrix(g)
    assert np.array_equal(np.triu(m, 1), np.zeros((3, 3)))
    assert np.array_equal(np.diag(m), np.ones(3))
    assert m[1, 0] == -2.0 and m[2, 1] == 4.0 and m[2, 0] == -1.0 - 4.0


def test_matrix_composition_law():
    pairs = random_dyadic_elements(300, seed=4)
    for g, h in zip(pairs[:150], pairs[150:]):
        lhs = hw_matrix(g) @ hw_matrix(h)
        assert np.array_equal(lhs, hw_matrix(hw_matrix_law(g, h)))


def test_bijection_is_homomorphism():
    pairs = random_dyadic_elements(200, seed=5)
    for g, h in zip(pairs[:100], pairs[100:]):
        lhs = hw_matrix(hw_to_matrix_params(g)) @ hw_matrix(hw_to_matrix_params(h))
        rhs = hw_matrix(hw_to_matrix_params(g.compose(h)))
        assert np.array_equal(lhs, rhs)


def test_lie_brackets_exact():
    result = hw_lie_check()
    assert result["overall"]
    h3, q3, p3 = generator_matrices()
    assert np.array_equal(q3 @ p3 - p3 @ q3, 1j * h3)
    assert np.array_equal(p3 @ h3 - h3 @ p3, np.zeros((3, 3)))
    assert np.array_equal(h3 @ q3 - q3 @ h3, np.zeros((3, 3)))


def test_series_exponential_matches_closed_form():
    for g in random_dyadic_elements(60, seed=6):
        small = HWElement(g.x / 4, g.y / 4, g.z / 4)
        assert max_abs(series_exponential(small) - hw_matrix(small)) < 1e-10


def test_only_identity_class_ambivalent():
    assert hw_class_is_ambivalent(HW_IDENTITY)
    for g in GRID:
        if g != HW_IDENTITY:
            assert not hw_class_is_ambivalent(g)
