import cmath
import math
import random
from dataclasses import FrozenInstanceError
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import commutator, max_abs, mixed_dims, patch_kernel_mutant
import finiteweyl.operators as op_mod
from finiteweyl.operators import (
    MonomialOperator,
    fourier_matrix,
    h_matrix,
    jz_matrix,
    ladder_matrices,
    monomial_adjoint_array,
    monomial_matrix_array,
    monomial_mul,
    monomial_mul_array,
    monomial_trace_array,
    polar_su2_ops,
    residual_norm,
    t_operator,
    trace_gram,
    unitary_defect,
    v_ra_eigenvalue,
    v_ra_eigenvalue_exponents,
    v_ra_eigenvector,
    v_ra_matrix,
    weyl_pair,
)
from finiteweyl.phases import PhaseExponent, tau_powers


def random_monomial(rng: random.Random, d: int) -> MonomialOperator:
    return MonomialOperator.from_tau_exponent(
        d, rng.randrange(2 * d), rng.randrange(d), rng.randrange(d)
    )


# ---------------------------------------------------------------------------
# Exact monomial algebra
# ---------------------------------------------------------------------------


def test_weyl_pair_matrices_d2():
    x, z = weyl_pair(2)
    assert np.array_equal(x.to_matrix(), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(z.to_matrix(), np.array([[1, 0], [0, -1]], dtype=complex))
    y = monomial_mul(x, z)
    assert np.array_equal(y.to_matrix(), np.array([[0, -1], [1, 0]], dtype=complex))


def test_weyl_relation_exact_up_to_64():
    for d in range(2, 65):
        x, z = weyl_pair(d)
        q = MonomialOperator.w(d, 1, 0, 0)
        assert monomial_mul(x, z) == monomial_mul(q, monomial_mul(z, x))
        assert x**d == MonomialOperator.identity(d)
        assert z**d == MonomialOperator.identity(d)


def test_monomial_reordering_signs():
    x, z = weyl_pair(2)
    xz = monomial_mul(x, z)
    zx = monomial_mul(z, x)
    assert xz.phase.t == 0
    assert zx == MonomialOperator.from_tau_exponent(2, 2, 1, 1)
    assert max_abs(zx.to_matrix() + xz.to_matrix()) == 0.0


def test_monomial_mul_matches_group_law():
    rng = random.Random(31)
    for d in (2, 3, 5, 7):
        for _ in range(200):
            a, b, c = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            a2, b2, c2 = rng.randrange(d), rng.randrange(d), rng.randrange(d)
            got = monomial_mul(
                MonomialOperator.w(d, a, b, c), MonomialOperator.w(d, a2, b2, c2)
            )
            assert got == MonomialOperator.w(d, (a + a2 - c * b2) % d, b + b2, c + c2)


def monomial_row(u: MonomialOperator) -> tuple[int, int, int]:
    return (u.phase.t, u.shift, u.clock)


def monomial_rows(monomials) -> np.ndarray:
    return np.array(
        [(u.phase.t, u.shift, u.clock) for u in monomials], dtype=np.int64
    ).reshape(-1, 3)


def every_monomial(d: int) -> list[MonomialOperator]:
    return [
        MonomialOperator.from_tau_exponent(d, t, b, c)
        for t, b, c in product(range(2 * d), range(d), range(d))
    ]


def test_monomial_matrix_array_is_to_matrix():
    # every monomial at d = 2, 3 and 7, then samples at larger d
    rng = random.Random(61)
    for d, count in ((2, None), (3, None), (7, None), (12, 300), (16, 300), (97, 40)):
        if count is None:
            monomials = every_monomial(d)
        else:
            monomials = [random_monomial(rng, d) for _ in range(count)]
        expected = np.array([u.to_matrix() for u in monomials])
        got = monomial_matrix_array(monomial_rows(monomials), d)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_monomial_mul_array_matches_dense_products_exhaustively():
    for d in (2, 3, 4):
        rows = monomial_rows(every_monomial(d))
        mats = monomial_matrix_array(rows, d)
        products = monomial_mul_array(rows[:, None, :], rows[None, :, :], d)
        assert products.dtype == np.int64
        assert max_abs(monomial_matrix_array(products, d) - mats[:, None] @ mats[None]) < 1e-12


def test_monomial_mul_array_matches_dense_products_on_samples():
    rng = random.Random(43)
    d = 12
    pairs = [(random_monomial(rng, d), random_monomial(rng, d)) for _ in range(2000)]
    u, v = (monomial_rows(side) for side in zip(*pairs))
    expected = monomial_mul_array(u, v, d)
    dense = monomial_matrix_array(u, d) @ monomial_matrix_array(v, d)
    assert max_abs(monomial_matrix_array(expected, d) - dense) < 1e-12
    # unreduced rows reduce as PhaseExponent and MonomialOperator reduce them
    offsets = np.array([2 * d, d, d]) * np.random.default_rng(43).integers(-3, 4, u.shape)
    assert np.array_equal(monomial_mul_array(u + offsets, v - offsets, d), expected)
    assert expected.tolist() == [list(monomial_row(monomial_mul(x, y))) for x, y in pairs]


def test_identity_neutral():
    rng = random.Random(37)
    for d in (2, 5, 9):
        ident = MonomialOperator.identity(d)
        for _ in range(50):
            u = random_monomial(rng, d)
            assert monomial_mul(ident, u) == u
            assert monomial_mul(u, ident) == u


def test_monomial_mul_matches_dense():
    rng = random.Random(41)
    for d in range(2, 9):
        for _ in range(1000):
            u, v = random_monomial(rng, d), random_monomial(rng, d)
            dense = u.to_matrix() @ v.to_matrix()
            exact = monomial_mul(u, v).to_matrix()
            assert max_abs(dense - exact) < 1e-12


@st.composite
def monomial_pairs(draw):
    """d in 2..16 and two monomials tau^t X^b Z^c with unreduced t, b, c."""
    d = draw(st.integers(2, 16))
    coords = st.tuples(
        st.integers(-4 * d, 4 * d), st.integers(-2 * d, 2 * d), st.integers(-2 * d, 2 * d)
    )
    return [MonomialOperator.from_tau_exponent(d, *draw(coords)) for _ in range(2)]


@given(monomial_pairs())
def test_monomial_mul_matches_dense_product(pair):
    u, v = pair
    dense = u.to_matrix() @ v.to_matrix()
    exact = monomial_mul(u, v).to_matrix()
    assert max_abs(dense - exact) <= 1e-12
    quarter_turns = np.array([0, 1, 1j, -1, -1j])
    if u.d <= 4 and all(np.isin(m, quarter_turns).all() for m in (u.to_matrix(), v.to_matrix())):
        # each entry of the product is one product of quarter turns
        assert np.array_equal(dense, exact)


@given(monomial_pairs())
def test_monomial_value_semantics(pair):
    u, _ = pair
    d, t, b, c = u.d, u.phase.t, u.shift, u.clock
    assert 0 <= t < 2 * d and 0 <= b < d and 0 <= c < d
    assert repr(u) == (
        f"MonomialOperator(phase=PhaseExponent(t={t}, d={d}), shift={b}, clock={c})"
    )
    same = MonomialOperator(phase=PhaseExponent(t + 2 * d, d), shift=b - d, clock=c + 3 * d)
    assert same == u and hash(same) == hash(u) == hash((u.phase, b, c))
    assert u != MonomialOperator(u.phase, b + 1, c) and u != MonomialOperator(u.phase, b, c + 1)
    with pytest.raises(FrozenInstanceError):
        u.shift = 0
    with pytest.raises(FrozenInstanceError):
        del u.shift
    assert not hasattr(u, "__dict__")


@given(monomial_pairs())
def test_power_is_the_repeated_product(pair):
    u, _ = pair
    d = u.d
    power = MonomialOperator.identity(d)
    for n in range(3 * d + 1):
        assert u**n == power
        power = monomial_mul(power, u)
    power = MonomialOperator.identity(d)
    for n in range(1, 3 * d + 1):
        power = monomial_mul(power, u.adjoint())
        assert u ** (-n) == power


def to_matrix_by_lookup(u: MonomialOperator) -> np.ndarray:
    """One scatter of tau_powers(t + 2ck, d) into rows (k - b) mod d."""
    d = u.d
    k = np.arange(d)
    mat = np.zeros((d, d), dtype=complex)
    mat[(k - u.shift) % d, k] = tau_powers(u.phase.t + 2 * u.clock * k, d)
    return mat


def test_to_matrix_is_the_tau_powers_lookup_exhaustively():
    for d in range(2, 7):
        for t, b, c in product(range(2 * d), range(d), range(d)):
            u = MonomialOperator.from_tau_exponent(d, t, b, c)
            assert u.to_matrix().tobytes() == to_matrix_by_lookup(u).tobytes()


@st.composite
def monomials_up_to_64(draw):
    d = draw(st.integers(2, 64))
    t, b, c = draw(
        st.tuples(
            st.integers(-4 * d, 4 * d), st.integers(-2 * d, 2 * d), st.integers(-2 * d, 2 * d)
        )
    )
    return MonomialOperator.from_tau_exponent(d, t, b, c)


@given(monomials_up_to_64())
def test_to_matrix_is_the_tau_powers_lookup(u):
    assert u.to_matrix().tobytes() == to_matrix_by_lookup(u).tobytes()


def test_monomial_unitary():
    rng = random.Random(43)
    for d in (2, 3, 6, 11):
        for _ in range(100):
            u = random_monomial(rng, d)
            assert unitary_defect(u.to_matrix()) < 1e-12
            assert monomial_mul(u.adjoint(), u) == MonomialOperator.identity(d)


def test_monomial_dimension_mismatch():
    with pytest.raises(ValueError):
        monomial_mul(MonomialOperator.identity(2), MonomialOperator.identity(3))


def test_adjoint_and_trace_kernels_match_the_dense_forms_exhaustively():
    for d in range(2, 8):
        monomials = every_monomial(d)
        rows = monomial_rows(monomials)
        adjoints = monomial_adjoint_array(rows, d)
        exponents, scalar = monomial_trace_array(rows[:, None, :], d)
        assert adjoints.dtype == exponents.dtype == np.int64 and scalar.dtype == bool
        mats = monomial_matrix_array(rows, d)
        assert max_abs(monomial_matrix_array(adjoints, d) - mats.conj().swapaxes(-2, -1)) < 1e-12
        traces = np.where(scalar, d * tau_powers(exponents, d), 0)
        assert max_abs(traces - np.trace(mats, axis1=-2, axis2=-1)) < 1e-12
        # the single-element methods against the same dense forms
        for u, mat in zip(monomials, mats):
            assert max_abs(u.adjoint().to_matrix() - mat.conj().T) < 1e-12
            assert abs(u.trace() - np.trace(mat)) < 1e-12
        # unreduced rows reduce as PhaseExponent and MonomialOperator reduce them
        offsets = np.array([2 * d, d, d]) * np.random.default_rng(d).integers(-3, 4, rows.shape)
        assert np.array_equal(monomial_adjoint_array(rows + offsets, d), adjoints)
        shifted_exponents, shifted_scalar = monomial_trace_array((rows + offsets)[:, None], d)
        assert np.array_equal(shifted_scalar, scalar)
        assert np.array_equal(shifted_exponents, exponents)


def test_trace_kernel_sums_the_factors_of_a_tensor_row():
    # tau^1 I (x) tau^2 I is scalar with exponent 3; a shifted or clocked factor makes it traceless
    rows = np.array([[(1, 0, 0), (2, 0, 0)], [(1, 0, 0), (2, 1, 0)], [(1, 0, 1), (2, 0, 0)]])
    exponents, scalar = monomial_trace_array(rows, 3)
    assert scalar.tolist() == [True, False, False] and exponents[0] == 3
    # the exponents add mod 2d: tau^5 tau^4 = tau^3 at d = 3
    assert monomial_trace_array(np.array([[(5, 0, 0), (4, 3, 6)]]), 3)[0].tolist() == [3]


def test_trace_gram():
    x, z = weyl_pair(2)
    assert not trace_gram(monomial_rows([x, z])[:, None], 2)[1][0, 1]
    pair = [MonomialOperator.w(3, 0, 0, 0), MonomialOperator.w(3, 1, 0, 0)]
    exponents, scalar = trace_gram(monomial_rows(pair)[:, None], 3)
    # Tr(I^dagger q I) = 3 q = 3 tau^2
    assert scalar[0, 1] and exponents[0, 1] == 2
    rng = random.Random(47)
    for d in (2, 3, 4, 7):
        monomials = [random_monomial(rng, d) for _ in range(100)]
        exponents, scalar = trace_gram(monomial_rows(monomials)[:, None], d)
        assert exponents.shape == scalar.shape == (100, 100) and exponents.dtype == np.int64
        assert np.diagonal(scalar).all() and not np.diagonal(exponents).any()
    # full closed form on a small exhaustive grid
    for d in (2, 3):
        triples = list(product(range(d), repeat=3))
        rows = monomial_rows(MonomialOperator.w(d, *abc) for abc in triples)
        exponents, scalar = trace_gram(rows[:, None], d)
        for (i, (a, b, c)), (j, (a2, b2, c2)) in product(enumerate(triples), repeat=2):
            assert scalar[i, j] == ((b, c) == (b2, c2))
            if scalar[i, j]:
                assert exponents[i, j] == PhaseExponent.q_power(a2 - a, d).t


def test_trace_gram_entries_are_the_pairwise_traces():
    # entry [i, j] is Tr(u_i^dagger u_j), the product taken in that order
    rng = random.Random(53)
    for d in (2, 5, 6):
        monomials = [random_monomial(rng, d) for _ in range(12)]
        exponents, scalar = trace_gram(monomial_rows(monomials)[:, None], d)
        for (i, u), (j, v) in product(enumerate(monomials), repeat=2):
            trace = monomial_mul(u.adjoint(), v).trace_exact()
            assert scalar[i, j] == (trace is not None)
            assert trace is None or exponents[i, j] == trace.t
            entry = d * tau_powers(exponents[i, j], d) if scalar[i, j] else 0j
            dense = np.trace(u.to_matrix().conj().T @ v.to_matrix())
            assert abs(entry - dense) < 1e-10


def test_kernels_match_dense_over_mixed_dims():
    # a tensor row's dense matrix is the Kronecker product of its factors' matrices, so a
    # product or adjoint is the dense one when every factor is, and its trace is the product
    # of the factors' traces; the kernels are read through the module, so that a patched
    # kernel is the one tested
    rng = np.random.default_rng(59)
    for dims in mixed_dims(36):
        moduli = np.multiply.outer(dims, (2, 1, 1))
        u, v = rng.integers(0, moduli, (2, 500, len(dims), 3))
        # half the rows scalar, so that half the traces are not 0
        u[::2, :, 1:] = 0
        products = op_mod.monomial_mul_array(u, v, dims)
        adjoints = op_mod.monomial_adjoint_array(u, dims)
        for out in (products, adjoints):
            assert ((0 <= out) & (out < moduli)).all(), dims
        dense_traces = np.ones(len(u), dtype=complex)
        for k, d in enumerate(dims):
            mu, mv = monomial_matrix_array(u[:, k], d), monomial_matrix_array(v[:, k], d)
            assert max_abs(monomial_matrix_array(products[:, k], d) - mu @ mv) < 1e-12, dims
            adjoint = monomial_matrix_array(adjoints[:, k], d)
            assert max_abs(adjoint - mu.conj().swapaxes(-2, -1)) < 1e-12
            dense_traces *= np.trace(mu, axis1=-2, axis2=-1)
        # tau_L^exponent with L = lcm(dims): factor k's tau is tau_L^(L / d_k)
        exponents, scalar = op_mod.monomial_trace_array(u, dims)
        traces = np.where(scalar, math.prod(dims) * tau_powers(exponents, math.lcm(*dims)), 0)
        assert max_abs(traces - dense_traces) < 1e-12, dims
        # unreduced rows read as their reduced factors
        offsets = moduli * rng.integers(-3, 4, u.shape)
        assert np.array_equal(op_mod.monomial_mul_array(u + offsets, v - offsets, dims), products)


def test_equal_moduli_per_factor_read_as_one_int_modulus():
    rng = np.random.default_rng(61)
    for d, e in ((2, 3), (3, 2), (12, 1)):
        u, v = rng.integers(-4 * d, 4 * d, (2, 50, e, 3))
        per_factor = (d,) * e
        assert np.array_equal(monomial_mul_array(u, v, d), monomial_mul_array(u, v, per_factor))
        assert np.array_equal(monomial_adjoint_array(u, d), monomial_adjoint_array(u, per_factor))
        for kernel in (monomial_trace_array, trace_gram):
            for by_int, by_factor in zip(kernel(u, d), kernel(u, per_factor)):
                assert np.array_equal(by_int, by_factor)


@pytest.mark.parametrize(
    "mutant", ["unweighted_trace", "first_factor_modulus", "flipped_reordering_sign"]
)
def test_a_mixed_kernel_mutant_fails_the_dense_comparison(monkeypatch, mutant):
    patch_kernel_mutant(monkeypatch, mutant)
    with pytest.raises(AssertionError):
        test_kernels_match_dense_over_mixed_dims()


def test_monomial_determinant():
    for d in (3, 5, 7):
        for a, b in product(range(d), repeat=2):
            mono = MonomialOperator(PhaseExponent.one(d), a, b)
            assert mono.determinant().is_one
            assert abs(np.linalg.det(mono.to_matrix()) - 1) < 1e-10
    # shift in even dimension is a single d-cycle, an odd permutation
    x2, _ = weyl_pair(2)
    assert x2.determinant().to_complex() == -1 + 0j


def test_monomial_trace_exact():
    u = MonomialOperator.from_tau_exponent(4, 3, 0, 0)
    assert u.trace_exact() == PhaseExponent(3, 4)
    assert abs(u.trace() - 4 * cmath.exp(3j * cmath.pi / 4)) < 1e-15
    assert MonomialOperator.from_tau_exponent(4, 0, 1, 0).trace_exact() is None


# ---------------------------------------------------------------------------
# Weighted shifts and their eigensystem
# ---------------------------------------------------------------------------


def test_v00_is_shift():
    for d in (2, 3, 5):
        x, _ = weyl_pair(d)
        assert max_abs(v_ra_matrix(d, 0, 0) - x.to_matrix()) == 0.0


def test_vra_corner_phase():
    mat = v_ra_matrix(2, 1, 0)
    assert max_abs(mat - np.array([[0, 1], [-1, 0]], dtype=complex)) < 1e-15
    assert max_abs(mat @ mat + np.eye(2)) < 1e-15


def test_vra_unitary_and_cyclic():
    for d in range(2, 9):
        for r in (0.0, 1.0, 0.37):
            for a in range(d):
                v = v_ra_matrix(d, r, a)
                assert unitary_defect(v) < 1e-12
                scalar = cmath.exp(1j * cmath.pi * (d - 1) * (a + r))
                assert max_abs(np.linalg.matrix_power(v, d) - scalar * np.eye(d)) < 1e-10


def test_vra_factorization():
    for d in range(2, 8):
        _, z = weyl_pair(d)
        zmat = z.to_matrix()
        for r in (0.0, 1.0):
            for a in range(d):
                lhs = v_ra_matrix(d, r, a)
                rhs = v_ra_matrix(d, r, 0) @ np.linalg.matrix_power(zmat, a)
                assert max_abs(lhs - rhs) < 1e-12


def test_eigenvector_uniform_for_shift():
    vec = v_ra_eigenvector(2, 0, 0, 0)
    # the alpha = 0 eigenvector of the qubit shift is uniform up to phase
    assert abs(abs(vec[0]) - 1 / math.sqrt(2)) < 1e-15
    assert abs(vec[0] - vec[1]) < 1e-15 or abs(vec[0] + vec[1]) < 1e-15
    x, _ = weyl_pair(2)
    assert max_abs(x.to_matrix() @ vec - vec) < 1e-12


def test_eigenvalue_formula_example():
    lam = v_ra_eigenvalue(3, 0, 1, 2)
    assert abs(lam - cmath.exp(-2j * cmath.pi / 3)) < 1e-15


def test_eigenvectors_satisfy_eigenvalue_equation():
    for d in range(2, 13):
        for r in (0, 1):
            for a in range(d):
                v = v_ra_matrix(d, r, a)
                for alpha in range(d):
                    vec = v_ra_eigenvector(d, r, a, alpha)
                    lam = v_ra_eigenvalue(d, r, a, alpha)
                    assert abs(np.linalg.norm(vec) - 1) < 1e-12
                    assert max_abs(v @ vec - lam * vec) < 1e-10


def test_spectrum_nondegenerate():
    for d in range(2, 13):
        for a in range(d):
            for r in (0, 1):
                values = [v_ra_eigenvalue(d, r, a, alpha) for alpha in range(d)]
                for i in range(d):
                    for j in range(i + 1, d):
                        assert abs(values[i] - values[j]) > 1e-9


def test_eigenvalue_exponents_match_the_float_formula():
    # r = 1 included, which no suite check reads through the exponents
    for d in range(2, 17):
        for r, a in product((0, 1), range(d)):
            exponents = v_ra_eigenvalue_exponents(d, r, a)
            assert exponents.dtype == np.int64
            expected = [v_ra_eigenvalue(d, r, a, alpha) for alpha in range(d)]
            assert max_abs(tau_powers(exponents, d) - expected) < 1e-12


@pytest.mark.parametrize(
    "a", [10**20, 10**400, -7, np.int64(-8)], ids=["1e20", "1e400", "-7", "int64(-8)"]
)
def test_eigen_pair_reads_an_integer_a_mod_2d(a):
    # both phases are exp(pi i n a / d) with n an integer: period 2d in a
    for d in (4, 5, 6):
        v = v_ra_matrix(d, 0, a)
        for alpha in range(d):
            vec = v_ra_eigenvector(d, 0, a, alpha)
            lam = v_ra_eigenvalue(d, 0, a, alpha)
            assert np.array_equal(vec, v_ra_eigenvector(d, 0, a % (2 * d), alpha))
            assert lam == v_ra_eigenvalue(d, 0, a % (2 * d), alpha)
            assert max_abs(v @ vec - lam * vec) < 1e-12
        exponents = v_ra_eigenvalue_exponents(d, 0, a)
        assert np.array_equal(exponents, v_ra_eigenvalue_exponents(d, 0, a % (2 * d)))


def test_eigenvector_alpha_out_of_range():
    with pytest.raises(ValueError):
        v_ra_eigenvector(3, 0, 0, 3)


def test_shift_clock_isospectral():
    def root_of_unity_census(mat: np.ndarray, d: int) -> list[int]:
        values = np.linalg.eigvals(mat)
        assert max_abs(np.abs(values) - 1.0) < 1e-9
        return sorted(round(d * float(np.angle(v)) / (2 * math.pi)) % d for v in values)

    for d in range(2, 13):
        x, z = weyl_pair(d)
        expected = list(range(d))
        assert root_of_unity_census(x.to_matrix(), d) == expected
        assert root_of_unity_census(z.to_matrix(), d) == expected


# ---------------------------------------------------------------------------
# Fourier matrix
# ---------------------------------------------------------------------------


def test_fourier_d2():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert max_abs(fourier_matrix(2) - expected) < 1e-15


def test_fourier_identities():
    for d in range(2, 13):
        f = fourier_matrix(d)
        x, z = weyl_pair(d)
        assert unitary_defect(f) < 1e-12
        assert max_abs(np.linalg.matrix_power(f, 4) - np.eye(d)) < 1e-10
        assert max_abs(f @ x.to_matrix() @ f.conj().T - z.to_matrix()) < 1e-10


def test_fourier_matrix_exact_at_d4():
    # every entry is a quarter turn over sqrt(4) = 2, so no rounding enters
    f = fourier_matrix(4)
    twice = 2 * f
    assert set(twice.real.ravel().tolist()) <= {-1.0, 0.0, 1.0}
    assert set(twice.imag.ravel().tolist()) <= {-1.0, 0.0, 1.0}
    assert np.array_equal(np.abs(twice), np.ones((4, 4)))
    assert np.array_equal(np.linalg.matrix_power(f, 4), np.eye(4))
    x, z = weyl_pair(4)
    assert np.array_equal(f @ x.to_matrix() @ f.conj().T, z.to_matrix())


# ---------------------------------------------------------------------------
# Polar decomposition of the angular-momentum algebra
# ---------------------------------------------------------------------------


def test_h_and_jz_closed_forms():
    jp, jm, jz = polar_su2_ops(2, 0, 0)
    assert max_abs(h_matrix(2) - np.diag([1.0, 0.0])) == 0.0
    assert max_abs(jz - np.diag([0.5, -0.5])) < 1e-15


def test_su2_commutation_relations():
    for d in range(2, 17):
        for r in (0, 1):
            for a in range(d):
                jp, jm, jz = polar_su2_ops(d, r, a)
                assert max_abs(commutator(jz, jp) - jp) < 1e-9
                assert max_abs(commutator(jz, jm) + jm) < 1e-9
                assert max_abs(commutator(jp, jm) - 2 * jz) < 1e-9


def test_ladder_actions_match_polar_construction():
    for d in range(2, 11):
        for r in (0, 1):
            for a in range(d):
                jp, jm, jz = polar_su2_ops(d, r, a)
                lp, lm = ladder_matrices(d, a)
                assert max_abs(jp - lp) < 1e-9
                assert max_abs(jm - lm) < 1e-9
                assert max_abs(jz - jz_matrix(d)) < 1e-12


@pytest.mark.parametrize("a", [7, -1, 10**20, 10**400, np.int64(-8)])
def test_an_integer_a_reads_mod_d(a):
    # q^(ka) has period d in a, so the reduction is exact
    assert np.array_equal(v_ra_matrix(5, 0.37, a), v_ra_matrix(5, 0.37, a % 5))
    assert np.array_equal(ladder_matrices(5, a), ladder_matrices(5, a % 5))
    jp, jm, _ = polar_su2_ops(5, 0, a)
    lp, lm = ladder_matrices(5, a)
    assert max_abs(jp - lp) < 1e-9 and max_abs(jm - lm) < 1e-9


def test_jz_eigenvalues_are_m_values():
    for d in range(2, 11):
        _, _, jz = polar_su2_ops(d, 0, 0)
        expected = [(d - 1) / 2 - k for k in range(d)]
        assert max_abs(np.diag(jz).real - np.array(expected)) < 1e-12


# ---------------------------------------------------------------------------
# Sine-algebra operators
# ---------------------------------------------------------------------------


def test_t_operator_self_commutator_vanishes():
    for d in (2, 5):
        t = t_operator(d, 2, 3)
        assert max_abs(commutator(t, t)) == 0.0


def test_t_operator_qubit_example():
    tm = t_operator(2, 1, 0)
    tn = t_operator(2, 0, 1)
    t11 = t_operator(2, 1, 1)
    lhs = commutator(tm, tn)
    rhs = 2j * math.sin(math.pi / 2) * t11
    assert max_abs(lhs - rhs) < 1e-12


def test_t_operator_clock_first_identity():
    for d in range(2, 8):
        for m1, m2, n1, n2 in product(range(1, 6), repeat=4):
            tm = t_operator(d, m1, m2)
            tn = t_operator(d, n1, n2)
            tmn = t_operator(d, m1 + n1, m2 + n2)
            rhs = 2j * math.sin(math.pi * (m1 * n2 - m2 * n1) / d) * tmn
            assert max_abs(commutator(tm, tn) - rhs) < 1e-9


def test_t_operator_printed_order_proportionality():
    rng = random.Random(53)
    for d in range(3, 8):
        for _ in range(40):
            m1, m2, n1, n2 = (rng.randrange(1, 6) for _ in range(4))
            tm = t_operator(d, m1, m2, ordering="vz")
            tn = t_operator(d, n1, n2, ordering="vz")
            tmn = t_operator(d, m1 + n1, m2 + n2, ordering="vz")
            comm = commutator(tm, tn)
            target = 2 * abs(math.sin(math.pi * (m1 * n2 - m2 * n1) / d))
            if target < 1e-12:
                assert max_abs(comm) < 1e-9
                continue
            pivot = np.unravel_index(np.argmax(np.abs(tmn)), tmn.shape)
            lam = comm[pivot] / tmn[pivot]
            assert abs(abs(lam) - target) < 1e-9
            assert max_abs(comm - lam * tmn) < 1e-9


def test_t_operator_clock_first_identity_other_parameters():
    # the sine bracket survives nonzero corner and clock parameters of v_ra
    def t_ra(d, m1, m2, r, a):
        zm = np.linalg.matrix_power(weyl_pair(d)[1].to_matrix(), m2)
        vm = np.linalg.matrix_power(v_ra_matrix(d, r, a), m1)
        return PhaseExponent(m1 * m2, d).to_complex() * (zm @ vm)

    assert np.array_equal(t_ra(4, 2, 3, 0.0, 0.0), t_operator(4, 2, 3))
    for d, r, a in ((5, 0.0, 2), (5, 1.0, 1), (4, 0.37, 3)):
        for m1, m2, n1, n2 in product(range(1, 4), repeat=4):
            tm = t_ra(d, m1, m2, r, a)
            tn = t_ra(d, n1, n2, r, a)
            tmn = t_ra(d, m1 + n1, m2 + n2, r, a)
            rhs = 2j * math.sin(math.pi * (m1 * n2 - m2 * n1) / d) * tmn
            assert max_abs(commutator(tm, tn) - rhs) < 1e-9


def test_t_operator_zero_digits_degenerate_cleanly():
    assert max_abs(t_operator(3, 0, 0) - np.eye(3)) == 0.0
    x, z = weyl_pair(3)
    assert max_abs(t_operator(3, 1, 0) - x.to_matrix()) < 1e-15
    assert max_abs(t_operator(3, 0, 1) - z.to_matrix()) < 1e-15


def test_t_operator_validation():
    with pytest.raises(ValueError):
        t_operator(3, -1, 1)
    with pytest.raises(ValueError):
        t_operator(3, 1, 1, ordering="xy")


# ---------------------------------------------------------------------------
# The measure of the float rechecks
# ---------------------------------------------------------------------------

# 0-d arrays included; np.max of an empty array raises, so the old fold had none
shapes = array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4)
residual_lists = st.lists(
    st.one_of(
        arrays(np.float64, shapes, elements=st.floats(allow_nan=False)),
        arrays(np.complex128, shapes, elements=st.complex_numbers(allow_nan=False)),
        st.floats(allow_nan=False),
        st.complex_numbers(allow_nan=False),
    ),
    max_size=6,
)


def folded_max_norm(residuals) -> float:
    """The hand-written fold the float rechecks used before `residual_norm`."""
    worst = 0.0
    for r in residuals:
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


@given(residual_lists)
def test_residual_norm_is_the_folded_max_norm(residuals):
    # bit for bit, so every recheck prints the deviation it printed before
    assert residual_norm(residuals).hex() == folded_max_norm(residuals).hex()


@given(residual_lists.filter(bool), st.data())
def test_residual_norm_is_nan_when_any_entry_is_nan(residuals, data):
    position = data.draw(st.integers(0, len(residuals) - 1))
    poisoned = np.array(residuals[position], dtype=complex)
    poisoned.flat[data.draw(st.integers(0, poisoned.size - 1))] = np.nan
    residuals[position] = poisoned
    assert math.isnan(residual_norm(residuals))
    assert math.isnan(residual_norm(iter(residuals)))


def test_residual_norm_of_nothing_is_zero():
    assert residual_norm([]) == 0.0
    assert residual_norm([np.zeros((0, 3)), -0.0]) == 0.0
    assert residual_norm([np.zeros((0, 3)), 2.5]) == 2.5
