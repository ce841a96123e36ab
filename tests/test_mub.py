import math
import os
import sys

import numpy as np
import pytest

from conftest import max_abs
from finiteweyl import mub as mub_module
from finiteweyl.mub import (
    UNBIASEDNESS_BLOCK,
    HadamardMatrix,
    OrthonormalBasis,
    basis_b0a,
    basis_exponent_table,
    computational_basis,
    fourier_hadamard_corrected_residual,
    fourier_hadamard_residual,
    hadamard_h_a,
    hadamard_reduction_defect,
    minimal_triple,
    mub_family,
    pairwise_deviations,
    s_permutation,
    unbiasedness,
)
from finiteweyl.limits import is_prime
from finiteweyl.operators import v_ra_eigenvalue, v_ra_matrix
from finiteweyl.phases import tau_powers


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
              71, 73, 79, 83, 89, 97}
    for n in range(100):
        assert is_prime(n) == (n in primes)


def test_qubit_bases_match_hand_computation():
    b0 = basis_b0a(2, 0).vectors * math.sqrt(2)
    assert max_abs(b0[:, 0] - np.array([1, 1])) == 0.0
    assert max_abs(b0[:, 1] - np.array([-1, 1])) == 0.0
    b1 = basis_b0a(2, 1).vectors * math.sqrt(2)
    assert max_abs(b1[:, 0] - np.array([1j, 1])) == 0.0
    assert max_abs(b1[:, 1] - np.array([-1j, 1])) == 0.0


def test_bases_orthonormal():
    for d in range(2, 13):
        for a in range(d):
            assert basis_b0a(d, a).gram_defect() < 1e-10


def test_bases_diagonalize_weighted_shift():
    for d in range(2, 9):
        for a in range(d):
            v = v_ra_matrix(d, 0, a)
            vectors = basis_b0a(d, a).vectors
            for alpha in range(d):
                lam = v_ra_eigenvalue(d, 0, a, alpha)
                assert max_abs(v @ vectors[:, alpha] - lam * vectors[:, alpha]) < 1e-10


def test_exponent_table_matches_loop_formula():
    def loop_table(d, a):
        return [
            [((d - k - 1) * (k + 1) * a - 2 * (k + 1) * alpha) % (2 * d) for alpha in range(d)]
            for k in range(d)
        ]

    for d in range(2, 25):
        for a in [*range(-2 * d, 2 * d), 10**30 + 7, -(10**30)]:
            table = basis_exponent_table(d, a)
            assert table.dtype == np.int64
            assert table.tolist() == loop_table(d, a), (d, a)


def test_basis_argument_validation():
    with pytest.raises(ValueError):
        basis_b0a(4, 4)
    with pytest.raises(ValueError):
        hadamard_h_a(4, -1)


def test_hadamard_properties():
    for d in range(2, 13):
        for a in range(d):
            h = hadamard_h_a(d, a)
            assert h.gram_defect() < 1e-9
            assert max_abs(np.abs(h.to_matrix()) - 1.0) < 1e-12
            assert hadamard_reduction_defect(d, a) < 1e-9


def test_hadamard_columns_are_scaled_basis_vectors():
    for d in (2, 3, 5, 6, 8):
        for a in range(d):
            h = hadamard_h_a(d, a)
            assert np.array_equal(h.exponents, basis_exponent_table(d, a))
            assert max_abs(h.to_matrix() / math.sqrt(d) - basis_b0a(d, a).vectors) < 1e-12


def test_s_permutation_is_scaled_involution():
    for d in (2, 3, 5, 8):
        s = s_permutation(d)
        assert max_abs(s @ s * d - np.eye(d)) < 1e-12


def test_fourier_hadamard_factorization_needs_clock_correction():
    # the bare factorization (H_0 S)^dagger misses a diagonal clock phase;
    # the corrected form holds to machine precision
    for d in range(2, 9):
        assert fourier_hadamard_corrected_residual(d) < 1e-10
        if d in (2, 4):
            # quarter-turn entries: the corrected identity holds exactly
            assert fourier_hadamard_corrected_residual(d) == 0.0
        # the literal residual is the largest clock-phase defect over the
        # unit-modulus entries scaled by 1/sqrt(d)
        literal = fourier_hadamard_residual(d)
        expected_literal = max(
            abs(np.exp(-2j * np.pi * k / d) - 1.0) for k in range(d)
        ) / math.sqrt(d)
        assert abs(literal - expected_literal) < 1e-9


def test_unbiasedness_values():
    fam5 = mub_family(5)
    assert unbiasedness(fam5[-1], fam5[0]) < 1e-10
    comp = computational_basis(4)
    self_dev = unbiasedness(comp, comp)
    assert abs(self_dev - (1 - 0.5)) < 1e-12  # orthonormal pattern, not unbiased
    with pytest.raises(ValueError):
        unbiasedness(computational_basis(2), computational_basis(3))


def test_family_rejects_composite_and_caps():
    with pytest.raises(ValueError):
        mub_family(6)
    with pytest.raises(ValueError):
        mub_family(101)


def test_complete_families_prime():
    for p in (2, 3, 5, 7, 11, 13):
        bases = mub_family(p)
        assert len(bases) == p + 1
        assert bases[-1].label == "computational"
        worst = pairwise_deviations(bases).max()
        assert worst < 1e-9


def test_larger_prime_family():
    bases = mub_family(31)
    worst = pairwise_deviations(bases).max()
    assert worst < 1e-9


def test_composite_triples():
    for d in (4, 6, 8, 9, 10, 12):
        triple = minimal_triple(d)
        devs = pairwise_deviations(triple)
        assert devs.shape == (3, 3)
        assert devs.max() < 1e-9


def per_pair_deviations(bases):
    n = len(bases)
    return {(i, j): unbiasedness(bases[i], bases[j]) for i in range(n) for j in range(i + 1, n)}


def assert_symmetric_with_zero_diagonal(matrix, n):
    assert matrix.shape == (n, n) and matrix.dtype == np.float64
    assert np.array_equal(matrix, matrix.T)
    assert not np.diagonal(matrix).any()


@pytest.mark.parametrize(
    "build, d",
    [(mub_family, p) for p in (2, 3, 5, 7, 11, 13, 31, 97)]
    + [(minimal_triple, d) for d in (4, 6, 12)],
)
def test_blocked_deviations_match_per_pair_form(build, d):
    # families of p + 1 bases with p + 1 not a multiple of the block end in a
    # partial block; the last basis of a family is the computational one
    bases = build(d)
    blocked = pairwise_deviations(bases)
    reference = per_pair_deviations(bases)
    assert_symmetric_with_zero_diagonal(blocked, len(bases))
    assert all(abs(blocked[pair] - reference[pair]) <= 1e-15 for pair in reference)


def test_blocked_deviations_match_per_pair_form_on_random_bases():
    # far from unbiased, every pair has its own deviation, so a pair that is
    # dropped or read from the wrong slice shows
    rng = np.random.default_rng(5)
    bases = []
    for k in range(2 * UNBIASEDNESS_BLOCK + 3):
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        bases.append(OrthonormalBasis(5, str(k), q))
    blocked = pairwise_deviations(bases)
    reference = per_pair_deviations(bases)
    assert_symmetric_with_zero_diagonal(blocked, len(bases))
    assert all(abs(blocked[pair] - reference[pair]) <= 1e-15 for pair in reference)
    assert len(set(reference.values())) == len(reference)


def test_blocked_deviations_flag_a_corrupted_vector_at_the_same_pairs():
    p, corrupted = 13, UNBIASEDNESS_BLOCK + 1
    bases = mub_family(p)
    table = basis_exponent_table(p, corrupted)
    table[2, 4] += 1
    bases[corrupted] = OrthonormalBasis(p, str(corrupted), tau_powers(table, p) / math.sqrt(p))
    blocked = pairwise_deviations(bases)
    assert_symmetric_with_zero_diagonal(blocked, p + 1)
    flagged = {(int(i), int(j)) for i, j in np.argwhere(np.triu(blocked) > 1e-3)}
    expected = {pair for pair, value in per_pair_deviations(bases).items() if value > 1e-3}
    assert flagged == expected
    # as a later partner of the first block and as a row of the second
    assert (0, corrupted) in flagged and (corrupted, corrupted + 1) in flagged


def test_a_nan_basis_reads_nan_in_both_triangles():
    bases = minimal_triple(3)
    bases[1].vectors[0, 0] = np.nan
    deviations = pairwise_deviations(bases)
    assert np.isnan(deviations[[0, 1, 1, 2], [1, 0, 2, 1]]).all()
    assert deviations[0, 2] == deviations[2, 0] < 1e-9
    assert not np.diagonal(deviations).any()


def _pool_of(monkeypatch, blas_threads, cpus):
    """Run pairwise_deviations as if OPENBLAS_NUM_THREADS were blas_threads on `cpus` CPUs."""
    if blas_threads is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.mark.parametrize(
    "blas_threads, cpus, workers", [(None, 8, 1), ("2", 8, 1), ("1", 8, 8), ("1", 1, 1)]
)
def test_the_pool_has_a_worker_per_cpu_only_when_blas_has_one_thread(
    monkeypatch, blas_threads, cpus, workers
):
    _pool_of(monkeypatch, blas_threads, cpus)
    assert mub_module._pool_workers() == workers


@pytest.mark.parametrize(
    "build, d", [(mub_family, p) for p in (2, 3, 5, 13, 31, 97)] + [(minimal_triple, 12)]
)
def test_blocks_on_the_pool_equal_a_one_worker_run_bit_for_bit(monkeypatch, build, d):
    bases = build(d)
    _pool_of(monkeypatch, None, 1)
    one_worker = pairwise_deviations(bases)
    # 8 workers, more than a small host has cores, switching threads often
    _pool_of(monkeypatch, "1", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = pairwise_deviations(bases)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(pooled, one_worker)


def test_pairwise_deviations_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        pairwise_deviations([computational_basis(2), computational_basis(3)])
    assert np.array_equal(pairwise_deviations([computational_basis(2)]), np.zeros((1, 1)))


def test_qubit_family_structure():
    bases = mub_family(2)
    # eigenbases of the shift, of the shifted clock, and the computational one
    x_like, xz_like, comp = bases
    assert max_abs(np.abs(x_like.vectors) - 1 / math.sqrt(2)) < 1e-12
    assert max_abs(np.abs(xz_like.vectors) - 1 / math.sqrt(2)) < 1e-12
    assert np.array_equal(comp.vectors, np.eye(2))


def test_hadamard_json_round_trip_vectors():
    h = hadamard_h_a(6, 2)
    rebuilt = HadamardMatrix(d=h.d, a=h.a, exponents=h.exponents.copy())
    assert max_abs(h.to_matrix() - rebuilt.to_matrix()) == 0.0
