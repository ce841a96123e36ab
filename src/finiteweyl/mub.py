"""Eigenvector bases of the weighted shifts and generalized Hadamard matrices.

For a = 0..d-1 the basis labeled a diagonalizes V_0a = X Z^a; its vectors
have components tau^((d-k-1)(k+1)a - 2(k+1)alpha) / sqrt(d), stored as exact
tau exponents.  For prime d these bases plus the computational one form a
complete family of d+1 mutually unbiased bases; for arbitrary d the triple
{a=0, a=1, computational} is still mutually unbiased.  Unbiasedness is
always measured, never assumed: `unbiasedness` takes one pair of bases,
and `pairwise_deviations` measures every pair of a family the same way,
into one symmetric matrix, each as its own dense float product B_i^H B_j,
but made in blocks of UNBIASEDNESS_BLOCK bases per GEMM.  It does not use
the fact that the overlaps of two eigenbases depend only on the difference
of their labels, so it stays an independent float recheck of that
structure.  The blocks run as tasks on a thread pool, one worker per
usable CPU when BLAS is confined to one thread (OPENBLAS_NUM_THREADS=1, as
the CLI sets it) and one worker otherwise, and a pair's deviation comes
from the largest and smallest magnitude of its product alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .limits import check_dimension, check_prime
from .operators import fourier_matrix, residual_norm, unitary_defect, v_ra_matrix, weyl_pair
from .phases import tau_powers

# bases per stacked left operand in pairwise_deviations
UNBIASEDNESS_BLOCK = 8


@dataclass
class OrthonormalBasis:
    d: int
    label: str
    vectors: np.ndarray  # d x d, columns are the basis vectors

    def gram_defect(self) -> float:
        return unitary_defect(self.vectors)


def basis_exponent_table(d: int, a: int) -> np.ndarray:
    """Integer tau exponents: entry (k, alpha) of the a-th eigenbasis."""
    check_dimension(d)
    # a only matters mod 2d; reducing it first keeps every product in int64
    k1 = np.arange(1, d + 1, dtype=np.int64)[:, None]  # k + 1
    alpha = np.arange(d, dtype=np.int64)[None, :]
    return ((d - k1) * k1 * (a % (2 * d)) - 2 * k1 * alpha) % (2 * d)


def basis_b0a(d: int, a: int) -> OrthonormalBasis:
    """Eigenbasis of X Z^a: the columns of H_a / sqrt(d)."""
    vectors = hadamard_h_a(d, a).to_matrix() / math.sqrt(d)
    return OrthonormalBasis(d=d, label=str(a), vectors=vectors)


def computational_basis(d: int) -> OrthonormalBasis:
    return OrthonormalBasis(d=d, label="computational", vectors=np.eye(d, dtype=complex))


@dataclass
class HadamardMatrix:
    """Unit-modulus matrix with H^dagger H = d I, stored as tau exponents."""

    d: int
    a: int
    exponents: np.ndarray

    def to_matrix(self) -> np.ndarray:
        return tau_powers(self.exponents, self.d)

    def gram_defect(self) -> float:
        h = self.to_matrix()
        return residual_norm([h.conj().T @ h - self.d * np.eye(self.d)])


def hadamard_h_a(d: int, a: int) -> HadamardMatrix:
    """Columns are sqrt(d) times the vectors of the a-th eigenbasis."""
    if not 0 <= a <= d - 1:
        raise ValueError(f"a must lie in 0..{d - 1}, got {a}")
    return HadamardMatrix(d=d, a=a, exponents=basis_exponent_table(d, a))


def hadamard_reduction_defect(d: int, a: int) -> float:
    """Residual of H_a^dagger V_0a H_a against its diagonal closed form."""
    h = hadamard_h_a(d, a).to_matrix()
    v = v_ra_matrix(d, 0.0, a)
    eigenvalues = tau_powers((d - 1) * a - 2 * np.arange(d), d)
    expected = d * np.diag(eigenvalues)
    return residual_norm([h.conj().T @ v @ h - expected])


def s_permutation(d: int) -> np.ndarray:
    """(1/sqrt(d)) times the involution beta -> d - beta (mod d)."""
    s = np.zeros((d, d), dtype=complex)
    for beta in range(d):
        s[beta, (d - beta) % d] = 1.0
    return s / math.sqrt(d)


def fourier_hadamard_residual(d: int) -> float:
    """Literal residual of the factorization F = (H_0 S)^dagger."""
    h0 = hadamard_h_a(d, 0).to_matrix()
    candidate = (h0 @ s_permutation(d)).conj().T
    return residual_norm([fourier_matrix(d) - candidate])


def fourier_hadamard_corrected_residual(d: int) -> float:
    """Residual of F = Z (H_0 S)^dagger, with the clock Z = diag(q^k).

    (H_0 S)^dagger reproduces the Fourier matrix only up to a diagonal
    clock-phase factor on the left; this measures the corrected identity.
    """
    h0 = hadamard_h_a(d, 0).to_matrix()
    candidate = (h0 @ s_permutation(d)).conj().T
    clock = weyl_pair(d)[1].to_matrix()
    return residual_norm([fourier_matrix(d) - clock @ candidate])


def unbiasedness(b1: OrthonormalBasis, b2: OrthonormalBasis) -> float:
    """Max over all vector pairs of | |<u|v>| - 1/sqrt(d) |."""
    if b1.d != b2.d:
        raise ValueError(f"dimension mismatch: {b1.d} != {b2.d}")
    overlaps = np.abs(b1.vectors.conj().T @ b2.vectors)
    return residual_norm([overlaps - 1.0 / math.sqrt(b1.d)])


def mub_family(p: int) -> list[OrthonormalBasis]:
    """The p+1 bases {a = 0..p-1} plus the computational one, p prime <= `limits.MUB_PRIME_CAP`."""
    check_prime(p)
    return [basis_b0a(p, a) for a in range(p)] + [computational_basis(p)]


def pairwise_deviations(bases: list[OrthonormalBasis]) -> np.ndarray:
    """Symmetric (n, n) matrix of `unbiasedness(bases[i], bases[j])`, 0 on the diagonal.

    Each pair is still one dense product B_i^H B_j, but the products are
    made in blocks: the conjugate transposes of UNBIASEDNESS_BLOCK
    consecutive bases are stacked once into a (block d) x d matrix, which
    multiplies each later basis in one GEMM.  Row slice i of that product
    is B_i^H B_j, entry (i, j) for i < j; the lower triangle mirrors it.

    A block is one task on a thread pool and writes only its own rows of
    the upper triangle.  The pool has one worker per usable CPU when
    OPENBLAS_NUM_THREADS is "1" (the CLI's default), so the blocks, not
    BLAS, use the cores; otherwise it has one worker, which leaves the
    cores to a threaded BLAS.  Every GEMM has the same shape either way.
    A pair's deviation is read off the largest and smallest magnitude of
    its product, as max(hi - c, c - lo) with c = 1/sqrt(d): fl(x - c) is
    monotone in x, so this is max |fl(|z| - c)| exactly.
    """
    n = len(bases)
    if any(b.d != bases[0].d for b in bases):
        raise ValueError("dimension mismatch in the family")
    # loaded here: only the requests that measure a family pay for the import
    from concurrent.futures import ThreadPoolExecutor

    table = np.full((n, n), np.nan)  # a pair the blocks missed stays NaN
    np.fill_diagonal(table, 0.0)
    with ThreadPoolExecutor(_pool_workers()) as pool:
        blocks = range(0, n - 1, UNBIASEDNESS_BLOCK)
        for done in [pool.submit(_block_deviations, bases, start, table) for start in blocks]:
            done.result()
    lower = np.tril_indices(n, -1)
    table[lower] = table.T[lower]
    return table


def _pool_workers() -> int:
    """Worker threads of `pairwise_deviations`: the CPUs when BLAS is confined to one thread."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_deviations(bases: list[OrthonormalBasis], start: int, table: np.ndarray) -> None:
    """Rows start..stop-1 of the upper triangle of `pairwise_deviations`."""
    n = len(bases)
    stop = min(start + UNBIASEDNESS_BLOCK, n - 1)
    d = bases[start].d
    c = 1.0 / math.sqrt(d)
    left = np.concatenate([b.vectors.conj().T for b in bases[start:stop]])
    product = np.empty(left.shape, dtype=complex)
    magnitudes = np.empty(left.shape)
    for j in range(start + 1, n):
        rows = min(j, stop) - start
        np.matmul(left[: rows * d], bases[j].vectors, out=product[: rows * d])
        mags = np.abs(product[: rows * d], out=magnitudes[: rows * d]).reshape(rows, -1)
        hi, lo = mags.max(axis=1), mags.min(axis=1)
        table[start : start + rows, j] = np.maximum(hi - c, c - lo)


def minimal_triple(d: int) -> list[OrthonormalBasis]:
    """{a=0, a=1, computational}: three mutually unbiased bases for any d."""
    return [basis_b0a(d, 0), basis_b0a(d, 1), computational_basis(d)]
