"""Operators on the d-dimensional Hilbert space.

Conventions (fixed once, used everywhere): basis kets are indexed by
k = 0..d-1 and the two generators act as

    X |k> = |k-1 mod d>        (cyclic shift)
    Z |k> = q^k |k>            (clock, q = exp(2*pi*i/d))

so XZ = q ZX and X^d = Z^d = I.  A monomial operator tau^t X^b Z^c is
stored by its exact phase exponent and the two powers; its matrix has one
nonzero entry per column, namely tau^(t+2ck) at row (k-b) mod d.  Products,
adjoints, traces and determinants of monomials are computed in integer
arithmetic.  On int arrays of (t, shift, clock) rows, `monomial_mul_array`,
`monomial_adjoint_array` and `monomial_trace_array` are the product,
adjoint and trace, and `trace_gram` pairs rows by Tr(u^dagger v); each
takes one d or one d_k per tensor factor.  They are the one
implementation of each law: `monomial_mul`, `MonomialOperator.adjoint`,
`trace_exact` and the commutators of `basis` read them on their rows.
Every exact phase, the entries of the Fourier matrix included, goes
through `phases.tau_powers` or `PhaseExponent.to_complex`; only phases
with real parameters (v_ra for real r and a, the ladder matrices) are
formed here directly.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .limits import check_dimension
from .phases import PhaseExponent, tau_powers


@dataclass(frozen=True, slots=True, init=False)
class MonomialOperator:
    """Exact representation of tau^t X^shift Z^clock in dimension d."""

    phase: PhaseExponent
    shift: int
    clock: int

    def __init__(self, phase: PhaseExponent, shift: int, clock: int) -> None:
        d = phase.d
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "shift", operator.index(shift) % d)
        object.__setattr__(self, "clock", operator.index(clock) % d)

    @property
    def d(self) -> int:
        return self.phase.d

    @classmethod
    def identity(cls, d: int) -> "MonomialOperator":
        return cls(PhaseExponent.one(d), 0, 0)

    @classmethod
    def from_tau_exponent(cls, d: int, t: int, shift: int, clock: int) -> "MonomialOperator":
        return cls(PhaseExponent(t, d), shift, clock)

    @classmethod
    def w(cls, d: int, a: int, b: int, c: int) -> "MonomialOperator":
        """q^a X^b Z^c."""
        return cls(PhaseExponent.q_power(a, d), b, c)

    def __matmul__(self, other: "MonomialOperator") -> "MonomialOperator":
        return monomial_mul(self, other)

    def __pow__(self, n: int) -> "MonomialOperator":
        if n < 0:
            return self.adjoint() ** (-n)
        # repeated squaring: the powers of one monomial commute, so the
        # product is exactly the n-fold one
        out, square = MonomialOperator.identity(self.d), self
        while n:
            if n & 1:
                out = monomial_mul(out, square)
            n >>= 1
            if n:
                square = monomial_mul(square, square)
        return out

    def adjoint(self) -> "MonomialOperator":
        return _from_row(monomial_adjoint_array(_row(self), self.d), self.d)

    def to_matrix(self) -> np.ndarray:
        d = self.d
        mat = np.zeros((d, d), dtype=complex)
        for k in range(d):
            mat[(k - self.shift) % d, k] = PhaseExponent(
                self.phase.t + 2 * self.clock * k, d
            ).to_complex()
        return mat

    def trace_exact(self) -> PhaseExponent | None:
        """d * tau^t when the monomial is scalar, None when traceless."""
        exponent, scalar = monomial_trace_array(_row(self)[None], self.d)
        return PhaseExponent(int(exponent), self.d) if scalar else None

    def trace(self) -> complex:
        scalar = self.trace_exact()
        return 0j if scalar is None else self.d * scalar.to_complex()

    def determinant(self) -> PhaseExponent:
        """Exact determinant: permutation sign times the product of entries."""
        d = self.d
        cycles = math.gcd(self.shift, d)
        sign_exp = d * (d - cycles)  # tau^d = -1 encodes the sign
        entries_exp = d * self.phase.t + self.clock * d * (d - 1)
        return PhaseExponent(sign_exp + entries_exp, d)


def _row(u: MonomialOperator) -> np.ndarray:
    """The (t, shift, clock) int64 row of a monomial."""
    return np.array([u.phase.t, u.shift, u.clock], dtype=np.int64)


def _from_row(row: np.ndarray, d: int) -> MonomialOperator:
    """The monomial of a (t, shift, clock) row, its fields Python ints."""
    t, shift, clock = row.tolist()
    return MonomialOperator(PhaseExponent(t, d), shift, clock)


def monomial_mul(u: MonomialOperator, v: MonomialOperator) -> MonomialOperator:
    """The product u v, read off `monomial_mul_array` of the two rows."""
    if u.d != v.d:
        raise ValueError(f"dimension mismatch: {u.d} != {v.d}")
    return _from_row(monomial_mul_array(_row(u), _row(v), u.d), u.d)


def monomial_mul_array(u: np.ndarray, v: np.ndarray, d: int | tuple[int, ...]) -> np.ndarray:
    """The product of (..., 3) int arrays of (t, shift, clock), broadcast.

    The reordering rule Z^c X^b = q^(-cb) X^b Z^c gives the exponent
    t + t' - 2 clock shift', reduced mod 2d, and the powers mod d, as
    `PhaseExponent` and `MonomialOperator` reduce them.  Here and in the
    adjoint and trace kernels d is an int or one modulus d_k per tensor
    factor, broadcast over the factor axis of (..., e, 3) rows.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    out = u + v
    out[..., 0] -= 2 * u[..., 2] * v[..., 1]
    out %= np.multiply.outer(d, (2, 1, 1))
    return out


def monomial_adjoint_array(u: np.ndarray, d: int | tuple[int, ...]) -> np.ndarray:
    """The adjoint of (..., 3) rows, reordered Z^-c X^-b -> tau^(-t - 2bc) X^-b Z^-c, reduced."""
    u = np.asarray(u, dtype=np.int64)
    out = -u
    out[..., 0] -= 2 * u[..., 1] * u[..., 2]
    out %= np.multiply.outer(d, (2, 1, 1))
    return out


def monomial_trace_array(
    u: np.ndarray, d: int | tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The exact trace of (..., e, 3) rows, the e factors of a tensor product.

    Returns (exponents, scalar): where every factor has shift and clock 0
    the trace is prod(d_k) tau_L^exponent, tau_L = exp(i pi / L) with
    L = lcm(d_k), factor k's exponent weighted by L / d_k and the sum taken
    mod 2L (mod 2d for an int d); elsewhere it is 0 and the exponent is
    meaningless.
    """
    u = np.asarray(u, dtype=np.int64)
    scalar = ((u[..., 1] % d == 0) & (u[..., 2] % d == 0)).all(axis=-1)
    lcm = np.lcm.reduce(d, axis=None)
    return (u[..., 0] * (lcm // np.asarray(d))).sum(axis=-1) % (2 * lcm), scalar


def trace_gram(rows: np.ndarray, d: int | tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """`monomial_trace_array` of u_i^dagger u_j, at [i, j], for every pair of (n, e, 3) rows."""
    rows = np.asarray(rows, dtype=np.int64)
    products = monomial_mul_array(monomial_adjoint_array(rows, d)[:, None], rows[None], d)
    return monomial_trace_array(products, d)


def weyl_pair(d: int) -> tuple[MonomialOperator, MonomialOperator]:
    """The shift X and the clock Z as exact monomials."""
    check_dimension(d)
    x = MonomialOperator(PhaseExponent.one(d), 1, 0)
    z = MonomialOperator(PhaseExponent.one(d), 0, 1)
    return x, z


def v_ra_matrix(d: int, r: float = 0.0, a: float = 0.0) -> np.ndarray:
    """Weighted cyclic shift: superdiagonal q^(ka), corner exp(2*pi*i*j*r).

    Here j = (d-1)/2.  For integer r and a the matrix is monomial with
    root-of-unity entries; both parameters are accepted as floats.  An int or
    NumPy integer a is reduced mod d first, exactly: q^(ka) has period d in a.
    """
    check_dimension(d)
    if isinstance(a, (int, np.integer)):
        a %= d
    mat = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        mat[k - 1, k] = cmath.exp(2j * cmath.pi * k * a / d)
    mat[d - 1, 0] = cmath.exp(1j * cmath.pi * (d - 1) * r)
    return mat


def v_ra_eigenvalue(d: int, r: float, a: float, alpha: int) -> complex:
    """q^(j(a+r) - alpha) with j = (d-1)/2.

    An int or NumPy integer a is reduced mod 2d first, exactly: the phase
    is exp(pi i n a / d) with n = d - 1 an integer, so its period in a is 2d.
    """
    if isinstance(a, (int, np.integer)):
        a %= 2 * d
    return cmath.exp(2j * cmath.pi * ((d - 1) * (a + r) / 2 - alpha) / d)


def v_ra_eigenvalue_exponents(d: int, r: int, a: int) -> np.ndarray:
    """The int64 tau exponents of `v_ra_eigenvalue`, alpha = 0..d-1, for integer r and a."""
    return ((d - 1) * (a + r) % (2 * d) - 2 * np.arange(d, dtype=np.int64)) % (2 * d)


def v_ra_eigenvector(d: int, r: float, a: float, alpha: int) -> np.ndarray:
    """Normalized eigenvector of v_ra for the eigenvalue indexed by alpha.

    An int or NumPy integer a is reduced mod 2d first, as `v_ra_eigenvalue`
    reduces it: component k carries exp(pi i (d-1-k)(k+1) a / d).
    """
    if not 0 <= alpha <= d - 1:
        raise ValueError(f"alpha must lie in 0..{d - 1}, got {alpha}")
    if isinstance(a, (int, np.integer)):
        a %= 2 * d
    j = (d - 1) / 2
    vec = np.zeros(d, dtype=complex)
    for k in range(d):
        m = j - k
        expo = (j + m) * (j - m + 1) * a / 2 - j * m * r + (j + m) * alpha
        vec[k] = cmath.exp(2j * cmath.pi * expo / d)
    return vec / math.sqrt(d)


def fourier_matrix(d: int) -> np.ndarray:
    """Symmetric unitary with entries q^(-kk')/sqrt(d); satisfies F^4 = I."""
    check_dimension(d)
    k = np.arange(d)
    return tau_powers(-2 * np.outer(k, k), d) / math.sqrt(d)


def h_matrix(d: int) -> np.ndarray:
    """Diagonal of sqrt((j+m)(j-m+1)) in the k = j - m indexing."""
    k = np.arange(d)
    return np.diag(np.sqrt((d - 1.0 - k) * (k + 1.0)))


def polar_su2_ops(
    d: int, r: float = 0.0, a: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ladder triple (j+, j-, jz) from the polar decomposition h, v_ra."""
    v = v_ra_matrix(d, r, a)
    h = h_matrix(d)
    h2 = h @ h
    jplus = h @ v
    jminus = v.conj().T @ h
    jz = 0.5 * (h2 - v.conj().T @ h2 @ v)
    return jplus, jminus, jz


def ladder_matrices(d: int, a: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """j+ and j- written directly from their ladder actions (s = 1/2 phases).

    An integer a is reduced mod d first, as `v_ra_matrix` reduces it.
    """
    if isinstance(a, (int, np.integer)):
        a %= d
    jplus = np.zeros((d, d), dtype=complex)
    jminus = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        jplus[k - 1, k] = cmath.exp(2j * cmath.pi * k * a / d) * math.sqrt(k * (d - k))
    for k in range(d - 1):
        jminus[k + 1, k] = cmath.exp(-2j * cmath.pi * (k + 1) * a / d) * math.sqrt(
            (d - 1 - k) * (k + 1)
        )
    return jplus, jminus


def jz_matrix(d: int) -> np.ndarray:
    """Closed form diag(j - k), the angular-momentum z component."""
    k = np.arange(d)
    return np.diag((d - 1) / 2 - k).astype(complex)


def t_operator(d: int, m1: int, m2: int, ordering: str = "zv") -> np.ndarray:
    """tau^(m1 m2) v_00^m1 z^m2 in either operator ordering.

    ordering "vz" is the v-then-z product as one would read it; "zv" puts
    the clock factor first and is the ordering under which the sine-bracket
    identity closes without a residual phase, hence the default.  Zero
    digits are allowed (the factor degenerates to the identity).
    """
    if m1 < 0 or m2 < 0:
        raise ValueError("t-operator digits must be >= 0")
    if ordering not in ("vz", "zv"):
        raise ValueError(f"ordering must be 'vz' or 'zv', got {ordering!r}")
    v = v_ra_matrix(d)
    z = weyl_pair(d)[1].to_matrix()
    vm = np.linalg.matrix_power(v, m1)
    zm = np.linalg.matrix_power(z, m2)
    scalar = PhaseExponent(m1 * m2, d).to_complex()
    return scalar * (vm @ zm) if ordering == "vz" else scalar * (zm @ vm)


def residual_norm(residuals: Iterable[np.ndarray | complex]) -> float:
    """Largest |entry| over every residual array or scalar, 0.0 for none.

    The measure of every float recheck.  The per-residual maxima are
    reduced with np.max, so one NaN entry makes the norm NaN and the check
    fails; an empty array adds nothing.
    """
    return float(np.max([np.max(np.abs(r), initial=0.0) for r in residuals], initial=0.0))


def unitary_defect(mat: np.ndarray) -> float:
    """Max-norm of M^dagger M - I."""
    return residual_norm([mat.conj().T @ mat - np.eye(mat.shape[0])])
