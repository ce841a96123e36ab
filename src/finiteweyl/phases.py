"""Exact arithmetic for phases that are 2d-th roots of unity.

Every monomial operator in dimension d carries a scalar phase tau^t with
tau = exp(i*pi/d).  The square q = tau^2 = exp(2*pi*i/d) is the primitive
d-th root of unity used by clock matrices; half-integer powers of q that
show up in Hadamard exponents are integer powers of tau, which is why tau
(and not q) is the base phase.  Exponents live in Z_{2d}: the monomial
kernels of `operators` add and negate them as integers, with no floating
point at all.

One scalar formula, `PhaseExponent.to_complex`, is the only route from a
tau exponent to a complex number: it takes the quarter turns 1, i, -1, -i
from an exact table and every other power from cmath.exp(i*pi*t/d).
`tau_powers` (an array of exponents) looks every exponent up in a read-only
table of its 2d values, built once per d, so the two agree bit for bit by
construction.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# tau^t for 2t/d = 0, 1, 2, 3: exact, so qubit monomials and scalar
# identities survive float conversion without rounding
_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


@dataclass(frozen=True, slots=True, init=False)
class PhaseExponent:
    """The complex number tau^t, tau = exp(i*pi/d), stored as t mod 2d."""

    t: int
    d: int

    def __init__(self, t: int, d: int) -> None:
        d = operator.index(d)
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        object.__setattr__(self, "t", operator.index(t) % (2 * d))
        object.__setattr__(self, "d", d)

    @classmethod
    def one(cls, d: int) -> "PhaseExponent":
        return cls(0, d)

    @classmethod
    def q_power(cls, k: int, d: int) -> "PhaseExponent":
        """q^k with q = tau^2 the primitive d-th root of unity."""
        return cls(2 * k, d)

    @property
    def is_one(self) -> bool:
        return self.t == 0

    def to_complex(self) -> complex:
        if (2 * self.t) % self.d == 0:
            return _QUARTER_TURNS[2 * self.t // self.d]
        return cmath.exp(1j * cmath.pi * self.t / self.d)


@lru_cache(maxsize=32)
def tau_table(d: int) -> np.ndarray:
    """The read-only array of PhaseExponent(t, d).to_complex() for t = 0..2d-1."""
    powers = np.array([PhaseExponent(t, d).to_complex() for t in range(2 * d)])
    powers.flags.writeable = False
    return powers


def tau_powers(exponents, d: int) -> np.ndarray:
    """tau^t for every t in an integer array, equal to PhaseExponent(t, d).to_complex()."""
    return tau_table(d)[np.asarray(exponents) % (2 * d)]
