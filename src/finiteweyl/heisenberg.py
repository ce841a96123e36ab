"""The continuous Heisenberg-Weyl group on R^3 and its 3x3 matrix model.

Group elements are coordinate triples (x, y, z) with the law

    (x, y, z) (x', y', z') = (x + x' - z y', y + y', z + z').

The lower-triangular matrices M(x, y, z) obey a companion law with
half-integer cross terms; the map (x, y, z) -> M(-x - yz/2, -y, -z) is an
isomorphism between the two.  All checks below restrict inputs to dyadic
rationals (halves, quarters) so that float equality is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HWElement:
    x: float
    y: float
    z: float

    def compose(self, other: "HWElement") -> "HWElement":
        return HWElement(
            self.x + other.x - self.z * other.y,
            self.y + other.y,
            self.z + other.z,
        )

    def inverse(self) -> "HWElement":
        return HWElement(-self.x - self.y * self.z, -self.y, -self.z)


HW_IDENTITY = HWElement(0.0, 0.0, 0.0)


def hw_commutator(g: HWElement, h: HWElement) -> HWElement:
    """Group commutator g h g^-1 h^-1, computed by composition."""
    return g.compose(h).compose(g.inverse()).compose(h.inverse())


def hw_commutator_closed(g: HWElement, h: HWElement) -> HWElement:
    """Closed form of the commutator of g=(x',y',z') with h=(x,y,z)."""
    return HWElement(h.z * g.y - h.y * g.z, 0.0, 0.0)


def hw_commutes(g: HWElement, h: HWElement) -> bool:
    return g.z * h.y - g.y * h.z == 0.0


def hw_conjugate(g: HWElement, h: HWElement) -> HWElement:
    """g h g^-1 via composition."""
    return g.compose(h).compose(g.inverse())


def hw_conjugate_closed(g: HWElement, h: HWElement) -> HWElement:
    """Closed form of g h g^-1: only the first coordinate moves."""
    return HWElement(h.x + h.z * g.y - h.y * g.z, h.y, h.z)


def hw_class_is_ambivalent(h: HWElement) -> bool:
    """Whether the conjugacy class of h contains h^-1.

    The class of (x, y, z) is R x {y} x {z} when (y, z) != (0, 0) and the
    singleton {(x, 0, 0)} otherwise, so only the identity class qualifies.
    """
    inv = h.inverse()
    if (h.y, h.z) != (0.0, 0.0):
        return (inv.y, inv.z) == (h.y, h.z)
    return inv.x == h.x


def hw_matrix(g: HWElement) -> np.ndarray:
    """Lower-triangular matrix M(x, y, z) with unit diagonal."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [-g.y, 1.0, 0.0],
            [-g.x - 0.5 * g.y * g.z, g.z, 1.0],
        ]
    )


def hw_matrix_law(g: HWElement, h: HWElement) -> HWElement:
    """Parameters of M(g) @ M(h) under the matrix composition law."""
    return HWElement(
        g.x + h.x + 0.5 * g.z * h.y - 0.5 * g.y * h.z,
        g.y + h.y,
        g.z + h.z,
    )


def hw_to_matrix_params(g: HWElement) -> HWElement:
    """The bijection carrying the abstract law to the matrix law."""
    return HWElement(-g.x - 0.5 * g.y * g.z, -g.y, -g.z)


def generator_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 3x3 generators (H3, Q3, P3); entries are 0 or +-i."""
    h3 = np.zeros((3, 3), dtype=complex)
    h3[2, 0] = 1j
    q3 = np.zeros((3, 3), dtype=complex)
    q3[1, 0] = 1j
    p3 = np.zeros((3, 3), dtype=complex)
    p3[2, 1] = -1j
    return h3, q3, p3


def series_exponential(g: HWElement) -> np.ndarray:
    """The 12-term truncated series for exp(i(x H3 + y Q3 + z P3)).

    The argument is nilpotent (cube zero), so the series is exact after
    three terms; extra terms only exercise the generic path.
    """
    h3, q3, p3 = generator_matrices()
    arg = 1j * (g.x * h3 + g.y * q3 + g.z * p3)
    out = np.eye(3, dtype=complex)
    power = np.eye(3, dtype=complex)
    fact = 1.0
    for n in range(1, 12):
        power = power @ arg
        fact *= n
        out = out + power / fact
    return out


def hw_lie_check() -> dict:
    """Verify [Q3,P3] = i H3, [P3,H3] = 0 and [H3,Q3] = 0 exactly."""
    h3, q3, p3 = generator_matrices()

    def comm(a, b):
        return a @ b - b @ a

    checks = {
        "qp_equals_ih": bool(np.array_equal(comm(q3, p3), 1j * h3)),
        "ph_vanishes": bool(np.array_equal(comm(p3, h3), np.zeros((3, 3)))),
        "hq_vanishes": bool(np.array_equal(comm(h3, q3), np.zeros((3, 3)))),
    }
    checks["overall"] = all(checks.values())
    return checks


def random_dyadic_elements(count: int, seed: int = 0) -> list[HWElement]:
    """Elements with coordinates in {k/2 : -8 <= k <= 8}, exactly representable."""
    rng = random.Random(seed)
    return [
        HWElement(rng.randint(-8, 8) / 2, rng.randint(-8, 8) / 2, rng.randint(-8, 8) / 2)
        for _ in range(count)
    ]
