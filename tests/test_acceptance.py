"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line.  Two criteria assert claims that are
mathematically false as stated and fail honestly rather than being
weakened:

* criterion 01 requires d(d+1)-1 conjugacy classes for every d in 2..12,
  but composite moduli have extra short classes (the class of (a, b, c)
  has size d / gcd(b, c, d); e.g. d=4 yields 22 classes, not 19).  The
  singleton count and the squared-dimension identity do hold and are
  checked; the count assertion fails for d in {4, 6, 8, 9, 10, 12}.
* criterion 05 includes the literal factorization F = (H_0 S)^dagger,
  which misses a diagonal clock-phase factor: already at d=2 the right
  side is [[1,1],[-1,1]]/sqrt(2) while F = [[1,1],[1,-1]]/sqrt(2), and
  the corrected identity F = diag(q^k) (H_0 S)^dagger holds to 1e-15.
  The literal assertion fails for every d.
"""

import math
from itertools import product

import numpy as np

from conftest import commutator, load_golden, max_abs
from finiteweyl.basis import (
    cartan_partition,
    cartan_partition_prime_power,
    commuting_class_search,
    pauli_commutator,
    pauli_indices,
    pauli_stack,
    su4_spread_check,
    u_ab,
    validate_cartan_partition,
)
from finiteweyl.group import pd_conjugacy_classes, pd_irrep_counts
from finiteweyl.heisenberg import (
    generator_matrices,
    hw_matrix,
    hw_matrix_law,
    hw_to_matrix_params,
    random_dyadic_elements,
)
from finiteweyl.mub import (
    basis_b0a,
    hadamard_h_a,
    hadamard_reduction_defect,
    minimal_triple,
    mub_family,
    pairwise_deviations,
)
from finiteweyl.operators import (
    MonomialOperator,
    fourier_matrix,
    monomial_mul,
    polar_su2_ops,
    t_operator,
    v_ra_eigenvalue,
    v_ra_matrix,
    weyl_pair,
)
from oracles import (
    commutator_coefficient_exponents,
    fourier_hadamard_residual,
    indices_commute,
)


def conclude(number: int, title: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:02d} {title}: {status}")
    assert not failures, f"criterion {number:02d} {title}: " + "; ".join(failures)


def test_criterion_01_group_class_counting():
    failures = []
    for d in range(2, 13):
        report = pd_conjugacy_classes(d)
        expected = d * (d + 1) - 1
        if report.class_count != expected:
            failures.append(f"d={d}: {report.class_count} classes != {expected}")
        if report.singleton_count != d:
            failures.append(f"d={d}: {report.singleton_count} singletons != {d}")
        one_dim, d_dim = pd_irrep_counts(d)
        if one_dim * 1 + d_dim * d * d != d**3:
            failures.append(f"d={d}: squared-dimension identity broken")
    conclude(1, "group class counting", failures)


def test_criterion_02_weyl_pair_identities():
    failures = []
    for d in range(2, 65):
        x, z = weyl_pair(d)
        q = MonomialOperator.w(d, 1, 0, 0)
        if monomial_mul(x, z) != monomial_mul(q, monomial_mul(z, x)):
            failures.append(f"d={d}: XZ != qZX")
        if x**d != MonomialOperator.identity(d) or z**d != MonomialOperator.identity(d):
            failures.append(f"d={d}: X^d or Z^d differs from the identity")
    conclude(2, "weyl pair identities exact", failures)


def test_criterion_03_golden_matrices():
    failures = []
    for name, d in (("pauli_matrices_d2.json", 2), ("pauli_matrices_d3.json", 3)):
        golden = load_golden(name)
        for key, entries in golden["matrices"].items():
            a, b = int(key[0]), int(key[1])
            mono = u_ab(d, a, b)
            generated = [[None] * d for _ in range(d)]
            for k in range(d):
                generated[(k - mono.shift) % d][k] = (
                    mono.phase.t + 2 * mono.clock * k
                ) % (2 * d)
            if generated != entries:
                failures.append(f"d={d} label ({a}{b}): exponent table mismatch")
    conclude(3, "golden matrices entry-for-entry", failures)


def test_criterion_04_eigenvector_formula():
    failures = []
    for d in range(2, 13):
        worst = 0.0
        for a in range(d):
            v = v_ra_matrix(d, 0, a)
            vectors = basis_b0a(d, a).vectors
            for alpha in range(d):
                lam = v_ra_eigenvalue(d, 0, a, alpha)
                worst = max(worst, max_abs(v @ vectors[:, alpha] - lam * vectors[:, alpha]))
        if worst >= 1e-10:
            failures.append(f"d={d}: residual {worst:.3e}")
    conclude(4, "eigenvector formula", failures)


def test_criterion_05_hadamard_relations():
    failures = []
    for d in range(2, 13):
        for a in range(d):
            h = hadamard_h_a(d, a)
            if h.gram_defect() >= 1e-9:
                failures.append(f"d={d} a={a}: H^dagger H != dI")
            if hadamard_reduction_defect(d, a) >= 1e-9:
                failures.append(f"d={d} a={a}: conjugation not diagonal")
        f = fourier_matrix(d)
        x, z = weyl_pair(d)
        if max_abs(np.linalg.matrix_power(f, 4) - np.eye(d)) >= 1e-10:
            failures.append(f"d={d}: F^4 != I")
        if max_abs(f @ x.to_matrix() @ f.conj().T - z.to_matrix()) >= 1e-10:
            failures.append(f"d={d}: F X F^dagger != Z")
    for d in range(2, 9):
        literal = fourier_hadamard_residual(d)
        if literal >= 1e-10:
            failures.append(
                f"d={d}: F != (H_0 S)^dagger, residual {literal:.3e}"
                " (identity holds only after a diag(q^k) clock correction)"
            )
    conclude(5, "hadamard relations", failures)


def test_criterion_06_mub_completeness():
    failures = []
    for p in (2, 3, 5, 7, 11, 13):
        worst = pairwise_deviations(mub_family(p)).max()
        if worst >= 1e-9:
            failures.append(f"p={p}: family deviation {worst:.3e}")
    for d in (4, 6, 8, 9, 10, 12):
        worst = pairwise_deviations(minimal_triple(d)).max()
        if worst >= 1e-9:
            failures.append(f"d={d}: triple deviation {worst:.3e}")
    conclude(6, "mub completeness", failures)


def test_criterion_07_su2_polar_decomposition():
    failures = []
    for d in range(2, 17):
        worst = 0.0
        for r in (0, 1):
            for a in range(d):
                jp, jm, jz = polar_su2_ops(d, r, a)
                worst = max(
                    worst,
                    max_abs(commutator(jz, jp) - jp),
                    max_abs(commutator(jz, jm) + jm),
                    max_abs(commutator(jp, jm) - 2 * jz),
                )
        if worst >= 1e-9:
            failures.append(f"d={d}: residual {worst:.3e}")
    conclude(7, "su2 polar decomposition", failures)


def test_criterion_08_structure_constants():
    failures = []
    for d in range(2, 9):
        mats = {ab: u_ab(d, *ab).to_matrix() for ab in pauli_indices(d, True)}
        worst = 0.0
        for ab, ab2 in product(pauli_indices(d, True), repeat=2):
            coeff, target = pauli_commutator(d, ab, ab2, "-")
            worst = max(worst, max_abs(commutator(mats[ab], mats[ab2]) - coeff * mats[target]))
            first, second = commutator_coefficient_exponents(d, ab, ab2)
            if (first == second) != indices_commute(d, ab, ab2):
                failures.append(f"d={d} {ab}x{ab2}: vanishing rule broken")
        if worst >= 1e-12:
            failures.append(f"d={d}: closure residual {worst:.3e}")
    conclude(8, "structure constants", failures)


def test_criterion_09_cartan_partitions():
    failures = []
    golden = load_golden("commuting_classes_d7.json")
    expected7 = [[tuple(pair) for pair in cls] for cls in golden["classes"]]
    if cartan_partition(7).classes != expected7:
        failures.append("p=7 classes differ from the printed eight sets")
    for p in (2, 3, 5, 7, 11, 13):
        part = cartan_partition(p)
        if part.class_count != p + 1 or not all(len(c) == p - 1 for c in part.classes):
            failures.append(f"p={p}: wrong shape")
        if not validate_cartan_partition(part):
            failures.append(f"p={p}: partition invalid")
    for p, e in ((2, 2), (2, 3), (3, 2)):
        part = cartan_partition_prime_power(p, e)
        size = p**e
        if part.class_count != size + 1 or not all(
            len(c) == size - 1 for c in part.classes
        ):
            failures.append(f"(p,e)=({p},{e}): wrong shape")
        if not validate_cartan_partition(part):
            failures.append(f"(p,e)=({p},{e}): partition invalid")
    search4 = commuting_class_search(4)
    if search4.complete:
        failures.append("d=4: search unexpectedly found a complete partition")
    if search4.classes != [
        [(0, 1), (0, 2), (0, 3)],
        [(1, 0), (2, 0), (3, 0)],
        [(1, 1), (2, 2), (3, 3)],
    ]:
        failures.append("d=4: best-effort classes differ from the printed three")
    conclude(9, "cartan partitions", failures)


def test_criterion_10_su4_spread():
    failures = []
    report = su4_spread_check()
    if not report.sets_commute:
        failures.append("a printed set contains a non-commuting pair")
    if report.union_size != 15 or not report.covers_all_nonidentity:
        failures.append("the five sets do not cover the 15 labels")
    if report.gram_defect >= 1e-12:
        failures.append(f"gram defect {report.gram_defect:.3e}")
    union = [label for triple in report.sets for label in triple]
    rank = np.linalg.matrix_rank(pauli_stack((2, 2), union).reshape(15, -1))
    if rank != 15:
        failures.append(f"gram rank {rank} != 15")
    conclude(10, "su4 spread", failures)


def test_criterion_11_sine_bracket():
    failures = []
    for d in range(2, 8):
        worst_zv = 0.0
        worst_vz = 0.0
        for m1, m2, n1, n2 in product(range(1, 6), repeat=4):
            tm = t_operator(d, m1, m2)
            tn = t_operator(d, n1, n2)
            tmn = t_operator(d, m1 + n1, m2 + n2)
            wedge = m1 * n2 - m2 * n1
            rhs = 2j * math.sin(math.pi * wedge / d) * tmn
            worst_zv = max(worst_zv, max_abs(commutator(tm, tn) - rhs))

            pm = t_operator(d, m1, m2, ordering="vz")
            pn = t_operator(d, n1, n2, ordering="vz")
            pmn = t_operator(d, m1 + n1, m2 + n2, ordering="vz")
            comm = commutator(pm, pn)
            target = 2 * abs(math.sin(math.pi * wedge / d))
            if target < 1e-12:
                worst_vz = max(worst_vz, max_abs(comm))
            else:
                pivot = np.unravel_index(np.argmax(np.abs(pmn)), pmn.shape)
                lam = comm[pivot] / pmn[pivot]
                worst_vz = max(worst_vz, abs(abs(lam) - target), max_abs(comm - lam * pmn))
        if worst_zv >= 1e-9:
            failures.append(f"d={d}: clock-first bracket residual {worst_zv:.3e}")
        if worst_vz >= 1e-9:
            failures.append(f"d={d}: printed-order proportionality residual {worst_vz:.3e}")
    conclude(11, "sine bracket identities", failures)


def test_criterion_12_continuous_group():
    failures = []
    elements = random_dyadic_elements(2000, seed=77)
    for g, h in zip(elements[:1000], elements[1000:]):
        lhs = hw_matrix(g) @ hw_matrix(h)
        if not np.array_equal(lhs, hw_matrix(hw_matrix_law(g, h))):
            failures.append(f"matrix law differs at {g}, {h}")
            break
        image = hw_matrix(hw_to_matrix_params(g.compose(h)))
        direct = hw_matrix(hw_to_matrix_params(g)) @ hw_matrix(hw_to_matrix_params(h))
        if not np.array_equal(image, direct):
            failures.append(f"bijection fails at {g}, {h}")
            break
    h3, q3, p3 = generator_matrices()
    if not np.array_equal(q3 @ p3 - p3 @ q3, 1j * h3):
        failures.append("[Q3, P3] != i H3")
    conclude(12, "continuous group", failures)


def test_criterion_13_divisibility_pattern():
    failures = []
    for d in range(2, 34):
        value = (d - 1) ** 2 * (d + 1)
        if d % 2 == 0:
            ok = value % 2 == 1
        elif d % 4 == 3:
            ok = value % 16 == 0
        else:
            ok = value % 32 == 0
        if not ok:
            failures.append(f"d={d}: {value} breaks the pattern")
    conclude(13, "divisibility pattern", failures)
