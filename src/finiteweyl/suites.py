"""Named verification suites behind the command-line `verify` command.

Each suite re-derives the identities its module is responsible for and
reports one pass/fail check per identity.  Checks are deterministic:
random sampling uses fixed seeds, orderings are fixed, and timing is kept
out of the payload (it is reported on stderr only).

The group suite evaluates its exact checks with the integer array laws of
`group` and `operators` on (a, b, c) and (t, shift, clock) rows:
associativity, inverses, orbit-stabilizer, the characters and the
monomial representations rho_k as homomorphisms, the bracket's
antisymmetry and Jacobi identity (signed terms that cancel key by key,
row by row) and the bracket's match with the monomial product law.  Its
samples are indices drawn with `rng.randrange`, the call `rng.choice`
makes, so they are the elements the scalar loops drew, in the same order,
from the one shared generator; a failing check may stop drawing at a
different point than the scalar loop did.  The census checks read the
classes of `pd_conjugacy_classes`, (n, 3) int64 arrays, and the named
subgroups, one array each, are tested for closure and normality on the
array law.  The hw suite's pair laws run through `on_pairs`, the two
sine-bracket checks through `brackets` (each t-operator built once per
check), every trace pairing through the integer `operators.trace_gram`,
and the weyl spectra through the tau exponents of v_ra and exact traces.

A check's kind is its return type: at tolerance 0.0 a `bool` decided in
integers, else `operators.residual_norm` of its float residuals; one NaN
entry makes it NaN, which `VerificationReport.add` rejects by check name.

One check is a verdict on a claim that is false in general and fails by
design when exercised in the failing regime: the class-count formula
d(d+1)-1 holds only for prime modulus, so `group.class_count_formula`
fails for composite d.  The suite keeps the check because the package
verifies claims rather than assuming them.
"""

from __future__ import annotations

import math
import random
import time
from itertools import accumulate, combinations, product
from typing import Callable, Iterator

import numpy as np

from . import basis as basis_mod
from . import group as group_mod
from . import heisenberg as hw_mod
from . import limits
from . import mub as mub_mod
from . import operators as op_mod
from .report import DEFAULT_TOLERANCE, VerificationReport


def _run(
    report: VerificationReport,
    name: str,
    tolerance: float,
    fn: Callable[[], float | bool],
) -> None:
    t0 = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - t0
    deviation = (0.0 if result else 1.0) if isinstance(result, bool) else float(result)
    report.add(name, deviation, tolerance, elapsed)


# ---------------------------------------------------------------------------
# Continuous group
# ---------------------------------------------------------------------------


def _dyadic_grid() -> list[hw_mod.HWElement]:
    values = [-1.0, -0.5, 0.0, 0.5, 1.0]
    return [hw_mod.HWElement(x, y, z) for x, y, z in product(values, repeat=3)]


def suite_hw() -> VerificationReport:
    report = VerificationReport("hw")
    grid = _dyadic_grid()
    pairs = hw_mod.random_dyadic_elements(200, seed=11)

    def on_pairs(law: Callable[..., bool]) -> Callable[[], bool]:
        # the law on the 100 sampled pairs (g, h), up to the first pair that breaks it
        return lambda: all(law(g, h) for g, h in zip(pairs[:100], pairs[100:]))

    def composed_laws() -> bool:
        ident = hw_mod.HW_IDENTITY
        return all(g.compose(g.inverse()) == ident and ident.compose(g) == g for g in grid)

    _run(report, "identity_and_inverse", 0.0, composed_laws)

    def commutator_closed(g: hw_mod.HWElement, h: hw_mod.HWElement) -> bool:
        return hw_mod.hw_commutator(g, h) == hw_mod.hw_commutator_closed(g, h)

    def commute_iff(g: hw_mod.HWElement, h: hw_mod.HWElement) -> bool:
        return (g.compose(h) == h.compose(g)) == hw_mod.hw_commutes(g, h)

    def conjugation_closed(g: hw_mod.HWElement, h: hw_mod.HWElement) -> bool:
        return hw_mod.hw_conjugate(g, h) == hw_mod.hw_conjugate_closed(g, h)

    _run(report, "commutator_closed_form", 0.0, on_pairs(commutator_closed))
    _run(report, "commute_iff_cross_term_vanishes", 0.0, on_pairs(commute_iff))
    _run(report, "conjugation_closed_form", 0.0, on_pairs(conjugation_closed))

    def associativity() -> bool:
        rng = random.Random(5)
        for _ in range(400):
            g, h, k = (pairs[rng.randrange(len(pairs))] for _ in range(3))
            if g.compose(h).compose(k) != g.compose(h.compose(k)):
                return False
        return True

    _run(report, "associativity", 0.0, associativity)

    def matrix_law(g: hw_mod.HWElement, h: hw_mod.HWElement) -> bool:
        lhs = hw_mod.hw_matrix(g) @ hw_mod.hw_matrix(h)
        return np.array_equal(lhs, hw_mod.hw_matrix(hw_mod.hw_matrix_law(g, h)))

    _run(report, "matrix_composition_law", 0.0, on_pairs(matrix_law))

    def isomorphism(g: hw_mod.HWElement, h: hw_mod.HWElement) -> bool:
        model = hw_mod.hw_to_matrix_params
        lhs = hw_mod.hw_matrix(model(g)) @ hw_mod.hw_matrix(model(h))
        return np.array_equal(lhs, hw_mod.hw_matrix(model(g.compose(h))))

    _run(report, "matrix_model_isomorphism", 0.0, on_pairs(isomorphism))

    _run(report, "lie_brackets", 0.0, lambda: hw_mod.hw_lie_check()["overall"])

    def exp_series() -> float:
        scaled = (hw_mod.HWElement(g.x / 4, g.y / 4, g.z / 4) for g in pairs[:50])
        return op_mod.residual_norm(
            hw_mod.series_exponential(s) - hw_mod.hw_matrix(s) for s in scaled
        )

    _run(report, "exponential_matches_series", 1e-10, exp_series)

    def ambivalence() -> bool:
        return all(hw_mod.hw_class_is_ambivalent(g) == (g == hw_mod.HW_IDENTITY) for g in grid)

    _run(report, "only_identity_class_ambivalent", 0.0, ambivalence)
    return report


# ---------------------------------------------------------------------------
# Finite group
# ---------------------------------------------------------------------------


def suite_group(d: int = 3, cap: int = limits.DEFAULT_BRUTE_FORCE_CAP) -> VerificationReport:
    report = VerificationReport("group")
    array = group_mod.pd_element_array(d)
    compose, bracket = group_mod.pd_compose_array, group_mod.pd_lie_bracket_terms
    one = np.ones(1, dtype=np.int64)
    rng = random.Random(17)

    def draw(count: int) -> np.ndarray:
        # rng.randrange(n) is the call rng.choice makes on n elements, so the
        # samples are the elements the scalar loops drew with rng.choice
        randrange, n = rng.randrange, len(array)
        return array[[randrange(n) for _ in range(count)]]

    def cancels(keys: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        # row by row, whether the signed terms sum to zero on every key
        rows = np.arange(len(keys))[:, None]
        codes = ((rows * d + keys[..., 0]) * d + keys[..., 1]) * d + keys[..., 2]
        unique, slots = np.unique(codes, return_inverse=True)
        sums = np.bincount(slots.ravel(), weights=coeffs.ravel())
        return np.bincount(unique[sums != 0] // d**3, minlength=len(keys)) == 0

    def associativity() -> bool:
        # 1,000 triples at a time, which keeps every work array small; the
        # samples are drawn a chunk at a time, as the scalar loop drew them
        if d <= 3:
            triples = array[np.indices((len(array),) * 3).reshape(3, -1).T]
            chunks = (triples[i : i + 1_000] for i in range(0, len(triples), 1_000))
        else:
            chunks = (draw(3_000).reshape(-1, 3, 3) for _ in range(10))
        for chunk in chunks:
            g, h, k = chunk.transpose(1, 0, 2)
            if not np.array_equal(compose(compose(g, h, d), k, d), compose(g, compose(h, k, d), d)):
                return False
        return True

    _run(report, "associativity", 0.0, associativity)

    def inverses() -> bool:
        return not compose(array, group_mod.pd_inverse_array(array, d), d).any()

    _run(report, "inverses", 0.0, inverses)

    census = group_mod.pd_conjugacy_classes(d, cap)

    def census_consistent() -> bool:
        total = sum(len(cls) for cls in census.classes)
        if total != d**3 or census.singleton_count != d:
            return False
        # orbit-stabilizer: |class| * |centralizer| = |group|
        sizes = np.array([len(cls) for cls in census.classes])
        representatives = np.array([cls[0] for cls in census.classes])
        return bool((sizes * group_mod.pd_centralizer_sizes(representatives, d) == d**3).all())

    _run(report, "class_census_brute_force", 0.0, census_consistent)
    _run(
        report,
        "class_count_formula",
        0.0,
        lambda: census.class_count == d * (d + 1) - 1,
    )
    _run(
        report,
        "center_classes_are_singletons",
        0.0,
        lambda: all(
            len(cls) == 1 for cls in census.classes if not cls[0, 1:].any()
        ),
    )
    def centralizers() -> bool:
        sizes = group_mod.pd_centralizer_sizes(array, d)
        central = (array[:, 1] == 0) & (array[:, 2] == 0)
        return bool((sizes % d**2 == 0).all() and np.array_equal(sizes == d**3, central))

    _run(report, "centralizers_multiple_of_d_squared", 0.0, centralizers)
    _run(report, "ambivalent_only_for_d2", 0.0, lambda: group_mod.pd_is_ambivalent(census) == (d == 2))

    def burnside() -> bool:
        one_dim, d_dim = group_mod.pd_irrep_counts(d)
        return one_dim == d * d and d_dim == d - 1

    _run(report, "squared_dimension_identity", 0.0, burnside)
    _run(report, "center_is_center", 0.0, lambda: group_mod.pd_center_is_center(d))
    _run(
        report,
        "quotient_by_center_is_double_cyclic",
        0.0,
        lambda: group_mod.pd_quotient_is_double_cyclic(d),
    )

    def subgroups() -> bool:
        table = {s.name: s for s in group_mod.pd_named_subgroups(d, cap)}
        expectations = {
            "center": (True, f"cyclic-Z{d}"),
            "shift-axis": (False, f"cyclic-Z{d}"),
            "clock-axis": (False, f"cyclic-Z{d}"),
            "phase-shift-plane": (True, f"Z{d}xZ{d}"),
            "phase-clock-plane": (True, f"Z{d}xZ{d}"),
        }
        for name, (normal, tag) in expectations.items():
            sub = table[name]
            if sub.is_normal != normal or sub.isomorphism != tag:
                return False
        diagonal = table["diagonal-plane"]
        return diagonal.is_normal and diagonal.isomorphism != "nonabelian"

    _run(report, "named_subgroups", 0.0, subgroups)

    def characters() -> bool:
        sample = array if d <= 3 else draw(40)
        g, h = sample[:, None, :], sample[None, :10, :]
        products = compose(g, h, d)
        for m, n in product(range(d), repeat=2):
            chi_g, chi_h, chi_gh = (
                group_mod.pd_character_exponents(m, n, x, d) for x in (g, h, products)
            )
            if not np.array_equal(chi_gh, (chi_g + chi_h) % (2 * d)):
                return False
        return True

    _run(report, "characters_are_homomorphisms", 0.0, characters)

    def irreps() -> bool:
        sample = array if d <= 3 else draw(30)
        g, h = sample[:, None, :], sample[None, :10, :]
        products = compose(g, h, d)
        for k in range(1, d):
            rho_g, rho_h, rho_gh = (group_mod.pd_irrep_array(k, x, d) for x in (g, h, products))
            if not np.array_equal(op_mod.monomial_mul_array(rho_g, rho_h, d), rho_gh):
                return False
        return True

    _run(report, "monomial_representations_are_homomorphisms", 0.0, irreps)

    def irrep_norms() -> bool:
        return all(group_mod.irrep_character_norm(k, d) == math.gcd(k, d) for k in range(1, d))

    _run(report, "character_norms_count_components", 0.0, irrep_norms)

    def bracket_properties() -> bool:
        g, h = draw(600).reshape(-1, 2, 1, 3).transpose(1, 0, 2, 3)
        gh, hg = bracket(g, one, h, one, d), bracket(h, one, g, one, d)
        # [g, g] = 0, [g, h] + [h, g] = 0, and [g, h] = 0 iff c b' - b c' = 0
        vanishes = (g[:, 0, 2] * h[:, 0, 1] - g[:, 0, 1] * h[:, 0, 2]) % d == 0
        return bool(
            cancels(*bracket(g, one, g, one, d)).all()
            and cancels(*(np.concatenate(parts, axis=1) for parts in zip(gh, hg))).all()
            and np.array_equal(cancels(*gh), vanishes)
        )

    _run(report, "bracket_antisymmetry", 0.0, bracket_properties)

    def jacobi() -> bool:
        g, h, k = draw(3_000).reshape(-1, 3, 1, 3).transpose(1, 0, 2, 3)
        # [[g, h], k] + [[h, k], g] + [[k, g], h]: 12 signed terms per triple
        nested = [
            bracket(*bracket(x, one, y, one, d), z, one, d)
            for x, y, z in ((g, h, k), (h, k, g), (k, g, h))
        ]
        return bool(cancels(*(np.concatenate(parts, axis=1) for parts in zip(*nested))).all())

    _run(report, "bracket_jacobi", 0.0, jacobi)

    def bracket_monomial() -> bool:
        # the bracket's terms gh and hg are the monomials w(g) w(h) and
        # w(h) w(g), with w(a, b, c) = q^a X^b Z^c = rho_1(a, b, c): the
        # monomial law on the left, the group law on the right
        if d <= 4:
            g, h = array[:, None, :], array[None, :, :]
        else:
            g, h = draw(4_000).reshape(-1, 2, 3).transpose(1, 0, 2)
        wg, wh = group_mod.pd_irrep_array(1, g, d), group_mod.pd_irrep_array(1, h, d)
        return all(
            np.array_equal(op_mod.monomial_mul_array(wx, wy, d), group_mod.pd_irrep_array(1, xy, d))
            for wx, wy, xy in ((wg, wh, compose(g, h, d)), (wh, wg, compose(h, g, d)))
        )

    _run(report, "bracket_matches_monomial_commutator", 0.0, bracket_monomial)

    def order_minus_classes() -> bool:
        value = group_mod.class_count_minus_order_factor(d)
        if d % 2 == 0:
            return value % 2 == 1
        if d % 4 == 3:
            return value % 16 == 0
        return value % 32 == 0

    _run(report, "order_minus_class_count_divisibility", 0.0, order_minus_classes)
    return report


# ---------------------------------------------------------------------------
# Weyl operators
# ---------------------------------------------------------------------------


def suite_weyl(d: int = 4, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    report = VerificationReport("weyl")
    x, z = op_mod.weyl_pair(d)
    rng = random.Random(23)

    def weyl_relations() -> bool:
        q = op_mod.MonomialOperator.w(d, 1, 0, 0)
        if op_mod.monomial_mul(x, z) != op_mod.monomial_mul(q, op_mod.monomial_mul(z, x)):
            return False
        return x**d == op_mod.MonomialOperator.identity(d) and z**d == op_mod.MonomialOperator.identity(d)

    _run(report, "weyl_pair_relations_exact", 0.0, weyl_relations)

    def random_row() -> tuple[int, int, int]:
        # the (t, shift, clock) of a random monomial, drawn in that order
        return rng.randrange(2 * d), rng.randrange(d), rng.randrange(d)

    def monomial(row: tuple[int, int, int]) -> op_mod.MonomialOperator:
        return op_mod.MonomialOperator.from_tau_exponent(d, *row)

    def dense_chunks(rows: np.ndarray) -> Iterator[np.ndarray]:
        # the (n, m, 3) rows' monomial matrices, about 2^15 complex entries at a time
        step = max(1, 2**15 // (rows.shape[1] * d * d))
        for start in range(0, len(rows), step):
            yield op_mod.monomial_matrix_array(rows[start : start + step], d)

    def monomial_vs_dense() -> float:
        # rows of u, v and u v, the product by monomial_mul, pair by pair
        triples = []
        for _ in range(300):
            u, v = random_row(), random_row()
            uv = op_mod.monomial_mul(monomial(u), monomial(v))
            triples.append((u, v, (uv.phase.t, uv.shift, uv.clock)))
        return op_mod.residual_norm(
            mats[:, 0] @ mats[:, 1] - mats[:, 2] for mats in dense_chunks(np.array(triples))
        )

    _run(report, "monomial_product_matches_dense", 1e-12, monomial_vs_dense)

    def monomial_unitary() -> float:
        rows = np.array([[random_row()] for _ in range(100)])
        return op_mod.residual_norm(
            mats[:, 0].conj().swapaxes(-2, -1) @ mats[:, 0] - np.eye(d)
            for mats in dense_chunks(rows)
        )

    _run(report, "monomials_unitary", 1e-12, monomial_unitary)

    def vra_cyclic() -> float:
        return op_mod.residual_norm(
            np.linalg.matrix_power(op_mod.v_ra_matrix(d, r, a), d)
            - np.exp(1j * np.pi * (d - 1) * (a + r)) * np.eye(d)
            for r, a in product((0.0, 1.0, 0.37), range(d))
        )

    _run(report, "vra_cyclic_power", 1e-10, vra_cyclic)

    def vra_eigensystem() -> float:
        def residuals():
            for r, a in product((0, 1), range(d)):
                v = op_mod.v_ra_matrix(d, r, a)
                for alpha in range(d):
                    vec = op_mod.v_ra_eigenvector(d, r, a, alpha)
                    yield v @ vec - op_mod.v_ra_eigenvalue(d, r, a, alpha) * vec

        return op_mod.residual_norm(residuals())

    _run(report, "vra_eigenvectors", 1e-10, vra_eigensystem)

    def vra_spectrum_nondegenerate() -> bool:
        exponents = op_mod.v_ra_eigenvalue_exponents
        return all(len(set(exponents(d, r, a).tolist())) == d for r, a in product((0, 1), range(d)))

    _run(report, "vra_spectrum_nondegenerate", 0.0, vra_spectrum_nondegenerate)

    def vra_factorization() -> float:
        zmat = z.to_matrix()
        return op_mod.residual_norm(
            op_mod.v_ra_matrix(d, r, a)
            - op_mod.v_ra_matrix(d, r, 0) @ np.linalg.matrix_power(zmat, a)
            for r, a in product((0.0, 1.0, 0.37), range(d))
        )

    _run(report, "vra_equals_vr0_clock_power", 1e-12, vra_factorization)

    def shift_clock_isospectral() -> bool:
        # equal Tr X^k and Tr Z^k, k = 1..d, fix the spectra with multiplicity (Newton)
        powers = (accumulate([g] * d, op_mod.monomial_mul) for g in (x, z))
        return all(u.trace_exact() == v.trace_exact() for u, v in zip(*powers))

    _run(report, "shift_and_clock_isospectral", 0.0, shift_clock_isospectral)

    def fourier_identities() -> float:
        f = op_mod.fourier_matrix(d)
        residuals = [
            op_mod.unitary_defect(f),
            np.linalg.matrix_power(f, 4) - np.eye(d),
            f @ x.to_matrix() @ f.conj().T - z.to_matrix(),
        ]
        return op_mod.residual_norm(residuals)

    _run(report, "fourier_identities", 1e-10, fourier_identities)

    _su2_checks(report, d, tolerance)

    def brackets(ordering: str) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
        # [t_m, t_n], t_(m+n) and m x n for the digits 1..3, each t-operator built once
        t = {mn: op_mod.t_operator(d, *mn, ordering) for mn in product(range(1, 7), repeat=2)}
        for m1, m2, n1, n2 in product(range(1, 4), repeat=4):
            tm, tn = t[m1, m2], t[n1, n2]
            yield tm @ tn - tn @ tm, t[m1 + n1, m2 + n2], m1 * n2 - m2 * n1

    def sine_bracket_zv() -> float:
        return op_mod.residual_norm(
            comm - 2j * math.sin(math.pi * wedge / d) * tmn for comm, tmn, wedge in brackets("zv")
        )

    _run(report, "sine_bracket_clock_first", tolerance, sine_bracket_zv)

    def sine_bracket_vz_modulus() -> float:
        def residuals():
            for comm, tmn, wedge in brackets("vz"):
                target = 2 * abs(math.sin(math.pi * wedge / d))
                if target < 1e-12:
                    yield comm
                    continue
                pivot = np.unravel_index(np.argmax(np.abs(tmn)), tmn.shape)
                lam = comm[pivot] / tmn[pivot]
                yield abs(abs(lam) - target)
                yield comm - lam * tmn

        return op_mod.residual_norm(residuals())

    _run(report, "sine_bracket_printed_order_modulus", tolerance, sine_bracket_vz_modulus)

    def trace_pairing() -> bool:
        # Tr(w(a, b, c)^dagger w(a', b', c')) = d q^(a'-a) when the powers match, else 0;
        # w(a, b, c) = tau^(2a) X^b Z^c is the row (2a, b, c)
        abc = np.array(list(product(range(min(d, 3)), repeat=3)))
        exponents, scalar = op_mod.trace_gram((abc * (2, 1, 1))[:, None], d)
        expected = (2 * (abc[:, 0] - abc[:, :1])) % (2 * d)
        match = (abc[:, None, 1:] == abc[:, 1:]).all(axis=-1)
        return np.array_equal(scalar, match) and np.array_equal(exponents[match], expected[match])

    _run(report, "w_trace_pairing", 0.0, trace_pairing)
    return report


def _su2_checks(report: VerificationReport, d: int, tolerance: float) -> None:
    def su2_commutations() -> float:
        def residuals():
            for r, a in product((0, 1), range(d)):
                jp, jm, jz = op_mod.polar_su2_ops(d, r, a)
                yield jz @ jp - jp @ jz - jp
                yield jz @ jm - jm @ jz + jm
                yield jp @ jm - jm @ jp - 2 * jz

        return op_mod.residual_norm(residuals())

    _run(report, "su2_polar_commutations", tolerance, su2_commutations)

    def su2_ladder_phases() -> float:
        def residuals():
            for r, a in product((0, 1), range(d)):
                jp, jm, jz = op_mod.polar_su2_ops(d, r, a)
                lp, lm = op_mod.ladder_matrices(d, a)
                yield jp - lp
                yield jm - lm
                yield jz - op_mod.jz_matrix(d)

        return op_mod.residual_norm(residuals())

    _run(report, "su2_ladder_actions", tolerance, su2_ladder_phases)


def suite_su2(d: int, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Just the angular-momentum polar-decomposition checks, for `weyl su2-check`."""
    limits.check_dense(d)
    report = VerificationReport("su2")
    _su2_checks(report, d, tolerance)
    return report


# ---------------------------------------------------------------------------
# Mutually unbiased bases
# ---------------------------------------------------------------------------


def suite_mub(d: int = 3, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """The complete family for prime d, the minimal triple otherwise."""
    report = VerificationReport("mub")

    def orthonormal() -> float:
        return op_mod.residual_norm(mub_mod.basis_b0a(d, a).gram_defect() for a in range(d))

    _run(report, "bases_orthonormal", 1e-10, orthonormal)

    def eigen_relation() -> float:
        def residuals():
            for a in range(d):
                v = op_mod.v_ra_matrix(d, 0, a)
                vectors = mub_mod.basis_b0a(d, a).vectors
                for alpha in range(d):
                    lam = op_mod.v_ra_eigenvalue(d, 0, a, alpha)
                    yield v @ vectors[:, alpha] - lam * vectors[:, alpha]

        return op_mod.residual_norm(residuals())

    _run(report, "bases_diagonalize_weighted_shift", 1e-10, eigen_relation)

    def hadamard_identities() -> float:
        def residuals():
            for a in range(d):
                h = mub_mod.hadamard_h_a(d, a)
                yield h.gram_defect()
                yield np.abs(h.to_matrix()) - 1.0
                yield mub_mod.hadamard_reduction_defect(d, a)

        return op_mod.residual_norm(residuals())

    _run(report, "hadamard_identities", tolerance, hadamard_identities)

    def hadamard_columns() -> bool:
        # column alpha of H_a against the exponents of v_ra_eigenvector(d, 0, a, alpha)
        k, alpha = np.ogrid[:d, :d]
        weight, column = (d - 1 - k) * (k + 1), 2 * (d - 1 - k) * alpha
        return all(
            np.array_equal(mub_mod.hadamard_h_a(d, a).exponents, (weight * a + column) % (2 * d))
            for a in range(d)
        )

    _run(report, "hadamard_columns_share_basis_exponents", 0.0, hadamard_columns)
    _run(
        report,
        "fourier_hadamard_clock_corrected",
        1e-10,
        lambda: mub_mod.fourier_hadamard_corrected_residual(d),
    )

    if limits.is_prime(d):
        bases = mub_mod.mub_family(d)
        prefix = "family_unbiased"
    else:
        bases = mub_mod.minimal_triple(d)
        prefix = "minimal_triple_unbiased"
    pairs = list(combinations(range(len(bases)), 2))
    t0 = time.perf_counter()
    deviations = mub_mod.pairwise_deviations(bases)
    elapsed = (time.perf_counter() - t0) / max(len(pairs), 1)
    for i, j in pairs:
        name = f"{prefix}_{bases[i].label}_{bases[j].label}"
        report.add(name, float(deviations[i, j]), tolerance, elapsed)
    return report


# ---------------------------------------------------------------------------
# Pauli basis of u(d)
# ---------------------------------------------------------------------------


def suite_basis(
    d: int = 3,
    tensor: tuple[int, int] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    report = VerificationReport("basis")
    table = basis_mod.commutator_table(d)
    labels = basis_mod.pauli_indices(d, include_identity=True)

    _run(report, "hilbert_schmidt_orthogonality", 0.0, lambda: basis_mod.hs_orthogonality(d))

    def determinants() -> bool:
        if d % 2 == 0:
            return True
        return all(
            basis_mod.u_ab(d, a, b).determinant().is_one for a, b in labels
        )

    _run(report, "odd_dimension_special_unitary", 0.0, determinants)

    def structure_closure() -> float:
        # dense products, an independent float recheck of the exact table:
        # row i forms u_i u_j and u_j u_i once, for the labels j >= i, and
        # checks [u_i, u_j] and [u_j, u_i] against their own table entries.
        # The later labels come in at most two slices, so the three work
        # arrays hold half the labels each
        mats = basis_mod.pauli_stack((d,), labels)
        n = len(mats)
        step = (n + 1) // 2
        commutators, work = np.empty_like(mats[:step]), np.empty_like(mats[:step])
        magnitudes = np.empty(work.shape)

        def deviation(commutator: np.ndarray, index: tuple, combine: np.ufunc) -> float:
            # |combine(commutator, coefficient u_target)| over the table entries at index
            size = len(commutator)
            # the targets are in range; mode="clip" only spares take's buffered copy
            expected = np.take(mats, table.target[index], axis=0, out=work[:size], mode="clip")
            # coefficient first: numpy's c * M and M * c can differ in the last bit
            coefficients = table.coefficients(index)[:, None, None]
            residual = combine(
                commutator, np.multiply(coefficients, expected, out=expected), out=expected
            )
            return np.max(np.abs(residual, out=magnitudes[:size]), initial=0.0)

        def slice_maxima():
            for i, left in enumerate(mats):
                for start in range(i, n, step):
                    later = slice(start, min(start + step, n))
                    size = later.stop - start
                    commutator = np.matmul(left, mats[later], out=commutators[:size])
                    commutator -= np.matmul(mats[later], left, out=work[:size])
                    yield deviation(commutator, (i, later), np.subtract)
                    # fl(-x - y) = -fl(x + y), so [u_j, u_i] - c u_k, formed as
                    # -[u_i, u_j] - c u_k, has the magnitudes of the sum; the
                    # pair (i, i) was read above
                    skip = int(start == i)
                    index = (slice(start + skip, later.stop), i)
                    yield deviation(commutator[skip:], index, np.add)

        return op_mod.residual_norm(slice_maxima())

    _run(report, "structure_constants_close_dense_commutators", 1e-12, structure_closure)
    # built after the dense recheck, which keeps it off that check's peak memory
    form = basis_mod.tensor_commutation_table((d,), labels)

    def antisymmetry_and_vanishing() -> bool:
        # u_j u_i = tau^first[j, i] u_k is the second term of [u_i, u_j], so
        # first.T == second makes the coefficients antisymmetric bit for bit
        return bool(
            np.array_equal(table.target, table.target.T)
            and np.array_equal(table.first.T, table.second)
            and np.array_equal(table.first == table.second, form == 0)
        )

    _run(report, "structure_constants_antisymmetric_and_vanishing", 0.0, antisymmetry_and_vanishing)

    def anticommutators() -> bool:
        # tau^first + tau^second = 0 exactly when second = first + d mod 2d;
        # the identity label 0 is left out
        vanish = ((table.first - table.second) % (2 * d) == d)[1:, 1:]
        # ab' - ba' comes reduced mod d, which leaves (2 form - d) mod 2d as it is
        rule = (2 * form[1:, 1:] - d) % (2 * d) == 0
        return bool(np.array_equal(vanish, rule) and not (d % 2 == 1 and vanish.any()))

    _run(report, "anticommutator_vanishing_rule", 0.0, anticommutators)

    if limits.is_prime(d):
        partition = basis_mod.cartan_partition(d)
        _run(
            report,
            "prime_partition_valid",
            0.0,
            lambda: basis_mod.validate_cartan_partition(partition) and partition.complete,
        )
        _run(
            report,
            "prime_partition_dense_commuting",
            1e-12,
            lambda: basis_mod.partition_dense_commutation_defect(partition),
        )
        if limits.searchable(d):
            _run(
                report,
                "search_rediscovers_prime_partition",
                0.0,
                lambda: basis_mod.commuting_class_search(d).classes == partition.classes,
            )
        if d <= 7:
            def joint_eigenbases() -> float:
                bases = [mub_mod.computational_basis(d)]
                for cls in partition.classes[1:]:
                    generator = basis_mod.u_ab(d, *cls[0]).to_matrix()
                    _, vectors = np.linalg.eig(generator)
                    bases.append(
                        mub_mod.OrthonormalBasis(d=d, label=str(cls[0]), vectors=vectors)
                    )
                return op_mod.residual_norm([mub_mod.pairwise_deviations(bases)])

            _run(report, "class_eigenbases_mutually_unbiased", tolerance, joint_eigenbases)
    elif limits.searchable(d):
        def incomplete_search() -> bool:
            result = basis_mod.commuting_class_search(d)
            if result.complete:
                return False
            if d == 4:
                return result.classes == [
                    [(0, 1), (0, 2), (0, 3)],
                    [(1, 0), (2, 0), (3, 0)],
                    [(1, 1), (2, 2), (3, 3)],
                ]
            return True

        _run(report, "search_certifies_incompleteness", 0.0, incomplete_search)

    if tensor is not None:
        p, e = tensor

        def tensor_partition() -> bool:
            part = basis_mod.cartan_partition_prime_power(p, e)
            return basis_mod.validate_cartan_partition(part) and part.complete

        _run(report, "tensor_partition_found_and_valid", 0.0, tensor_partition)

        def tensor_traces() -> bool:
            # twelve distinct labels and the identity: Tr(u^dagger v) = p^e delta
            dims = (p,) * e
            labels = basis_mod.tensor_indices(dims)[:12] + [(0,) * (2 * e)]
            return basis_mod.trace_orthogonal(dims, labels)

        _run(report, "tensor_trace_pairing", 0.0, tensor_traces)

    _run(report, "two_qubit_spread", 0.0, lambda: basis_mod.su4_spread_check().overall)
    return report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run_suite(
    name: str,
    d: int = 3,
    p: int | None = None,
    e: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    cap: int = limits.DEFAULT_BRUTE_FORCE_CAP,
) -> VerificationReport:
    """Run one suite, or each in turn for "all", once every limit of the request is checked."""
    if name == "mub" and p is not None:
        d = p
    if name == "basis" and (p is None) != (e is None):
        raise ValueError(f"the tensor checks need both p and e, got p={p}, e={e}")
    if name == "basis" and p is not None:
        limits.check_tensor(p, e)
    if name in ("group", "all"):
        limits.check_brute_force(d, cap)
    if name in ("weyl", "mub", "all"):
        limits.check_dense(d)
    if name in ("basis", "all"):
        limits.check_structure_table(d)
    if name == "hw":
        return suite_hw()
    if name == "group":
        return suite_group(d, cap)
    if name == "weyl":
        return suite_weyl(d, tolerance)
    if name == "mub":
        return suite_mub(d, tolerance)
    if name == "basis":
        return suite_basis(d, None if p is None else (p, e), tolerance)
    if name == "all":
        combined = VerificationReport("all")
        combined.extend(suite_hw())
        combined.extend(suite_group(d, cap))
        combined.extend(suite_weyl(d, tolerance))
        combined.extend(suite_mub(d, tolerance))
        combined.extend(suite_basis(d, None, tolerance))
        return combined
    raise ValueError(f"unknown suite {name!r}")
