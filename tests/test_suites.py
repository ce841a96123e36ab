import random

import numpy as np
import pytest

from finiteweyl import suites
from finiteweyl.operators import MonomialOperator
from finiteweyl.report import VerificationReport
from finiteweyl.suites import (
    run_suite,
    suite_basis,
    suite_group,
    suite_hw,
    suite_mub,
    suite_su2,
    suite_weyl,
)

# the d(d+1)-1 class count is a prime-modulus statement and its claim
# check is expected to fail at composite d
CLAIM_CHECKS = {"class_count_formula", "group.class_count_formula"}


def failing_names(report):
    return [c.name for c in report.checks if not c.passed]


def test_hw_suite_passes():
    report = suite_hw()
    assert report.overall, failing_names(report)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_group_suite_prime(monkeypatch, d):
    # every check runs on the integer array laws
    monkeypatch.setattr(suites.group_mod, "pd_elements", lambda d: pytest.fail("pd_elements ran"))
    report = suite_group(d)
    assert report.overall, failing_names(report)


@pytest.mark.parametrize("d", [4, 6, 9])
def test_group_suite_composite_fails_only_the_count_claim(d):
    report = suite_group(d)
    assert failing_names(report) == ["class_count_formula"]


@pytest.mark.parametrize("n", [8, 27, 64, 1000, 1728, 4096])
def test_randrange_draws_what_choice_draws(n):
    # some group checks draw indices with randrange and others draw elements
    # with choice from the same generator; both must see the same samples
    seq = [object() for _ in range(n)]
    by_choice, by_index = random.Random(17), random.Random(17)
    for _ in range(5000):
        assert seq[by_index.randrange(len(seq))] is by_choice.choice(seq)
    assert by_index.getstate() == by_choice.getstate()


def flipped_group_law(g, h, d):
    """`pd_compose_array` with the sign of -c b' flipped: the opposite group."""
    g, h = np.asarray(g, dtype=np.int64), np.asarray(h, dtype=np.int64)
    out = g + h
    out[..., 0] += g[..., 2] * h[..., 1]
    return out % d


@pytest.mark.parametrize("d", [4, 12])
def test_group_suite_catches_a_flipped_array_group_law(monkeypatch, d):
    monkeypatch.setattr(suites.group_mod, "pd_compose_array", flipped_group_law)
    failing = set(failing_names(suite_group(d)))
    assert {
        "bracket_matches_monomial_commutator",
        "monomial_representations_are_homomorphisms",
    } <= failing


bracket_terms = suites.group_mod.pd_lie_bracket_terms


def symmetric_bracket(f, f_coeffs, g, g_coeffs, d):
    """`pd_lie_bracket_terms` of gh + hg in place of gh - hg."""
    keys, coeffs = bracket_terms(f, f_coeffs, g, g_coeffs, d)
    return keys, np.abs(coeffs)


def vanishing_bracket(f, f_coeffs, g, g_coeffs, d):
    """`pd_lie_bracket_terms` with each -hg term moved onto its gh: always zero."""
    keys, coeffs = bracket_terms(f, f_coeffs, g, g_coeffs, d)
    keys = keys.copy()
    keys[..., 1::2, :] = keys[..., 0::2, :]
    return keys, coeffs


@pytest.mark.parametrize(
    "bracket, caught",
    [
        (symmetric_bracket, {"bracket_antisymmetry", "bracket_jacobi"}),
        (vanishing_bracket, {"bracket_antisymmetry"}),
    ],
)
@pytest.mark.parametrize("d", [3, 12])
def test_group_suite_catches_a_wrong_bracket(monkeypatch, d, bracket, caught):
    monkeypatch.setattr(suites.group_mod, "pd_lie_bracket_terms", bracket)
    assert caught <= set(failing_names(suite_group(d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_weyl_suite(d):
    report = suite_weyl(d)
    assert report.overall, failing_names(report)


@pytest.mark.parametrize("d", [2, 5, 11])
def test_su2_subset(d):
    report = suite_su2(d)
    assert report.overall and len(report.checks) == 2


def test_weyl_suite_builds_each_t_operator_once_per_sine_check(monkeypatch):
    t_operator, orderings = suites.op_mod.t_operator, []

    def counting(d, m1, m2, ordering="zv"):
        orderings.append(ordering)
        return t_operator(d, m1, m2, ordering)

    monkeypatch.setattr(suites.op_mod, "t_operator", counting)
    report = suite_weyl(3)
    assert report.overall, failing_names(report)
    # digits 1..3 and their sums: 6 x 6 operators for each ordering
    assert orderings == ["zv"] * 36 + ["vz"] * 36


@pytest.mark.parametrize(
    "suite, check",
    [
        (lambda: suite_weyl(3), "w_trace_pairing"),
        (lambda: suite_basis(4, tensor=(2, 2)), "tensor_trace_pairing"),
        (lambda: suite_basis(4, tensor=(2, 2)), "two_qubit_spread"),
    ],
)
def test_a_nan_trace_pairing_fails_its_gram_check(monkeypatch, suite, check):
    trace_gram = suites.op_mod.trace_gram

    def poisoned(operators):
        gram = trace_gram(operators)
        gram[1, 0] = complex(np.nan, 0.0)
        return gram

    monkeypatch.setattr(suites.op_mod, "trace_gram", poisoned)
    monkeypatch.setattr(suites.basis_mod, "trace_gram", poisoned)
    assert check in failing_names(suite())


def test_report_rejects_a_nan_deviation_by_name():
    report = VerificationReport("weyl")
    with pytest.raises(ValueError, match=r"^weyl\.vra_eigenvectors: deviation is NaN$"):
        report.add("vra_eigenvectors", float("nan"), 1e-10)
    assert report.checks == []
    # a NaN tolerance is left to the JSON encoder, which rejects it by its own message
    assert not report.add("bases_orthonormal", 0.0, float("nan")).passed


@pytest.mark.parametrize("p", [2, 3, 7])
def test_mub_suite_prime(p):
    report = suite_mub(p)
    assert report.overall, failing_names(report)
    pair_checks = [c for c in report.checks if c.name.startswith("family_unbiased_")]
    assert len(pair_checks) == (p + 1) * p // 2


def test_mub_suite_p11_has_66_pair_checks():
    report = suite_mub(11)
    pair_checks = [c for c in report.checks if c.name.startswith("family_unbiased_")]
    assert len(pair_checks) == 66 and report.overall


@pytest.mark.parametrize("d", [4, 6, 10])
def test_mub_suite_composite(d):
    report = suite_mub(d)
    assert report.overall, failing_names(report)
    pair_checks = [c for c in report.checks if c.name.startswith("minimal_triple_unbiased_")]
    assert len(pair_checks) == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
def test_basis_suite(d):
    report = suite_basis(d)
    assert report.overall, failing_names(report)


def test_basis_suite_with_tensor():
    report = suite_basis(4, tensor=(2, 2))
    assert report.overall, failing_names(report)
    names = {c.name for c in report.checks}
    assert "tensor_partition_found_and_valid" in names
    assert "search_certifies_incompleteness" in names


def test_basis_suite_builds_each_dense_matrix_once(monkeypatch):
    d = 12
    calls = 0
    to_matrix = MonomialOperator.to_matrix

    def counting_to_matrix(self):
        nonlocal calls
        calls += 1
        return to_matrix(self)

    monkeypatch.setattr(MonomialOperator, "to_matrix", counting_to_matrix)
    report = suite_basis(d)
    assert report.overall, failing_names(report)
    assert 0 < calls <= 2 * d * d


def test_dense_structure_recheck_catches_a_wrong_coefficient(monkeypatch):
    coefficients = suites.basis_mod.CommutatorTable.coefficients

    def corrupted(table, sign="-", index=...):
        full = coefficients(table, sign)
        if sign == "-":
            # the pair ((1, 0), (0, 1)): label (a, b) has index a*d + b
            full[table.d, 1] *= 1.5
        return full[index]

    monkeypatch.setattr(suites.basis_mod.CommutatorTable, "coefficients", corrupted)
    report = suite_basis(3)
    assert "structure_constants_close_dense_commutators" in failing_names(report)


def test_basis_suite_catches_a_wrong_table_entry(monkeypatch):
    build = suites.basis_mod.commutator_table

    def corrupted(d):
        table = build(d)
        # the exponent of u_01 u_10; (0, 1) and (1, 0) do not commute
        table.first[1, d] = (table.first[1, d] + 1) % (2 * d)
        return table

    monkeypatch.setattr(suites.basis_mod, "commutator_table", corrupted)
    failing = set(failing_names(suite_basis(3)))
    assert {
        "structure_constants_close_dense_commutators",
        "structure_constants_antisymmetric_and_vanishing",
    } <= failing


def test_run_suite_dispatch():
    assert run_suite("hw").suite == "hw"
    combined = run_suite("all", d=3)
    assert combined.overall, failing_names(combined)
    prefixes = {c.name.split(".")[0] for c in combined.checks}
    assert prefixes == {"hw", "group", "weyl", "mub", "basis"}
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_run_suite_all_composite_d():
    combined = run_suite("all", d=4)
    assert set(failing_names(combined)) == {"group.class_count_formula"}


def test_su2_suite_runs_only_its_own_checks(monkeypatch):
    monkeypatch.setattr(suites, "suite_weyl", lambda *args: pytest.fail("suite_weyl ran"))
    report = suite_su2(9)
    assert [c.name for c in report.checks] == ["su2_polar_commutations", "su2_ladder_actions"]


@pytest.mark.parametrize(
    "name, kwargs, error",
    [
        ("all", dict(d=17, cap=17), "d=17 exceeds the structure-table cap 16"),
        ("all", dict(d=98, cap=98), "d=98 exceeds the cap 97"),
        ("all", dict(d=1), "dimension must be >= 2, got 1"),
        ("weyl", dict(d=98), "d=98 exceeds the cap 97"),
        ("mub", dict(p=101), "d=101 exceeds the cap 97"),
        ("basis", dict(d=3, p=6, e=2), r"p\^e=6\^2 exceeds the tensor search cap 16"),
    ],
)
def test_run_suite_checks_every_limit_before_any_suite_runs(monkeypatch, name, kwargs, error):
    for suite in ("suite_hw", "suite_group", "suite_weyl", "suite_mub", "suite_basis"):
        monkeypatch.setattr(suites, suite, lambda *args, suite=suite: pytest.fail(f"{suite} ran"))
    with pytest.raises(ValueError, match=error):
        run_suite(name, **kwargs)
