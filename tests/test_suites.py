import math
import random
import types

import numpy as np
import pytest

from finiteweyl import suites
from finiteweyl.group import PdElement
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
from oracles import monomial_checks_per_pair, structure_closure_per_row

# the d(d+1)-1 class count is a prime-modulus statement and its claim
# check is expected to fail at composite d
CLAIM_CHECKS = {"class_count_formula", "group.class_count_formula"}


def failing_names(report):
    return [c.name for c in report.checks if not c.passed]


def track_checks(monkeypatch) -> list:
    """Patch `suites._run` to append each check's name as it starts; [None] before any."""
    run, checks = suites._run, [None]

    def named(report, name, tolerance, fn):
        checks.append(name)
        run(report, name, tolerance, fn)

    monkeypatch.setattr(suites, "_run", named)
    return checks


def test_hw_suite_passes():
    report = suite_hw()
    assert report.overall, failing_names(report)


def refuse_the_scalar_group_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scalar group law was called")

    monkeypatch.setattr(PdElement, "__init__", refuse)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_group_suite_prime(monkeypatch, d):
    # every check runs on the integer array laws
    refuse_the_scalar_group_law(monkeypatch)
    report = suite_group(d)
    assert report.overall, failing_names(report)


@pytest.mark.parametrize("d", [4, 6, 9, 12])
def test_group_suite_composite_fails_only_the_count_claim(monkeypatch, d):
    refuse_the_scalar_group_law(monkeypatch)
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


def entangled_group_law(g, h, d):
    """`pd_compose_array` with c c' added to the shift b: the law no longer
    acts on the cosets (b, c) of the center componentwise."""
    g, h = np.asarray(g, dtype=np.int64), np.asarray(h, dtype=np.int64)
    out = g + h
    out[..., 0] -= g[..., 2] * h[..., 1]
    out[..., 1] += g[..., 2] * h[..., 2]
    return out % d


@pytest.mark.parametrize("d", [3, 12])
def test_quotient_and_character_checks_catch_a_law_that_mixes_the_cosets(monkeypatch, d):
    monkeypatch.setattr(suites.group_mod, "pd_compose_array", entangled_group_law)
    run = suites._run

    def failing_on_error(report, name, tolerance, fn):
        # named_subgroups raises on a subset the law does not close; the
        # checks after it still run
        def verdict():
            try:
                return fn()
            except RuntimeError:
                return False

        run(report, name, tolerance, verdict)

    monkeypatch.setattr(suites, "_run", failing_on_error)
    failing = set(failing_names(suite_group(d)))
    assert {"quotient_by_center_is_double_cyclic", "characters_are_homomorphisms"} <= failing


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


@pytest.mark.parametrize("corrupt", ["exponent", "mask"])
@pytest.mark.parametrize(
    "suite, check",
    [
        (lambda: suite_weyl(3), "w_trace_pairing"),
        (lambda: suite_basis(4, tensor=(2, 2)), "tensor_trace_pairing"),
        (lambda: suite_basis(4, tensor=(2, 2)), "two_qubit_spread"),
    ],
)
def test_a_wrong_trace_entry_fails_its_gram_check(monkeypatch, suite, check, corrupt):
    trace_gram = suites.op_mod.trace_gram

    def corrupted(rows, d):
        exponents, scalar = trace_gram(rows, d)
        if corrupt == "exponent":
            exponents[1, 1] += 1
        else:
            scalar[1, 0] = True
        return exponents, scalar

    monkeypatch.setattr(suites.op_mod, "trace_gram", corrupted)
    monkeypatch.setattr(suites.basis_mod, "trace_gram", corrupted)
    assert check in failing_names(suite())


@pytest.mark.parametrize(
    "clock, passes",
    [
        # at d = 4, Z^2 has the eigenvalues +-1 twice each
        (lambda z: z**2, False),
        # Z^3 has every 4th root of unity once, as the shift has
        (lambda z: z**3, True),
        # tau Z has the same zero traces below k = d, but (tau Z)^d = -I
        (lambda z: MonomialOperator.from_tau_exponent(z.d, 1, 0, 1), False),
    ],
    ids=["Z^2", "Z^3", "tau Z"],
)
def test_isospectral_check_counts_multiplicities(monkeypatch, clock, passes):
    weyl_pair = suites.op_mod.weyl_pair

    def with_other_clock(d):
        x, z = weyl_pair(d)
        return x, clock(z)

    monkeypatch.setattr(suites.op_mod, "weyl_pair", with_other_clock)
    failing = failing_names(suite_weyl(4))
    assert ("shift_and_clock_isospectral" not in failing) == passes


def test_a_repeated_eigenvalue_exponent_fails_the_spectrum_check(monkeypatch):
    exponents = suites.op_mod.v_ra_eigenvalue_exponents

    def repeated(d, r, a):
        out = exponents(d, r, a)
        out[-1] = out[0]
        return out

    monkeypatch.setattr(suites.op_mod, "v_ra_eigenvalue_exponents", repeated)
    assert failing_names(suite_weyl(5)) == ["vra_spectrum_nondegenerate"]


@pytest.mark.parametrize("corrupt", ["exact", "dense"])
def test_a_wrong_spread_gram_fails_the_spread_check(monkeypatch, corrupt):
    if corrupt == "exact":
        trace_orthogonal = suites.basis_mod.trace_orthogonal
        monkeypatch.setattr(
            suites.basis_mod,
            "trace_orthogonal",
            lambda dims, labels: dims != (2, 2) and trace_orthogonal(dims, labels),
        )
    else:
        pauli_stack = suites.basis_mod.pauli_stack

        def doubled_identity(dims, labels):
            out = pauli_stack(dims, labels)
            if dims == (2, 2):
                for i, label in enumerate(labels):
                    if not any(label):
                        out[i] *= 2
            return out

        monkeypatch.setattr(suites.basis_mod, "pauli_stack", doubled_identity)
    assert failing_names(suite_basis(3)) == ["two_qubit_spread"]


@pytest.mark.parametrize("d", [2, 5, 6])
def test_a_wrong_basis_exponent_fails_the_hadamard_column_check(monkeypatch, d):
    table = suites.mub_mod.basis_exponent_table

    def shifted(d, a):
        # column alpha = 1 of every eigenbasis two tau steps off
        out = table(d, a)
        out[:, 1] = (out[:, 1] + 2) % (2 * d)
        return out

    assert "hadamard_columns_share_basis_exponents" not in failing_names(suite_mub(d))
    monkeypatch.setattr(suites.mub_mod, "basis_exponent_table", shifted)
    assert "hadamard_columns_share_basis_exponents" in failing_names(suite_mub(d))


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


class RecordingRandom(random.Random):
    """A `random.Random` that records its draws: each `randrange` lookup opens one chunk.

    A chunk lists the (args, value) of every call made through that lookup,
    so a sampler that binds `rng.randrange` once draws one chunk.
    """

    def __init__(self, seed, made: list):
        super().__init__(seed)
        self.seed_value, self.chunks = seed, []
        made.append(self)

    @property
    def randrange(self):
        chunk, draw = [], super().randrange
        self.chunks.append(chunk)

        def recording(*args):
            chunk.append((args, draw(*args)))
            return chunk[-1][1]

        return recording


@pytest.mark.parametrize(
    "suite, seed, count, bounds, chunk_sizes",
    [
        (
            lambda: suite_group(12),
            17,
            37_670,
            [(1728,)],
            [3_000] * 10 + [40, 30, 600, 3_000, 4_000],
        ),
        (lambda: suite_weyl(12), 23, 2_100, [(24,), (12,), (12,)], None),
        (suite_hw, 5, 1_200, [(200,)], None),
    ],
    ids=["group-12", "weyl-12", "hw"],
)
def test_sampled_draws_stay(monkeypatch, suite, seed, count, bounds, chunk_sizes):
    # every generator a suite makes, and every draw, equal a fresh stream's
    made = []
    monkeypatch.setattr(
        suites, "random", types.SimpleNamespace(Random=lambda s: RecordingRandom(s, made))
    )
    suite()
    assert [rng.seed_value for rng in made] == [seed]
    calls = [call for chunk in made[0].chunks for call in chunk]
    assert len(calls) == count
    assert [args for args, _ in calls] == bounds * (count // len(bounds))
    if chunk_sizes is not None:
        assert [len(chunk) for chunk in made[0].chunks] == chunk_sizes
    fresh = random.Random(seed)
    assert [value for _, value in calls] == [fresh.randrange(*args) for args, _ in calls]


def test_basis_suite_builds_each_dense_matrix_once(monkeypatch):
    # the matrices `operators.monomial_matrix_array` returns to `basis`
    d = 12
    built = 0
    kernel = suites.basis_mod.monomial_matrix_array

    def counting_kernel(rows, dims):
        nonlocal built
        mats = kernel(rows, dims)
        built += math.prod(mats.shape[:-2])
        return mats

    monkeypatch.setattr(suites.basis_mod, "monomial_matrix_array", counting_kernel)
    report = suite_basis(d)
    assert report.overall, failing_names(report)
    assert 0 < built <= 2 * d * d


@pytest.mark.parametrize("lower", [True, False], ids=["lower-triangle", "upper-triangle"])
def test_dense_structure_recheck_catches_a_wrong_coefficient(monkeypatch, lower):
    coefficients = suites.basis_mod.CommutatorTable.coefficients

    def corrupted(table, index=...):
        full = coefficients(table)
        # the pair ((1, 0), (0, 1)) or ((0, 1), (1, 0)): label (a, b) has index a*d + b
        full[(table.d, 1) if lower else (1, table.d)] *= 1.5
        return full[index]

    monkeypatch.setattr(suites.basis_mod.CommutatorTable, "coefficients", corrupted)
    report = suite_basis(3)
    assert "structure_constants_close_dense_commutators" in failing_names(report)


@pytest.mark.parametrize("d", [3, 4, 12])
def test_basis_suite_exact_checks_form_no_complex_number(monkeypatch, d):
    coefficients = suites.basis_mod.CommutatorTable.coefficients
    checks, reads = track_checks(monkeypatch), np.zeros((d * d, d * d), dtype=int)

    def recording(table, index=...):
        assert checks[-1] == "structure_constants_close_dense_commutators"
        reads[index] += 1
        return coefficients(table, index)

    monkeypatch.setattr(suites.basis_mod.CommutatorTable, "coefficients", recording)
    report = suite_basis(d)
    assert report.overall, failing_names(report)
    # the dense recheck alone reads coefficients, each ordered pair once
    assert (reads == 1).all()


@pytest.mark.parametrize(
    "d, corrupt",
    [
        # tau^x + tau^(x + 3) = 0: an anticommutator vanishes at odd d
        (3, lambda first, second: (first + 3) % 6),
        # form 2 at d = 4 is a vanishing anticommutator, which one more tau breaks
        (4, lambda first, second: second + 1),
    ],
    ids=["odd-d-vanishes", "form-2-shifted"],
)
def test_anticommutator_rule_catches_a_wrong_exponent(monkeypatch, d, corrupt):
    build = suites.basis_mod.commutator_table
    labels = suites.basis_mod.pauli_indices(d, include_identity=True)
    form = suites.basis_mod.tensor_commutation_table((d,), labels)
    # the first pair of non-identity labels whose form is 2
    i, j = np.argwhere(form == 2)[0]
    assert i > 0 and j > 0

    def corrupted(d):
        table = build(d)
        table.second[i, j] = corrupt(table.first[i, j], table.second[i, j])
        return table

    monkeypatch.setattr(suites.basis_mod, "commutator_table", corrupted)
    assert "anticommutator_vanishing_rule" in failing_names(suite_basis(d))


@pytest.mark.parametrize("field", ["first", "target"])
def test_basis_suite_catches_a_wrong_table_entry(monkeypatch, field):
    build = suites.basis_mod.commutator_table

    def corrupted(d):
        table = build(d)
        if field == "first":
            # the exponent of u_01 u_10; (0, 1) and (1, 0) do not commute
            table.first[1, d] = (table.first[1, d] + 1) % (2 * d)
        else:
            # the target of u_10 u_01, below the diagonal; target[1, d] stays right
            table.target[d, 1] = (table.target[d, 1] + 1) % (d * d)
        return table

    monkeypatch.setattr(suites.basis_mod, "commutator_table", corrupted)
    failing = set(failing_names(suite_basis(3)))
    assert {
        "structure_constants_close_dense_commutators",
        "structure_constants_antisymmetric_and_vanishing",
    } <= failing


def run_only(monkeypatch, names, suite, d):
    """The deviations of the named checks of suite(d), every other check skipped."""
    with monkeypatch.context() as patch:
        run = suites._run

        def selected(report, name, tolerance, fn):
            if name in names:
                run(report, name, tolerance, fn)

        patch.setattr(suites, "_run", selected)
        return [c.max_deviation for c in suite(d).checks]


@pytest.mark.parametrize("d", range(2, 17))
def test_dense_rechecks_return_the_floats_of_their_per_product_forms(monkeypatch, d):
    # each product once and the monomials stacked, the same float bit for bit
    structure = run_only(
        monkeypatch, {"structure_constants_close_dense_commutators"}, suite_basis, d
    )
    assert structure == [structure_closure_per_row(d)]
    monomials = run_only(
        monkeypatch, {"monomial_product_matches_dense", "monomials_unitary"}, suite_weyl, d
    )
    assert monomials == list(monomial_checks_per_pair(d))


def test_monomial_product_check_catches_one_wrong_product(monkeypatch):
    mul, checks, calls = suites.op_mod.monomial_mul, track_checks(monkeypatch), []

    def one_wrong(u, v):
        uv = mul(u, v)
        if checks[-1] != "monomial_product_matches_dense":
            return uv
        calls.append((u, v))
        if len(calls) != 150:
            return uv
        return MonomialOperator.from_tau_exponent(uv.d, uv.phase.t + 1, uv.shift, uv.clock)

    monkeypatch.setattr(suites.op_mod, "monomial_mul", one_wrong)
    assert failing_names(suite_weyl(5)) == ["monomial_product_matches_dense"]
    assert len(calls) == 300


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


@pytest.mark.parametrize(
    "name, kwargs",
    [("all", dict(d=d)) for d in (2, 3, 4, 12)] + [("basis", dict(d=4, p=2, e=2))],
)
def test_every_exact_check_is_a_bool_decided_without_a_float_spectrum(monkeypatch, name, kwargs):
    # tolerance 0.0 exactly when the check returns a bool, and no exact check
    # reads an eigen- or singular-value routine
    run, kinds, exact = suites._run, {}, []

    def refused(routine):
        def guarded(*args, **kw):
            assert not exact, f"np.linalg.{routine.__name__} called in {exact[0]}"
            return routine(*args, **kw)

        return guarded

    for routine in ("eig", "eigvals", "svd", "matrix_rank"):
        monkeypatch.setattr(np.linalg, routine, refused(getattr(np.linalg, routine)))

    def recording(report, check, tolerance, fn):
        def kind_recorded():
            if tolerance == 0.0:
                exact.append(check)
            try:
                result = fn()
            finally:
                exact.clear()
            kinds[check] = (tolerance, isinstance(result, bool))
            return result

        run(report, check, tolerance, kind_recorded)

    monkeypatch.setattr(suites, "_run", recording)
    run_suite(name, **kwargs)
    wrong = {check: kind for check, kind in kinds.items() if (kind[0] == 0.0) != kind[1]}
    assert kinds and not wrong
