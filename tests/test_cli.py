import argparse
import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finiteweyl.cli as cli_mod
import finiteweyl.group as group_mod
import finiteweyl.operators as op_mod
from finiteweyl.basis import cartan_partition
from finiteweyl.cli import main
from finiteweyl.serialize import export


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hw_check(capsys):
    code, out, err = run_cli(capsys, "hw", "check")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert payload["suite"] == "hw"
    assert all("elapsed" not in c for c in payload["checks"])


def test_group_classes(capsys):
    code, out, _ = run_cli(capsys, "group", "classes", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 5
    assert payload["singleton_count"] == 2
    assert payload["classes"][0] == [[0, 0, 0]]
    # deterministic lexicographic ordering by minimal representative
    minimals = [cls[0] for cls in payload["classes"]]
    assert minimals == sorted(minimals)


def test_group_centralizer(capsys):
    code, out, _ = run_cli(capsys, "group", "centralizer", "--d", "4", "--elem", "0,2,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["centralizer_size"] == 32
    assert payload["class_size"] == 2


def test_group_centralizer_requires_elem(capsys):
    code, _, err = run_cli(capsys, "group", "centralizer", "--d", "4")
    assert code == 2
    assert "elem" in err


def test_group_subgroups(capsys):
    code, out, _ = run_cli(capsys, "group", "subgroups", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    names = [s["name"] for s in payload["subgroups"]]
    assert names == [
        "center",
        "shift-axis",
        "clock-axis",
        "phase-shift-plane",
        "phase-clock-plane",
        "diagonal-plane",
    ]


def test_group_irreps(capsys):
    code, out, _ = run_cli(capsys, "group", "irreps", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["one_dimensional"] == 9
    assert payload["claimed_d_dimensional"] == 2
    assert all(entry["irreducible"] for entry in payload["monomial_representations"])


def test_weyl_pair_exact_json(capsys):
    code, out, _ = run_cli(capsys, "weyl", "pair", "--d", "3", "--format", "exact-json")
    assert code == 0
    payload = json.loads(out)
    assert payload["X"] == {
        "schema": 1,
        "type": "monomial",
        "d": 3,
        "tau_exp": 0,
        "shift": 1,
        "clock": 0,
    }
    assert payload["Z"]["clock"] == 1


def test_weyl_pair_dense_csv(capsys):
    code, out, _ = run_cli(capsys, "weyl", "pair", "--d", "2", "--format", "dense-csv")
    assert code == 0
    assert out.splitlines() == [
        "# X",
        "0,0,1,0",
        "1,0,0,0",
        "# Z",
        "1,0,0,0",
        "0,0,-1,0",
    ]


def test_weyl_vra_and_fourier(capsys):
    code, out, _ = run_cli(capsys, "weyl", "vra", "--d", "2", "--r", "1", "--a", "0")
    assert code == 0
    payload = json.loads(out)
    mat = np.array(payload["re"]) + 1j * np.array(payload["im"])
    assert np.max(np.abs(mat - np.array([[0, 1], [-1, 0]]))) < 1e-12

    code, out, _ = run_cli(capsys, "weyl", "fourier", "--d", "2")
    payload = json.loads(out)
    mat = np.array(payload["re"]) + 1j * np.array(payload["im"])
    assert np.max(np.abs(mat - np.array([[1, 1], [1, -1]]) / np.sqrt(2))) < 1e-12


@pytest.mark.parametrize("a", [7, -1, 10**20, 10**400])
def test_weyl_vra_reads_an_integer_a_mod_d(capsys, a):
    # q^(ka) has period d in a, so the matrix is the one of a mod d
    code, out, err = run_cli(capsys, "weyl", "vra", "--d", "5", "--r", "0.37", "--a", str(a))
    assert (code, err) == (0, "")
    _, reduced, _ = run_cli(capsys, "weyl", "vra", "--d", "5", "--r", "0.37", "--a", str(a % 5))
    payload, expected = json.loads(out), json.loads(reduced)
    assert payload["a"] == a
    assert (payload["re"], payload["im"]) == (expected["re"], expected["im"])


def test_weyl_su2_check(capsys):
    code, out, _ = run_cli(capsys, "weyl", "su2-check", "--d", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert {c["name"] for c in payload["checks"]} == {
        "su2_polar_commutations",
        "su2_ladder_actions",
    }


def test_mub_family(capsys):
    code, out, err = run_cli(capsys, "mub", "family", "--p", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert len(payload["basis_labels"]) == 6
    assert payload["basis_labels"][-1] == "computational"
    matrix = payload["pairwise_deviation_matrix"]
    assert len(matrix) == 6 and max(max(row) for row in matrix) < 1e-9


def test_mub_family_rejects_composite(capsys):
    code, _, err = run_cli(capsys, "mub", "family", "--p", "6")
    assert code == 2
    assert "prime" in err


def test_mub_family_tolerance_exceeded(capsys):
    code, out, _ = run_cli(capsys, "mub", "family", "--p", "5", "--tolerance", "1e-20")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_mub_hadamard_exponents(capsys):
    code, out, _ = run_cli(capsys, "mub", "hadamard", "--d", "2", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_exponents"] == [[1, 3], [0, 0]]


def test_basis_partition_prime(capsys):
    code, out, _ = run_cli(capsys, "basis", "partition", "--d", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert len(payload["classes"]) == 6
    assert payload["classes"][0] == ["(01)", "(02)", "(03)", "(04)"]


def test_basis_partition_composite_exit_code(capsys):
    code, out, _ = run_cli(capsys, "basis", "partition", "--d", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["complete"] is False
    assert payload["classes"] == [
        ["(01)", "(02)", "(03)"],
        ["(10)", "(20)", "(30)"],
        ["(11)", "(22)", "(33)"],
    ]


def test_basis_partition_tensor(capsys):
    code, out, _ = run_cli(capsys, "basis", "partition", "--d", "4", "--tensor", "2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["tensor_dims"] == [2, 2]
    assert len(payload["classes"]) == 5
    assert all(len(cls) == 3 for cls in payload["classes"])


def test_basis_partition_large_prime_closed_form(capsys):
    code, out, _ = run_cli(capsys, "basis", "partition", "--d", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True and len(payload["classes"]) == 14


def test_basis_partition_prime_shares_the_mub_cap(capsys):
    # the d^2 - 1 labels are never built above the cap, whether d is prime or not
    for d in (98, 101):
        error = f"error: d={d} exceeds the cap 97\n"
        assert run_cli(capsys, "basis", "partition", "--d", str(d)) == (2, "", error)


@pytest.mark.parametrize("d", [14, 15, 25, 96])
def test_basis_partition_prints_the_closed_form_of_a_composite_d_past_the_search_cap(capsys, d):
    # the closed form runs no search, so the search cap 12 does not bound it
    code, out, err = run_cli(capsys, "basis", "partition", "--d", str(d))
    partition = cartan_partition(d)
    assert (code, out) == (1, export(partition))
    assert err == f"partition d={d}: {partition.class_count} classes, incomplete\n"


def test_basis_structure(capsys):
    code, out, _ = run_cli(capsys, "basis", "structure", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["nonzero_count"] > 0
    entry = next(
        e for e in payload["entries"] if e["left"] == "(10)" and e["right"] == "(01)"
    )
    assert entry["target"] == "(11)"
    assert entry["re"] == 2.0 and entry["im"] == 0.0


def test_verify_group_prime_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "group", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert "class_count_formula" in names
    assert payload["overall"] == "pass"


def test_verify_group_composite_reports_count_defect(capsys):
    code, out, _ = run_cli(capsys, "verify", "group", "--d", "4")
    assert code == 1
    payload = json.loads(out)
    failures = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert failures == ["class_count_formula"]


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_verify_cap_error(capsys):
    code, _, err = run_cli(capsys, "verify", "group", "--d", "20")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "partition", "--d", "1"],
        ["basis", "structure", "--d", "0"],
        ["mub", "hadamard", "--d", "1", "--a", "0"],
        ["weyl", "fourier", "--d", "1"],
        ["group", "classes", "--d", "-2"],
        ["group", "irreps", "--d", "1"],
    ],
)
def test_degenerate_dimensions_rejected(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be >= 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "vra", "--r", "nan"],
        ["weyl", "vra", "--r", "inf"],
        ["verify", "all", "--tolerance", "nan"],
        ["mub", "family", "--p", "7", "--tolerance", "nan"],
    ],
)
def test_non_finite_floats_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Out of range float values") and err.count("\n") == 1


@pytest.mark.parametrize("r", ["1e308", "-1e308"])
def test_vra_overflowing_corner_phase_rejected(capsys, r):
    code, out, err = run_cli(capsys, "weyl", "vra", "--d", "3", "--r", r)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: r = {float(r)} overflows the corner phase")
    assert err.count("\n") == 1


def test_dense_csv_rejects_non_finite(capsys):
    code, out, err = run_cli(
        capsys, "weyl", "vra", "--d", "3", "--r", "nan", "--format", "dense-csv"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: dense CSV cannot encode non-finite") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["mub", "family", "--p", "7", "--tolerance", "-1"],
        ["verify", "all", "--d", "3", "--tolerance", "-0.5"],
        ["weyl", "su2-check", "--tolerance=-1e-9"],
        ["verify", "weyl", "--tolerance=-1"],
        ["verify", "weyl", "--tolerance", "-1e-9"],
        ["verify", "all", "--d", "3", "--tol", "-1e-9"],
    ],
)
def test_negative_tolerance_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be >= 0, got -") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["mub", "family", "--d", "5"], "--d"),
        (["mub", "family", "--p", "3", "--a", "1"], "--a"),
        (["mub", "family", "--p", "2", "--format", "dense-csv"], "--format"),
        (["mub", "hadamard", "--d", "4", "--p", "5"], "--p"),
        (["mub", "hadamard", "--tol", "1e-3"], "--tolerance"),
        (["weyl", "pair", "--r", "1"], "--r"),
        (["weyl", "pair", "--d", "3", "--a", "2"], "--a"),
        (["weyl", "pair", "--tolerance", "1e-3"], "--tolerance"),
        (["weyl", "vra", "--d", "3", "--tolerance", "1e-3"], "--tolerance"),
        (["weyl", "fourier", "--r=-1e-3"], "--r"),
        (["weyl", "fourier", "--a", "1"], "--a"),
        (["weyl", "fourier", "--tolerance", "1e-3"], "--tolerance"),
        (["weyl", "su2-check", "--r", "1"], "--r"),
        (["weyl", "su2-check", "--a", "1"], "--a"),
        (["weyl", "su2-check", "--form", "json"], "--format"),
        (["group", "classes", "--d", "2", "--elem", "1,1,1"], "--elem"),
        (["basis", "structure", "--d", "2", "--tensor", "2,2"], "--tensor"),
        (["verify", "hw", "--d", "5", "--p", "7", "--e", "2"], "--d"),
        (["verify", "group", "--d", "3", "--tolerance", "1e-3"], "--tolerance"),
        (["verify", "weyl", "--d", "3", "--p", "3"], "--p"),
        (["verify", "all", "--d", "3", "--e", "2"], "--e"),
    ],
)
def test_options_an_action_does_not_read_are_rejected(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[0]} {argv[1]} does not take {option}\n"


def test_hw_check_defines_no_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hw", "check", "--tolerance", "1e-3"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "unrecognized arguments: --tolerance 1e-3" in captured.err


# one value that parses for each option
OPTION_VALUES = {
    "--d": "3", "--p": "3", "--e": "2", "--a": "1", "--r": "1", "--elem": "0,1,0",
    "--tensor": "2,2", "--tolerance": "1e-9", "--max-d": "16", "--format": "json",
}


def _defined_options():
    """(command, action, option) for every action of `build_parser()` and option of its command."""
    parser = cli_mod.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, command_parser in commands.choices.items():
        arguments = command_parser._actions
        actions = next(a for a in arguments if a.dest == "action").choices
        options = [a.option_strings[0] for a in arguments if a.dest not in ("help", "action")]
        for action in actions:
            for option in options:
                yield command, action, option


DEFINED_OPTIONS = list(_defined_options())


def test_every_action_of_the_parser_has_an_entry_in_reads():
    assert {(command, action) for command, action, _ in DEFINED_OPTIONS} <= set(cli_mod._READS)
    assert sum(option in cli_mod._READS[c, a] for c, a, option in DEFINED_OPTIONS) == 41


@pytest.mark.parametrize("command, action, option", DEFINED_OPTIONS)
def test_an_action_takes_exactly_the_options_it_reads(capsys, command, action, option):
    argv = [command, action, option, OPTION_VALUES[option]]
    if option in cli_mod._READS[command, action]:
        cli_mod._check_unread(cli_mod.build_parser().parse_args(argv))
    else:
        # rejected before the handler runs
        error = f"error: {command} {action} does not take {option}\n"
        assert run_cli(capsys, *argv) == (2, "", error)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["basis", "partition", "--d", "5", "--tensor", "2,2"],
            "--d 5 contradicts --tensor 2,2: d must be p^e",
        ),
        (
            ["verify", "basis", "--d", "3", "--p", "3"],
            "the tensor checks need both p and e, got p=3, e=None",
        ),
        (["verify", "basis", "--e", "2"], "the tensor checks need both p and e, got p=None, e=2"),
        (["verify", "mub", "--d", "5", "--p", "7"], "--d 5 contradicts --p 7: d must equal p"),
    ],
)
def test_contradicting_options_rejected(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_verify_mub_accepts_a_d_equal_to_p(capsys):
    assert run_cli(capsys, "verify", "mub", "--d", "7", "--p", "7")[:2] == run_cli(
        capsys, "verify", "mub", "--p", "7"
    )[:2]


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "partition", "--tensor", "2,20000"],
        ["basis", "partition", "--d", "4", "--tensor", "2,20000"],
        ["verify", "basis", "--p", "2", "--e", "20000"],
    ],
)
def test_tensor_cap_is_checked_before_the_power(capsys, argv):
    # 2^20000 has more digits than Python converts to a string
    error = "error: p^e=2^20000 exceeds the tensor search cap 16\n"
    assert run_cli(capsys, *argv) == (2, "", error)


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "classes", "--d", "17"],
        ["group", "centralizer", "--d", "17", "--elem", "0,1,0"],
        ["group", "subgroups", "--d", "17"],
        ["group", "irreps", "--d", "3000"],
        ["group", "irreps", "--d", "3", "--max-d", "2"],
    ],
)
def test_every_group_action_enforces_the_brute_force_cap(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: d={argv[3]} exceeds the brute-force cap ")
    assert err.count("\n") == 1


def test_group_cap_override_reaches_centralizer_and_irreps(capsys):
    argv = ["--d", "17", "--max-d", "17"]
    code, out, _ = run_cli(capsys, "group", "centralizer", *argv, "--elem", "0,1,0")
    assert code == 0 and json.loads(out)["centralizer_size"] == 17 * 17
    code, out, _ = run_cli(capsys, "group", "irreps", *argv)
    assert code == 0 and json.loads(out)["claimed_d_dimensional"] == 16


def test_failed_allocation_exits_2(capsys, monkeypatch):
    def failing_fourier(d):
        raise MemoryError(f"Unable to allocate 65.5 TiB for an array with shape ({d}, {d})")

    monkeypatch.setattr(cli_mod, "fourier_matrix", failing_fourier)
    code, out, err = run_cli(capsys, "weyl", "fourier", "--d", "3000000")
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_negative_float_in_exponent_form_is_a_value(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "weyl", "vra", "--d", "3", "--r", "-1e-3")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "weyl", "vra", "--d", "3", "--r=-1e-3") == (0, out, "")
    # the console entry point reads sys.argv
    monkeypatch.setattr("sys.argv", ["finiteweyl", "weyl", "vra", "--d", "3", "--r", "-1e-3"])
    assert main() == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("spelling", [["--elem", "-1,0,0"], ["--elem=-1,0,0"], ["--el", "-1,0,0"]])
def test_negative_element_list_is_a_value(capsys, spelling):
    code, out, err = run_cli(capsys, "group", "centralizer", "--d", "4", *spelling)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["element"] == [3, 0, 0] and payload["centralizer_size"] == 64
    assert run_cli(capsys, "group", "centralizer", "--d", "4", "--elem", "3,0,0") == (0, out, "")


@pytest.mark.parametrize("spelling", [["--tensor", "-2,2"], ["--tensor=-2,2"], ["--ten", "-2,2"]])
def test_negative_tensor_list_is_a_value(capsys, spelling):
    assert run_cli(capsys, "basis", "partition", *spelling) == (
        2,
        "",
        "error: p must be prime, got -2\n",
    )


@pytest.mark.parametrize(
    "argv, form",
    [
        (["basis", "partition", "--tensor", "2"], "p,e"),
        (["basis", "partition", "--tensor", "a,b"], "p,e"),
        (["basis", "partition", "--tensor", "2,2,2"], "p,e"),
        (["group", "centralizer", "--d", "4", "--elem", "1,2"], "a,b,c"),
        (["group", "centralizer", "--d", "4", "--elem", "1,x,0"], "a,b,c"),
    ],
)
def test_malformed_tuple_arguments_rejected(capsys, argv, form):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"expects integers {form}, got '{argv[-1]}'" in err and err.count("\n") == 1


def test_group_subgroups_closure_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(group_mod, "_is_closed", lambda array, d: False)
    code, out, err = run_cli(capsys, "group", "subgroups", "--d", "3")
    assert (code, out) == (2, "")
    assert err == "error: subset center is not closed under the group law\n"


def test_group_irreps_identity_failure_exits_2(capsys, monkeypatch):
    def failing_counts(d):
        raise RuntimeError("squared-dimension identity failed")

    monkeypatch.setattr(group_mod, "pd_irrep_counts", failing_counts)
    code, out, err = run_cli(capsys, "group", "irreps", "--d", "3")
    assert (code, out, err) == (2, "", "error: squared-dimension identity failed\n")


def test_a_nan_residual_fails_its_float_recheck(capsys, monkeypatch):
    # one NaN among the eigenvector residuals of vra_eigenvectors, not the first
    eigenvector = op_mod.v_ra_eigenvector

    def poisoned(d, r, a, alpha):
        vec = eigenvector(d, r, a, alpha)
        if alpha == 1:
            vec[0] = np.nan
        return vec

    monkeypatch.setattr(op_mod, "v_ra_eigenvector", poisoned)
    assert run_cli(capsys, "verify", "weyl", "--d", "3") == (
        2,
        "",
        "error: weyl.vra_eigenvectors: deviation is NaN\n",
    )


def test_console_entry_point_subprocess():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "finiteweyl.cli", "verify", "weyl", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1 and payload["overall"] == "pass"
    again = subprocess.run(
        [sys.executable, "-m", "finiteweyl.cli", "verify", "weyl", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert again.stdout == result.stdout  # byte-identical across processes


def test_closed_stdout_exits_2_with_one_line():
    import subprocess
    import sys

    # about 1 MB of text, far more than a pipe buffers
    argv = [sys.executable, "-m", "finiteweyl.cli", "mub", "family", "--p", "47"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20) == b'{\n  "schema": 1,\n  "'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: stdout was closed before the output was written\n"


# the modules of P_d and of the suites, which only `group` and the suite runs load
_HEAVY = {"finiteweyl.group", "finiteweyl.heisenberg", "finiteweyl.suites"}


@pytest.mark.parametrize(
    "argv, heavy",
    [
        (["basis", "partition", "--tensor", "2,2"], set()),
        (["mub", "family", "--p", "3"], set()),
        (["group", "classes", "--d", "2"], {"finiteweyl.group"}),
        (["verify", "weyl", "--d", "3"], _HEAVY),
    ],
)
def test_a_request_loads_only_the_modules_its_command_runs(argv, heavy):
    import subprocess
    import sys

    code = (
        "import json, sys\n"
        "from finiteweyl.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(json.dumps([name for name in sys.modules if name.startswith('finiteweyl')]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(json.loads(result.stdout.splitlines()[-1]))
    assert "finiteweyl.serialize" in loaded and loaded & _HEAVY == heavy


def _with_blas_threads(value: str | None) -> dict:
    """This process's environment with OPENBLAS_NUM_THREADS set to value, or unset."""
    import os

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return env if value is None else {**env, "OPENBLAS_NUM_THREADS": value}


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_importing_the_cli_confines_blas_unless_the_user_chose(preset, seen):
    import subprocess
    import sys

    code = "import finiteweyl.cli, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = _with_blas_threads(preset)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (result.returncode, result.stdout) == (0, f"{seen}\n".encode())


@pytest.mark.parametrize(
    "command", ["mub family --p 31", "verify all --d 12", "basis partition --tensor 2,4"]
)
def test_stdout_does_not_depend_on_the_blas_thread_count(command):
    import hashlib
    import subprocess
    import sys

    argv = [sys.executable, "-m", "finiteweyl.cli", *command.split()]
    digests = set()
    for preset in (None, "1", "2"):
        env = _with_blas_threads(preset)
        result = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        digests.add((result.returncode, hashlib.sha256(result.stdout).hexdigest()))
    assert len(digests) == 1


def _without_unbuffered_stdout() -> dict:
    import os

    # so that a handler's print is still buffered when the handlers end
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_atexit_handlers_run_before_the_process_ends():
    import subprocess
    import sys

    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['finiteweyl', 'weyl', 'pair', '--d', '2']\n"
        "runpy.run_module('finiteweyl.cli', run_name='__main__', alter_sys=True)\n"
        "print('after run')\n"
    )
    argv = [sys.executable, "-c", code]
    env = _without_unbuffered_stdout()
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.endswith("}\nhandler ran\n")


def test_a_late_closed_stdout_exits_2_with_one_line():
    import subprocess
    import sys

    # the handler points stdout at a pipe nobody reads, so the last flush fails
    code = (
        "import atexit, os, sys\n"
        "from finiteweyl.cli import run\n"
        "def close():\n"
        "    r, w = os.pipe()\n"
        "    os.close(r)\n"
        "    os.dup2(w, sys.stdout.fileno())\n"
        "    print('late')\n"
        "atexit.register(close)\n"
        "run()\n"
    )
    argv = [sys.executable, "-c", code, "weyl", "pair", "--d", "2"]
    env = _without_unbuffered_stdout()
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert result.stderr == "error: stdout was closed before the output was written\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["weyl", "pair", "--d", "2"],
        ["basis", "partition", "--d", "6"],
        ["weyl", "pair", "--d", "1"],
        ["weyl", "bogus"],
        ["--version"],
    ],
)
def test_run_exits_with_the_code_and_output_of_main(capsys, argv):
    import subprocess
    import sys

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    entry = [sys.executable, "-c", "from finiteweyl.cli import run; run()"]
    result = subprocess.run([*entry, *argv], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (code, captured.out, captured.err)


def test_stdout_fingerprint_script_is_stable():
    import pathlib
    import subprocess
    import sys

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "stdout_fingerprint.py"
    argv = [sys.executable, str(script)]
    argv += ["--command", "weyl pair --d 3", "--command", "basis partition --d 4"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, check=True).stdout for _ in range(2)
    ]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    assert [line.split(" ", 2)[0::2] for line in lines] == [
        ["0", "weyl pair --d 3"],
        ["1", "basis partition --d 4"],
    ]
    assert all(len(line.split(" ")[1]) == 64 for line in lines)


def test_ab_pairs_script_compares_one_checkout_with_itself():
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    argv = [sys.executable, str(root / "scripts" / "ab_pairs.py"), "--parent", str(root)]
    result = subprocess.run(
        [*argv, "--pairs", "2", "weyl pair --d 2"], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("weyl pair --d 2: 2 pairs")
    assert [line.split()[0] for line in lines[2:4]] == ["parent", "change"]
    assert all(len(line.split()) == 6 for line in lines[2:4])
    assert re.fullmatch(r"change won [0-2]/2 pairs on wall_s", lines[4])
    assert re.fullmatch(r"change won [0-2]/2 pairs on cpu_s", lines[5])
    assert len(lines) == 6


def run_tier1_gate(tmp_path, criterion_05: str, other: str, *pytest_args: str):
    """Exit code and verdict lines of `scripts/tier1_gate.py` on a module of three tests."""
    import pathlib
    import subprocess
    import sys

    (tmp_path / "test_gate_case.py").write_text(
        "def test_criterion_01_group_class_counting():\n    assert False\n"
        f"def test_criterion_05_hadamard_relations():\n    {criterion_05}\n"
        f"def test_other():\n    {other}\n"
    )
    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "tier1_gate.py"
    argv = [sys.executable, str(script), "-p", "no:cacheprovider", *pytest_args, str(tmp_path)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    lines = result.stdout.splitlines()
    start = max(i for i, line in enumerate(lines) if line.startswith("tier1 gate: "))
    return result.returncode, lines[start:]


def test_tier1_gate_passes_only_on_the_by_design_failures(tmp_path):
    code, verdict = run_tier1_gate(tmp_path, "assert False", "pass")
    assert (code, verdict) == (0, ["tier1 gate: PASS, only the by-design criteria 01 and 05 fail"])

    code, verdict = run_tier1_gate(tmp_path, "pass", "assert False")
    assert code == 1 and verdict[0] == "tier1 gate: FAIL (pytest exited 1)"
    assert verdict[1:] == [
        "failed: test_gate_case::test_other",
        "did not fail: test_criterion_05_hadamard_relations",
    ]

    # a module that fails to collect, and criterion 05 deselected
    (tmp_path / "test_broken.py").write_text("def test_x(:\n")
    code, verdict = run_tier1_gate(tmp_path, "assert False", "pass", "-k", "not criterion_05")
    assert code == 1 and verdict[0] == "tier1 gate: FAIL (pytest exited 1)"
    assert verdict[1:] == [
        "failed: test_broken",
        "did not run: test_criterion_05_hadamard_relations",
    ]


def test_outputs_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "weyl", "--d", "3")
    _, second, _ = run_cli(capsys, "verify", "weyl", "--d", "3")
    assert first == second
    _, first, _ = run_cli(capsys, "basis", "partition", "--d", "4", "--tensor", "2,2")
    _, second, _ = run_cli(capsys, "basis", "partition", "--d", "4", "--tensor", "2,2")
    assert first == second


# cheap commands (d <= 8) and the tokens that mutate them
FUZZ_BASES = [
    ["hw", "check"],
    ["group", "classes", "--d", "4"],
    ["group", "centralizer", "--d", "4", "--elem", "0,2,0"],
    ["group", "subgroups", "--d", "3"],
    ["group", "irreps", "--d", "4"],
    ["weyl", "pair", "--d", "3", "--format", "exact-json"],
    ["weyl", "vra", "--d", "5", "--r", "1", "--a", "2"],
    ["weyl", "fourier", "--d", "4", "--format", "dense-csv"],
    ["weyl", "su2-check", "--d", "5"],
    ["mub", "family", "--p", "5", "--tolerance", "1e-9"],
    ["mub", "hadamard", "--d", "6", "--a", "2"],
    ["basis", "partition", "--d", "4"],
    ["basis", "partition", "--tensor", "2,2"],
    ["basis", "structure", "--d", "3"],
    ["verify", "basis", "--d", "3"],
    ["verify", "mub", "--p", "3"],
]
FUZZ_TOKENS = [
    "--d", "--p", "--e", "--a", "--r", "--elem", "--tensor", "--tolerance", "--tol",
    "--max-d", "--format", "--bogus", "-1", "0", "1", "2", "3", "5", "8", "-1e-3",
    "1e-20", "nan", "inf", "-inf", "x", "", "1,2", "1,x,0", "2,2", "3,1", "a,b",
    "json", "dense-csv", "exact-json", "check", "family", "verify", "all",
]


@st.composite
def fuzzed_argv(draw):
    argv = list(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        # free text carries no digits, so no mutation asks for a large d
        garbage = st.text(st.characters(blacklist_categories=("Nd",)), max_size=6)
        token = draw(st.sampled_from(FUZZ_TOKENS) | garbage)
        position = draw(st.integers(0, len(argv)))
        action = draw(st.sampled_from(["insert", "replace", "delete"]))
        if action == "insert" or not argv:
            argv.insert(position, token)
        elif action == "replace":
            argv[min(position, len(argv) - 1)] = token
        else:
            del argv[min(position, len(argv) - 1)]
    return argv


@settings(max_examples=60, deadline=None)
@given(fuzzed_argv())
def test_cli_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        one_line_error = err.startswith("error: ") and err.count("\n") == 1
        usage_error = err.startswith("usage: ") and ": error: " in err
        assert one_line_error or usage_error, (argv, err)


@pytest.mark.parametrize(
    "argv, error",
    [
        # trial division up to 10^9 for this prime
        (
            ["basis", "partition", "--d", "1000000000000000003"],
            "error: d=1000000000000000003 exceeds the cap 97\n",
        ),
        # 10^36 labels
        (
            ["verify", "basis", "--d", "1000000000000000000"],
            "error: d=1000000000000000000 exceeds the structure-table cap 16\n",
        ),
        # 300 products of dense d x d monomials
        (["verify", "weyl", "--d", "100000000"], "error: d=100000000 exceeds the cap 97\n"),
        # 10^27 group elements
        (
            ["verify", "group", "--d", "1000000000"],
            "error: d=1000000000 exceeds the brute-force cap 16\n",
        ),
        # the dense single-qudit suites just over the cap
        (["verify", "weyl", "--d", "98"], "error: d=98 exceeds the cap 97\n"),
        (["weyl", "su2-check", "--d", "98"], "error: d=98 exceeds the cap 97\n"),
        # d bases of d x d, composite or prime
        (["verify", "mub", "--d", "98"], "error: d=98 exceeds the cap 97\n"),
        (["verify", "mub", "--d", "101"], "error: d=101 exceeds the cap 97\n"),
        # trial division up to 10^9 before the tensor cap
        (
            ["basis", "partition", "--tensor", "1000000000000000003,2"],
            "error: p^e=1000000000000000003^2 exceeds the tensor search cap 16\n",
        ),
        (
            ["verify", "basis", "--p", "1000000000000000003", "--e", "2"],
            "error: p^e=1000000000000000003^2 exceeds the tensor search cap 16\n",
        ),
        # the hw, group, weyl and mub suites before the basis suite's cap
        (
            ["verify", "all", "--d", "17", "--max-d", "17"],
            "error: d=17 exceeds the structure-table cap 16\n",
        ),
    ],
)
def test_huge_d_exits_2_before_the_work_it_would_take(argv, error):
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "finiteweyl.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", error)


def test_verify_basis_enforces_structure_table_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "basis", "--d", "17")
    assert (code, out) == (2, "")
    assert err == "error: d=17 exceeds the structure-table cap 16\n"
