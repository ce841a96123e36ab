import argparse
import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finiteweyl.cli as cli_mod
import finiteweyl.group as group_mod
from finiteweyl.cli import main


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
    # the p^2 - 1 labels are never built above the cap; any d over it is
    # over the search cap too, so it is rejected before the primality test
    error = "error: d=101 exceeds the search cap 12 and the prime cap 97\n"
    assert run_cli(capsys, "basis", "partition", "--d", "101") == (2, "", error)


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
    monkeypatch.setattr(group_mod, "_is_closed", lambda elements: False)
    code, out, err = run_cli(capsys, "group", "subgroups", "--d", "3")
    assert (code, out) == (2, "")
    assert err == "error: subset center is not closed under the group law\n"


def test_group_irreps_identity_failure_exits_2(capsys, monkeypatch):
    def failing_counts(d):
        raise RuntimeError("squared-dimension identity failed")

    monkeypatch.setattr(cli_mod, "pd_irrep_counts", failing_counts)
    code, out, err = run_cli(capsys, "group", "irreps", "--d", "3")
    assert (code, out, err) == (2, "", "error: squared-dimension identity failed\n")


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
            "error: d=1000000000000000003 exceeds the search cap 12 and the prime cap 97\n",
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
