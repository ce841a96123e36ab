"""Command-line entry point: parses arguments, calls the library and hands
each result to one `serialize` function, which builds the payload.

A request loads only the modules its command runs: `basis`, `mub`,
`operators` and `serialize` at import, `group` inside `cmd_group`, and
`suites` (with `group` and `heisenberg`) inside the commands that run a
suite.  `run` is the process entry point; `main` is the same request for
in-process callers.  `basis partition` prints the closed-form classes
`basis.cartan_partition(d)` of one qudit, and with `--tensor` the classes
that `basis.cartan_partition_prime_power` finds.

JSON payloads go to stdout (deterministic: fixed orderings, no timestamps),
written in chunks by `_write`; human-readable diagnostics and timings go to
stderr.  Exit codes: 0 on success / all checks passing, 1 when a
verification fails, a tolerance is exceeded, or a partition is incomplete,
2 for usage errors and for a stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from collections.abc import Iterable
from typing import NoReturn

# Set before numpy loads: a request's matrices are small or blocked by
# `pairwise_deviations`, which spreads its blocks over the CPUs itself, so a
# BLAS worker thread would only spin idle.  A value already set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, limits
from .basis import cartan_partition, cartan_partition_prime_power, commutator_table
from .mub import hadamard_h_a, mub_family, pairwise_deviations
from .operators import fourier_matrix, v_ra_matrix, weyl_pair
from .report import DEFAULT_TOLERANCE
from .serialize import (
    export_centralizer,
    export_chunks,
    export_dense,
    export_irreps,
    export_mub_family,
    export_subgroups,
    export_weyl_pair,
)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _int_fields(option: str, text: str, form: str) -> tuple[int, ...]:
    """Parse a comma-separated option value such as "2,4" against form "p,e"."""
    try:
        values = tuple(_int_list(text))
    except ValueError:
        values = ()
    if len(values) != len(form.split(",")):
        raise ValueError(f"{option} expects integers {form}, got {text!r}")
    return values


def _write(chunks: Iterable[str]) -> None:
    """The one writer of stdout: each chunk as soon as it is rendered."""
    for chunk in chunks:
        sys.stdout.write(chunk)


def _report_exit(report) -> int:
    _write(export_chunks(report))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_hw(args: argparse.Namespace) -> int:
    from .suites import suite_hw

    return _report_exit(suite_hw())


def cmd_group(args: argparse.Namespace) -> int:
    from .group import (
        PdElement,
        irrep_character_norm,
        pd_centralizer_size,
        pd_conjugacy_classes,
        pd_irrep_counts,
        pd_named_subgroups,
    )

    d, cap = args.d, args.max_d
    limits.check_brute_force(d, cap)
    if args.action == "classes":
        chunks = export_chunks(pd_conjugacy_classes(d, cap))
    elif args.action == "centralizer":
        if args.elem is None:
            raise ValueError("--elem a,b,c is required for the centralizer command")
        element = PdElement(*_int_fields("--elem", args.elem, "a,b,c"), d)
        chunks = export_centralizer(element, pd_centralizer_size(element))
    elif args.action == "subgroups":
        chunks = export_subgroups(d, pd_named_subgroups(d, cap))
    else:
        counts = pd_irrep_counts(d)
        chunks = export_irreps(d, counts, [irrep_character_norm(k, d) for k in range(1, d)])
    _write(chunks)
    return 0


def cmd_weyl(args: argparse.Namespace) -> int:
    d = args.d
    if args.action == "su2-check":
        from .suites import suite_su2

        return _report_exit(suite_su2(d, args.tolerance))
    if args.action == "pair":
        chunks = export_weyl_pair(*weyl_pair(d), args.format)
    elif args.action == "vra":
        mat = v_ra_matrix(d, args.r, args.a)
        chunks = export_dense("vra", mat, args.format, d=d, r=args.r, a=args.a)
    else:
        chunks = export_dense("fourier", fourier_matrix(d), args.format, d=d)
    _write(chunks)
    return 0


def cmd_mub(args: argparse.Namespace) -> int:
    if args.action == "hadamard":
        _write(export_chunks(hadamard_h_a(args.d, args.a), args.format))
        return 0
    p = 3 if args.p is None else args.p
    bases = mub_family(p)
    deviations = pairwise_deviations(bases)
    labels = [b.label for b in bases]
    # the payload is rebuilt from p and the labels, so the dense vectors go first
    del bases
    _write(export_mub_family(p, labels, deviations, args.tolerance))
    worst = float(deviations.max())
    print(
        f"mub family p={p}: max deviation {worst:.3e} (tolerance {args.tolerance:.1e})",
        file=sys.stderr,
    )
    return 0 if worst <= args.tolerance else 1


def cmd_basis(args: argparse.Namespace) -> int:
    d = args.d
    if args.action == "structure":
        _write(export_chunks(commutator_table(d)))
        return 0
    if args.tensor:
        p, e = _int_fields("--tensor", args.tensor, "p,e")
        if "--d" in args.given and d != limits.check_tensor(p, e):
            raise ValueError(f"--d {d} contradicts --tensor {args.tensor}: d must be p^e")
        partition = cartan_partition_prime_power(p, e)
    else:
        limits.check_partition((d,))
        partition = cartan_partition(d)
    _write(export_chunks(partition))
    status = "complete" if partition.complete else "incomplete"
    print(
        f"partition d={partition.dimension}: {partition.class_count} classes, {status}",
        file=sys.stderr,
    )
    return 0 if partition.complete else 1


def cmd_verify(args: argparse.Namespace) -> int:
    from .suites import run_suite

    if args.action == "mub" and "--d" in args.given and args.p is not None and args.d != args.p:
        raise ValueError(f"--d {args.d} contradicts --p {args.p}: d must equal p")
    report = run_suite(
        args.action,
        d=args.d,
        p=args.p,
        e=args.e,
        tolerance=args.tolerance,
        cap=args.max_d,
    )
    return _report_exit(report)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# the options whose value may start with "-", and how each value parses;
# see _attach_negative_values
_SIGNED_OPTIONS = {"--r": float, "--tolerance": float, "--elem": _int_list, "--tensor": _int_list}


def _is_value(option: str, arg: str) -> bool:
    """True when arg parses as a value of option, written out or abbreviated as argparse allows."""
    for name, parse in _SIGNED_OPTIONS.items():
        if len(option) > 2 and name.startswith(option):
            try:
                parse(arg)
            except ValueError:
                continue
            return True
    return False


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write `--r -1e-3` as `--r=-1e-3` and `--elem -1,0,0` as `--elem=-1,0,0`.

    argparse reads a token that starts with "-" as an option name unless it
    is a negative number without an exponent (`-0.001`), so `--r -1e-3` or
    `--elem -1,0,0` would leave the option without its value.
    """
    out: list[str] = []
    for arg in argv:
        if out and arg.startswith("-") and _is_value(out[-1], arg):
            out[-1] += "=" + arg
            continue
        out.append(arg)
    return out


# every option's argparse spec
_OPTIONS = {
    "--d": dict(type=int, default=3, help="dimension / modulus"),
    "--p": dict(type=int, default=None, help="prime dimension (mub family: default 3)"),
    "--e": dict(type=int, default=None, help="tensor exponent"),
    "--a": dict(type=int, default=0, help="clock power"),
    "--r": dict(type=float, default=0.0, help="corner phase parameter"),
    "--elem": dict(type=str, default=None, help="element a,b,c"),
    "--tensor": dict(type=str, default=None, help="tensor partition parameters p,e"),
    "--tolerance": dict(type=float, default=DEFAULT_TOLERANCE, help="check tolerance"),
    "--max-d": dict(
        type=int, default=limits.DEFAULT_BRUTE_FORCE_CAP, help="brute-force cap override"
    ),
    "--format": dict(
        choices=["json", "exact-json", "dense-csv"], default="json", help="output encoding"
    ),
}

# each command's handler and help; the suite of `verify` is its action
_COMMANDS = {
    "hw": (cmd_hw, "continuous-group identities"),
    "group": (cmd_group, "finite Heisenberg group of order d^3"),
    "weyl": (cmd_weyl, "clock/shift operators and relatives"),
    "mub": (cmd_mub, "mutually unbiased bases"),
    "basis": (cmd_basis, "operator basis of u(d) and partitions"),
    "verify": (cmd_verify, "run a named verification suite"),
}

# the options each action reads; a command defines the union over its
# actions, and giving an option its action does not read is a usage error
_READS = {
    ("hw", "check"): (),
    ("group", "classes"): ("--d", "--max-d"),
    ("group", "centralizer"): ("--d", "--elem", "--max-d"),
    ("group", "subgroups"): ("--d", "--max-d"),
    ("group", "irreps"): ("--d", "--max-d"),
    ("weyl", "pair"): ("--d", "--format"),
    ("weyl", "vra"): ("--d", "--a", "--r", "--format"),
    ("weyl", "fourier"): ("--d", "--format"),
    ("weyl", "su2-check"): ("--d", "--tolerance"),
    ("mub", "family"): ("--p", "--tolerance"),
    ("mub", "hadamard"): ("--d", "--a", "--format"),
    ("basis", "partition"): ("--d", "--tensor"),
    ("basis", "structure"): ("--d",),
    ("verify", "hw"): (),
    ("verify", "group"): ("--d", "--max-d"),
    ("verify", "weyl"): ("--d", "--tolerance"),
    ("verify", "mub"): ("--d", "--p", "--tolerance"),
    ("verify", "basis"): ("--d", "--p", "--e", "--tolerance"),
    ("verify", "all"): ("--d", "--tolerance", "--max-d"),
}


class _Given(argparse.Action):
    """Store the value and record on the namespace that the option was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*namespace.given, self.option_strings[0])


def _check_unread(args: argparse.Namespace) -> None:
    reads = _READS[args.command, args.action]
    for option in args.given:
        if option not in reads:
            raise ValueError(f"{args.command} {args.action} does not take {option}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finiteweyl",
        description="Weyl pairs, discrete Heisenberg groups, mutually "
        "unbiased bases and commuting-class decompositions of u(d).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in _COMMANDS.items():
        actions = [action for name, action in _READS if name == command]
        read = {option for action in actions for option in _READS[command, action]}
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.add_argument("action", choices=actions)
        for option, spec in _OPTIONS.items():
            if option in read:
                command_parser.add_argument(option, action=_Given, **spec)
        command_parser.set_defaults(func=func, given=())
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_unread(args)
        # NaN is not < 0; it keeps its own error, raised when the payload's
        # skeleton is rendered, before the first byte is written
        if getattr(args, "tolerance", 0.0) < 0:
            raise ValueError(f"tolerance must be >= 0, got {args.tolerance}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return _closed_stdout()


def _closed_stdout() -> int:
    # the reader closed stdout; pointing it at devnull lets a later flush
    # succeed instead of raising a second error
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    print("error: stdout was closed before the output was written", file=sys.stderr)
    return 2


def run() -> NoReturn:
    """The process entry point of `finiteweyl` and `python -m finiteweyl.cli`.

    Runs `main()`, then ends the process as the interpreter would, minus its
    teardown: the `atexit` handlers run, stdout and stderr are flushed, and
    `os._exit` skips freeing every module and object one by one, work that
    a process about to exit does not need.  An exception from `main()`,
    argparse's SystemExit included, leaves through the normal exit.
    """
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _closed_stdout()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
