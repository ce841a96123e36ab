"""Command-line entry point: parses arguments, calls the library and hands
each result to one `serialize` function, which builds the payload.

JSON payloads go to stdout (deterministic: fixed orderings, no timestamps);
human-readable diagnostics and timings go to stderr.  Exit codes: 0 on
success / all checks passing, 1 when a verification fails, a tolerance is
exceeded, or a partition is incomplete, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .basis import (
    SEARCH_CAP,
    cartan_partition_prime,
    cartan_partition_prime_power,
    commutator_table,
    commuting_class_search,
)
from .group import (
    DEFAULT_BRUTE_FORCE_CAP,
    PdElement,
    irrep_character_norm,
    pd_centralizer_size,
    pd_conjugacy_classes,
    pd_irrep_counts,
    pd_named_subgroups,
)
from .mub import hadamard_h_a, is_prime, mub_family, pairwise_deviations
from .operators import fourier_matrix, v_ra_matrix, weyl_pair
from .serialize import (
    export,
    export_centralizer,
    export_dense,
    export_irreps,
    export_mub_family,
    export_subgroups,
    export_weyl_pair,
)
from .suites import DEFAULT_TOLERANCE, run_suite, suite_hw, suite_su2


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


def _report_exit(report) -> int:
    sys.stdout.write(export(report))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return 0 if report.overall else 1


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_hw(args: argparse.Namespace) -> int:
    return _report_exit(suite_hw(args.tolerance))


def cmd_group(args: argparse.Namespace) -> int:
    d, cap = args.d, args.max_d
    if args.action == "classes":
        text = export(pd_conjugacy_classes(d, cap))
    elif args.action == "centralizer":
        if args.elem is None:
            raise ValueError("--elem a,b,c is required for the centralizer command")
        element = PdElement(*_int_fields("--elem", args.elem, "a,b,c"), d)
        text = export_centralizer(element, pd_centralizer_size(element))
    elif args.action == "subgroups":
        text = export_subgroups(d, pd_named_subgroups(d, cap))
    else:
        counts = pd_irrep_counts(d)
        text = export_irreps(d, counts, [irrep_character_norm(k, d) for k in range(1, d)])
    sys.stdout.write(text)
    return 0


def cmd_weyl(args: argparse.Namespace) -> int:
    d = args.d
    if args.action == "su2-check":
        return _report_exit(suite_su2(d, args.tolerance))
    if args.action == "pair":
        text = export_weyl_pair(*weyl_pair(d), args.format)
    elif args.action == "vra":
        mat = v_ra_matrix(d, args.r, args.a)
        text = export_dense("vra", mat, args.format, d=d, r=args.r, a=args.a)
    else:
        text = export_dense("fourier", fourier_matrix(d), args.format, d=d)
    sys.stdout.write(text)
    return 0


def cmd_mub(args: argparse.Namespace) -> int:
    if args.action == "hadamard":
        sys.stdout.write(export(hadamard_h_a(args.d, args.a), args.format))
        return 0
    p = args.p
    bases = mub_family(p)
    deviations = pairwise_deviations(bases)
    sys.stdout.write(export_mub_family(bases, deviations, args.tolerance))
    worst = max(deviations.values())
    print(
        f"mub family p={p}: max deviation {worst:.3e} (tolerance {args.tolerance:.1e})",
        file=sys.stderr,
    )
    return 0 if worst <= args.tolerance else 1


def cmd_basis(args: argparse.Namespace) -> int:
    d = args.d
    if args.action == "structure":
        sys.stdout.write(export(commutator_table(d)))
        return 0
    if args.tensor:
        p, e = _int_fields("--tensor", args.tensor, "p,e")
        partition = cartan_partition_prime_power(p, e)
    elif is_prime(d) and d > SEARCH_CAP:
        partition = cartan_partition_prime(d)
    else:
        partition = commuting_class_search(d)
    sys.stdout.write(export(partition))
    status = "complete" if partition.complete else "incomplete"
    print(
        f"partition d={partition.dimension}: {partition.class_count} classes, {status}",
        file=sys.stderr,
    )
    return 0 if partition.complete else 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite,
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


# the options a command takes that one of its actions does not read; giving
# one of them is a usage error rather than silently ignored
_UNREAD = {
    ("weyl", "pair"): ("--a", "--r", "--tolerance"),
    ("weyl", "vra"): ("--tolerance",),
    ("weyl", "fourier"): ("--a", "--r", "--tolerance"),
    ("weyl", "su2-check"): ("--a", "--r", "--format"),
    ("mub", "family"): ("--d", "--a", "--format"),
    ("mub", "hadamard"): ("--p", "--tolerance"),
}


class _Given(argparse.Action):
    """Store the value and record on the namespace that the option was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def _check_unread(args: argparse.Namespace) -> None:
    unread = _UNREAD.get((args.command, getattr(args, "action", None)), ())
    for option in getattr(args, "given", ()):
        if option in unread:
            raise ValueError(f"{args.command} {args.action} does not take {option}")


def _add_common(parser: argparse.ArgumentParser, *names: str) -> None:
    add = functools.partial(parser.add_argument, action=_Given)
    if "d" in names:
        add("--d", type=int, default=3, help="dimension / modulus")
    if "p" in names:
        add("--p", type=int, default=None, help="prime dimension")
    if "e" in names:
        add("--e", type=int, default=None, help="tensor exponent")
    if "a" in names:
        add("--a", type=int, default=0, help="clock power")
    if "r" in names:
        add("--r", type=float, default=0.0, help="corner phase parameter")
    if "tolerance" in names:
        add("--tolerance", type=float, default=DEFAULT_TOLERANCE, help="check tolerance")
    if "max-d" in names:
        add(
            "--max-d",
            dest="max_d",
            type=int,
            default=DEFAULT_BRUTE_FORCE_CAP,
            help="brute-force cap override",
        )
    if "format" in names:
        add(
            "--format",
            choices=["json", "exact-json", "dense-csv"],
            default="json",
            help="output encoding",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finiteweyl",
        description="Weyl pairs, discrete Heisenberg groups, mutually "
        "unbiased bases and commuting-class decompositions of u(d).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    hw = sub.add_parser("hw", help="continuous-group identities")
    hw.add_argument("action", choices=["check"])
    _add_common(hw, "tolerance")
    hw.set_defaults(func=cmd_hw)

    group = sub.add_parser("group", help="finite Heisenberg group of order d^3")
    group.add_argument("action", choices=["classes", "centralizer", "subgroups", "irreps"])
    _add_common(group, "d", "max-d")
    group.add_argument("--elem", type=str, default=None, help="element a,b,c")
    group.set_defaults(func=cmd_group)

    weyl = sub.add_parser("weyl", help="clock/shift operators and relatives")
    weyl.add_argument("action", choices=["pair", "vra", "fourier", "su2-check"])
    _add_common(weyl, "d", "a", "r", "tolerance", "format")
    weyl.set_defaults(func=cmd_weyl)

    mub = sub.add_parser("mub", help="mutually unbiased bases")
    mub.add_argument("action", choices=["family", "hadamard"])
    _add_common(mub, "d", "a", "tolerance", "format")
    mub.add_argument(
        "--p", type=int, default=3, action=_Given, help="prime dimension for the family"
    )
    mub.set_defaults(func=cmd_mub)

    basis = sub.add_parser("basis", help="operator basis of u(d) and partitions")
    basis.add_argument("action", choices=["partition", "structure"])
    _add_common(basis, "d")
    basis.add_argument(
        "--tensor", type=str, default=None, help="tensor partition parameters p,e"
    )
    basis.set_defaults(func=cmd_basis)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=["hw", "group", "weyl", "mub", "basis", "all"])
    _add_common(verify, "d", "p", "e", "tolerance", "max-d")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_unread(args)
        # NaN is not < 0; it keeps its own error, raised when the payload is rendered
        if getattr(args, "tolerance", 0.0) < 0:
            raise ValueError(f"tolerance must be >= 0, got {args.tolerance}")
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
