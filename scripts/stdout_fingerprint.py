"""Print the exit code and the sha256 of stdout for a fixed list of CLI commands.

Each command runs as `python -m finiteweyl.cli ...` in a fresh process with
`<root>/src` on PYTHONPATH.  One line per command: exit code, sha256 of the
stdout bytes, command.  A command still running after 60 s is killed and
reads `timeout` in place of its exit code.  Run it on two checkouts and
diff the output to check that a change keeps every byte of stdout:

    python scripts/stdout_fingerprint.py > after.txt
    python scripts/stdout_fingerprint.py --root ../parent > before.txt
    diff before.txt after.txt

`--command "weyl pair --d 3"` (repeatable) replaces the fixed list.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

# every CLI example in the README, then the heavier cases
COMMANDS = [
    "hw check",
    "group classes --d 4",
    "group centralizer --d 4 --elem 0,2,0",
    "group subgroups --d 3",
    "group irreps --d 4",
    "weyl pair --d 3 --format exact-json",
    "weyl pair --d 3 --format dense-csv",
    "weyl vra --d 5 --r 1 --a 2",
    "weyl fourier --d 4",
    "weyl su2-check --d 9",
    "mub family --p 7 --tolerance 1e-9",
    "mub hadamard --d 6 --a 2 --format dense-csv",
    "basis partition --d 4",
    "basis partition --d 4 --tensor 2,2",
    "basis structure --d 3",
    "verify all --d 3",
    "verify all --d 4",
    "verify all --d 12",
    "mub family --p 2",
    "mub family --p 3",
    "mub family --p 7",
    "mub family --p 97",
    "basis partition --tensor 2,4",
    # structure entries, dense monomials, Hadamard JSON and the suites that
    # turn tau exponents into complex numbers
    "basis structure --d 5",
    "weyl pair --d 5 --format dense-csv",
    "mub hadamard --d 6 --a 2",
    "verify mub --p 97",
    "verify basis --p 3 --e 2",
    "verify all --d 16",
    # the integer array kernels of the group and basis suites at composite
    # and prime d
    "verify group --d 12",
    "verify basis --d 12",
    "verify all --d 6",
    "verify all --d 8",
    "verify basis --d 11",
    # the first-found classes of the clique search: the tensor partitions,
    # then the composite d, where the slope classes cover only part of the
    # labels, and the primes, where they cover all of them
    "basis partition --tensor 2,2",
    "basis partition --tensor 2,3",
    "basis partition --tensor 3,2",
    "basis partition --d 6",
    "basis partition --d 8",
    "basis partition --d 9",
    "basis partition --d 10",
    "basis partition --d 12",
    "basis partition --d 2",
    "basis partition --d 3",
    "basis partition --d 7",
    "basis partition --d 11",
    "basis partition --d 13",
    # families whose p + 1 bases end in a partial block of the blocked
    # unbiasedness products
    "mub family --p 11",
    "mub family --p 13",
    "verify mub --p 7",
    # rejected before any work: a tensor exponent far over the cap, and a
    # --d that contradicts --p
    "basis partition --tensor 2,20000",
    "verify basis --p 2 --e 20000",
    "verify mub --d 5 --p 7",
    # outputs that carry tau powers formed outside the monomial route before
    # they all went through phases: the Fourier matrix and the two suites
    # that check it, then a prime over the cap of the closed-form partition
    "weyl fourier --d 2",
    "verify weyl --d 5",
    "verify mub --d 6",
    "basis partition --d 101",
    # the exhaustive paths of the group suite: every triple for d <= 3,
    # every pair for d <= 4
    "verify group --d 2",
    "verify group --d 3",
    "verify group --d 4",
    # rejected before any work: a huge d before the primality test, a d over
    # the structure-table cap before any label is built, and a d whose dense
    # check cannot be allocated once x**d has run
    "basis partition --d 1000000000000000003",
    "verify basis --d 1000",
    "verify weyl --d 100000000",
    # rejected before any work: a huge prime p with a tensor exponent over
    # the cap, the dense single-qudit suites just over the cap 97, and a d
    # over the structure-table cap that `verify all` meets in its last suite
    "basis partition --tensor 1000000000000000003,2",
    "verify basis --p 1000000000000000003 --e 2",
    "verify weyl --d 98",
    "verify mub --d 98",
    "weyl su2-check --d 98",
    "verify all --d 17 --max-d 17",
    # the heaviest payload of each shape the JSON encoder meets: dicts of
    # labels, lists of element triples, dense re and im rows, int tables
    "basis structure --d 16",
    "group classes --d 16",
    "group subgroups --d 16",
    "weyl fourier --d 97",
    "weyl vra --d 97 --r 0.37 --a 3",
    "mub hadamard --d 97 --a 5",
    # the tensor partition validator at p^e = 4 and at the cap 16; every
    # `verify basis` also checks the two-qubit spread
    "verify basis --p 2 --e 2",
    "verify basis --p 2 --e 4",
    # the float rechecks at d = 2, where the quarter-turn entries make many
    # residuals exactly +-0.0
    "verify weyl --d 2",
    "weyl su2-check --d 2",
    "verify mub --d 2",
    # dense CSV and re and im rows past d = 5, where the table writer meets
    # many distinct numbers: the Fourier matrix, a weighted shift at
    # non-integer r, and a composite-d Hadamard matrix
    "weyl fourier --d 97 --format dense-csv",
    "weyl vra --d 31 --r 0.37 --a 3",
    "weyl vra --d 31 --r 0.37 --a 3 --format dense-csv",
    "mub hadamard --d 12 --a 5 --format dense-csv",
    # the structure constants' record list on either side of format_index's
    # comma rule (moduli up to 10 write "(ab)", moduli past 10 "(a,b)"), and
    # weyl vra with an --a outside 0..d-1, which reads as a mod d
    "basis structure --d 10",
    "basis structure --d 11",
    "weyl vra --d 5 --a 7",
    "weyl vra --d 5 --a -1",
    # the exact traces of rho_k at composite d
    "group irreps --d 12",
    # the tensor partition validator at p^e = 8, and the single-qubit basis
    # suite with its two-qubit spread
    "verify basis --p 2 --e 3",
    "verify basis --d 2",
    # the rest of the commands whose stdout Tier-1 pins: the group at
    # composite d and the quarter-turn structure constants
    "group classes --d 12",
    "group subgroups --d 12",
    "group centralizer --d 12 --elem 5,4,6",
    "basis structure --d 2",
    "basis structure --d 4",
    # the edges of the closed-form partition's dense cap: a d below 2, a
    # composite d just over the search cap, the largest prime
    "basis partition --d 1",
    "basis partition --d 15",
    "basis partition --d 97",
    # the basis suite at odd composite d, where no anticommutator vanishes:
    # d = 9 runs the partition search, d = 15 is over its cap
    "verify basis --d 9",
    "verify basis --d 15",
    # the integer spectra of the weyl suite at the largest dense d, and
    # hs_orthogonality and the two-qubit spread at quarter-turn size
    "verify weyl --d 97",
    "verify all --d 2",
    # the structure constants, read off the product kernel, at composite
    # d = 12 ("basis structure --d 16" above pins the table's cap)
    "basis structure --d 12",
    # the dense rechecks that form each Pauli product once, at odd and even
    # d past the partition search cap, and that stack the random monomials
    # in chunks of about 2^15 entries
    "verify basis --d 13",
    "verify basis --d 14",
    "verify weyl --d 16",
    "verify weyl --d 31",
    # composite d past the search cap, whose closed-form partition `basis
    # partition` prints up to the dense cap: an even d, an odd prime square,
    # and the largest composite d under the cap
    "basis partition --d 14",
    "basis partition --d 25",
    "basis partition --d 96",
]


def fingerprint(root: Path, command: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    try:
        result = subprocess.run(
            [sys.executable, "-m", "finiteweyl.cli", *shlex.split(command)],
            capture_output=True,
            env=env,
            timeout=60,
        )
    except subprocess.TimeoutExpired as exc:
        return f"timeout {hashlib.sha256(exc.stdout or b'').hexdigest()} {command}"
    return f"{result.returncode} {hashlib.sha256(result.stdout).hexdigest()} {command}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is run (default: this one)",
    )
    parser.add_argument(
        "--command", action="append", help="CLI arguments to run instead of the fixed list"
    )
    args = parser.parse_args(argv)
    for command in args.command or COMMANDS:
        print(fingerprint(args.root.resolve(), command), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
