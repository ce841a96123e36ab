"""Run the Tier-1 tests and pass exactly on the two by-design failures.

    python scripts/tier1_gate.py

Runs `python -m pytest -q --continue-on-collection-errors` in the root of
this checkout, with `<root>/src` on PYTHONPATH and a JUnit XML report
written to a temporary file; arguments after the script's name go to
pytest as well.  It exits 0 exactly when the failing tests are acceptance
criteria 01 and 05 (README "Known failing claims"), each a claim of the
paper that is false as written.  Any other failing test, a collection
error, or either criterion passing or not running exits 1 and names the
tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

BY_DESIGN = frozenset(
    {"test_criterion_01_group_class_counting", "test_criterion_05_hadamard_relations"}
)


def failing_tests(report: Path) -> tuple[set[str], set[str]]:
    """The names of the failed or erroring test cases of a JUnit XML report, and of all of them.

    A collection error is a test case of its own, named after the module
    that failed to collect.
    """
    failed, seen = set(), set()
    for case in ET.parse(report).getroot().iter("testcase"):
        name = case.get("name", "")
        seen.add(name)
        if case.find("failure") is not None or case.find("error") is not None:
            # the by-design criteria by name, any other test by its classname too
            label = "::".join(filter(None, (case.get("classname"), name)))
            failed.add(name if name in BY_DESIGN else label)
    return failed, seen


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "tier1.xml"
        command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        command += [f"--junitxml={report}", *(sys.argv[1:] if argv is None else argv)]
        code = subprocess.run(command, cwd=root, env=env).returncode
        if not report.exists():
            print(f"tier1 gate: FAIL, pytest exited {code} and wrote no report")
            return 1
        failed, seen = failing_tests(report)
    problems = [f"failed: {name}" for name in sorted(failed - BY_DESIGN)]
    problems += [f"did not fail: {name}" for name in sorted((BY_DESIGN & seen) - failed)]
    problems += [f"did not run: {name}" for name in sorted(BY_DESIGN - seen)]
    if code not in (0, 1) or problems:
        print(f"tier1 gate: FAIL (pytest exited {code})")
        print("\n".join(problems))
        return 1
    print("tier1 gate: PASS, only the by-design criteria 01 and 05 fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
