"""The check list of every suite: names, order, statuses and tolerances.

A check's name, its place in the list, its status and its tolerance are
part of the stdout contract; its deviation is not pinned here, because a
float deviation depends on the BLAS kernel.  Each digest is the sha256 of
`json.dumps([[name, status, tolerance], ...])` and was recorded before the
MUB deviations became a matrix, so a rewrite that reorders, renames, drops
or re-judges a check fails here.  `verify all --d 12` is compared with the
check list of the benchmark's reference payload instead.
"""

import hashlib
import json
from pathlib import Path

import pytest

from finiteweyl.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"

PINS = [
    ("verify all --d 3", 0, "all", "pass", 63,
     "8dc1458f407b963ec9fc4602f59881c28a1ae646b25535a475447f3ec6c4d0e4"),
    ("verify mub --p 7", 0, "mub", "pass", 33,
     "d722df327c436d8dd43e2587cfa5a0a6d97046b3e5a621b5277b7529c1e24371"),
    ("verify basis --p 3 --e 2", 0, "basis", "pass", 12,
     "f2e3a6ba90e2ca6013c209e96334dfc877c0aa884739516d4d75aa19b0903b69"),
    ("verify weyl --d 5", 0, "weyl", "pass", 14,
     "8b0f646e0b6993ab5cdcea1e364c72777fb1c6d199a695b621b7e06b8c65f6a9"),
    ("weyl su2-check --d 9", 0, "su2", "pass", 2,
     "3a303c6a244af6fad7cc0e6d21fd099e78847de64bb6916625508ca11e1ec967"),
    ("hw check", 0, "hw", "pass", 10,
     "5593014ca44e2f7746f5ea74a8ed44ec93f7c7b431ebccfbfb029f879034e635"),
]


def _run(capsys, command: str) -> tuple[int, dict, list]:
    code = main(command.split())
    payload = json.loads(capsys.readouterr().out)
    checks = [[c["name"], c["status"], c["tolerance"]] for c in payload["checks"]]
    return code, payload, checks


@pytest.mark.parametrize(
    "command, exit_code, suite, overall, count, digest", PINS, ids=[pin[0] for pin in PINS]
)
def test_check_list_matches_recorded_digest(
    capsys, command, exit_code, suite, overall, count, digest
):
    code, payload, checks = _run(capsys, command)
    assert (code, payload["suite"], payload["overall"], len(checks)) == (
        exit_code, suite, overall, count
    )
    assert hashlib.sha256(json.dumps(checks).encode()).hexdigest() == digest


def test_composite_check_list_matches_benchmark_reference(capsys):
    reference = json.loads((REFERENCE / "verify-composite.json").read_text())
    code, payload, checks = _run(capsys, "verify all --d 12")
    assert code == 1
    assert (payload["suite"], payload["overall"]) == (reference["suite"], reference["overall"])
    assert checks == reference["checks"]
