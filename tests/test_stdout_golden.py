"""Stdout of float-free CLI commands against sha256 digests in tests/golden/.

No command listed in stdout_sha256.json prints a float, so its bytes do
not depend on libm or BLAS, and any change to the payload format or to an
exact result changes a digest.  The digests were recorded from the CLI
before the payload encoders moved into `serialize`.  `QUARTER_TURN_GOLDEN`
pins two commands whose floats are all exact quarter turns the same way.
"""

import hashlib
import json
import shlex

import pytest
from conftest import load_golden

from finiteweyl.cli import main

GOLDEN = load_golden("stdout_sha256.json")


def float_leaves(value) -> int:
    if isinstance(value, float):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return sum(float_leaves(x) for x in value)
    return 0


# the structure constants at d = 2 and d = 4 are differences of powers of q,
# quarter turns that `phases` takes from an exact table, so these floats do
# not depend on libm or BLAS either; the digests were recorded before the
# structure constants became a record list
QUARTER_TURN_GOLDEN = {
    "basis structure --d 2": "f2f15584e5531215f1c7ee2b6bfd400467b02b39116ced48214c2ab6c2fbfc5e",
    "basis structure --d 4": "bdd2c0ff991c2fb98af3a5272a9e1aacd6bf1bc3afef0a45fb781bee1993b3de",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_golden_digest(capsys, command):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert float_leaves(json.loads(out)) == 0
    assert code == GOLDEN[command]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]["sha256"]


@pytest.mark.parametrize("command", list(QUARTER_TURN_GOLDEN))
def test_quarter_turn_stdout_matches_golden_digest(capsys, command):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    parts = {e[part] for e in json.loads(out)["entries"] for part in ("re", "im")}
    assert parts <= {0.0, 1.0, -1.0, 2.0, -2.0}
    assert hashlib.sha256(out.encode()).hexdigest() == QUARTER_TURN_GOLDEN[command]
