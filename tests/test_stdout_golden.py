"""Stdout of float-free CLI commands against sha256 digests in tests/golden/.

No command listed in stdout_sha256.json prints a float, so its bytes do
not depend on libm or BLAS, and any change to the payload format or to an
exact result changes a digest.  The digests were recorded from the CLI
before the payload encoders moved into `serialize`.
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


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_matches_golden_digest(capsys, command):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert float_leaves(json.loads(out)) == 0
    assert code == GOLDEN[command]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]["sha256"]
