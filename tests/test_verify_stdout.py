"""Stdout of `verify group` against sha256 digests.

The group suite's checks are exact: every deviation it prints is 0.0 or
1.0 and every tolerance is 0.0, so its bytes do not depend on libm or
BLAS.  These payloads hold floats, which `test_stdout_golden.py` does not
admit, so their digests are kept here.  They were recorded before the
sampled group checks moved onto the integer array laws, and pin the check
names, order, statuses and tolerances across such rewrites.  Passing runs
print the same payload for every d, as does every run that fails only the
by-design `class_count_formula` at composite d.
"""

import hashlib
import json

import pytest

from finiteweyl.cli import main

PASSING = "d514a7f03ba562beb529e1430a5d2e4ae0df5e548cb56e18490839c3f45aa727"
COUNT_CLAIM_FAILS = "11420a56c080a25944f913c2106af5dc6d3999d6b7baee0f4b4734bdb39035d2"


@pytest.mark.parametrize(
    "d, exit_code, digest", [(3, 0, PASSING), (4, 1, COUNT_CLAIM_FAILS), (12, 1, COUNT_CLAIM_FAILS)]
)
def test_verify_group_stdout_matches_recorded_digest(capsys, d, exit_code, digest):
    code = main(["verify", "group", "--d", str(d)])
    out = capsys.readouterr().out
    assert {c["tolerance"] for c in json.loads(out)["checks"]} == {0.0}
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
