"""CLI golden cases: stdout, stderr, exit code and written files, byte for byte.

The cases and their expected bytes live in ``golden/cli_cases.json``; rerun
``python tests/record_cli_golden.py`` to record them again after an intended
output change.
"""

import json

import pytest

from record_cli_golden import CASES_FILE, run_case

CASES = json.loads(CASES_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["args"]) for c in CASES])
def test_cli_golden(case, tmp_path):
    assert run_case(case["args"], tmp_path) == case
