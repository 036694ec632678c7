"""Byte-for-byte lock on the CLI: exit status, stdout and stderr per argv.

Each entry of golden_cli.json is one argv list with what
``localzeta.cli.main`` printed and returned for it.  The data covers every
command, format and method, and the exit-1 error paths; argparse's own
usage and help text is deliberately not part of it.  The file is data, not
a snapshot to refresh: a difference here is a change in behaviour.
"""

import json
from pathlib import Path

import pytest

from localzeta.cli import main

CASES = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_cli_output_is_unchanged(case, capsys, monkeypatch):
    monkeypatch.delenv("LOCALZETA_BRUTE_CAP", raising=False)
    status = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == (
        case["status"], case["stdout"], case["stderr"]
    )
