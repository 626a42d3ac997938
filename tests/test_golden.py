"""Golden outputs: CLI reports compared byte for byte with recorded files.

The files under tests/golden/ were written by the CLI itself, e.g.

    python -m qkahler.cli verify -n 2 --suite all --json > tests/golden/verify-n2-hq.json

Any deliberate change to an output is re-recorded the same way and noted in
CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from qkahler.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify-n2-hq.json": ["verify", "-n", "2", "--suite", "all", "--json"],
    "verify-n2-h1.json": ["verify", "-n", "2", "--suite", "all",
                          "--mode", "h1", "--json"],
    "verify-n2-numeric.json": ["verify", "-n", "2", "--suite", "all",
                               "--mode", "numeric:9/10:7/8", "--json"],
    "gram-n2-hq.json": ["gram", "-n", "2", "--json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
