"""Golden outputs: CLI reports compared byte for byte with recorded files.

The files under tests/golden/ were written by the CLI itself, e.g.

    python -m qkahler.cli verify -n 2 --suite all --json > tests/golden/verify-n2-hq.json

Any deliberate change to an output is re-recorded the same way and noted in
CHANGES.md.  The larger reports are pinned by the sha256 digests under
tests/golden/, which the CI loop also checks.
"""

from __future__ import annotations

import hashlib
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


DIGESTS = {
    "verify-n4-relations.sha256": ["verify", "-n", "4", "--suite",
                                   "relations", "--json"],
    "verify-n6-relations.sha256": ["verify", "-n", "6", "--suite",
                                   "relations", "--json"],
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_recorded_digest(name, capsys):
    code = main(DIGESTS[name])
    out = capsys.readouterr().out
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == (GOLDEN / name).read_text().strip())
