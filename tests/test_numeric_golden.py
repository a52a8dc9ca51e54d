"""``eta --mode numeric`` stdout against the digests in numeric_digests.json.

Each digest is the sha256 of stdout plus the exit code of one argv: ten
eta-indices whose largest entries run from 2 to 9, at 1, 20, 150 and 300
digits, in text and JSON.  The file was captured before the exact
Euler-Maclaurin path of ``zeta_constant`` moved to integer arithmetic and is
only read here, so every printed digit and bound must stay byte-identical.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zetalike import cli

DIGESTS = json.loads((Path(__file__).with_name("numeric_digests.json")).read_text())


def test_digest_grid_size():
    assert len(DIGESTS) == 80


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_numeric_stdout_matches_digest(capsys, argv):
    code = cli.run(argv.split())
    out = capsys.readouterr().out
    got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == DIGESTS[argv]
