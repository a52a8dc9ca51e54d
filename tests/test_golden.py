"""CLI stdout against the reference digests committed in perfbench/digests.json.

Each digest is the sha256 of stdout plus the exit code of one argv, captured
before any change to the output paths; the file is only read here.  The subset
checked is ``verify --suite all`` in every format, every ``table`` argv
(weights 2..12) and every ``verify ... --format json`` argv, which exercises
every report, row and value renderer, every exact eta- and rho-value up to the
largest table weight and every ``--max-weight`` selection of every suite.
"""

import hashlib
import json
from pathlib import Path

import pytest

from zetalike import cli

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)
GOLDEN_ARGV = [
    argv
    for argv in DIGESTS
    if argv.startswith("verify --suite all --format")
    or argv.startswith("table ")
    or (argv.startswith("verify ") and argv.endswith(" --format json"))
]


def test_golden_subset_size():
    assert len(GOLDEN_ARGV) == 269


@pytest.mark.parametrize("argv", GOLDEN_ARGV)
def test_stdout_matches_reference_digest(capsys, argv):
    code = cli.run(argv.split())
    out = capsys.readouterr().out
    got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == DIGESTS[argv]
