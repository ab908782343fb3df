"""Figure CSVs stay byte-identical to the recorded reference digests.

The digests live in ``perfbench/reference.json``; this test only reads
them.  A change that alters any figure CSV, even in the last digit, fails
here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pulsecomp.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# (figure id, --seed, key in the reference digests)
CASES = [("wj", 0, "wj"), ("grid", 0, "grid"), ("chain", 0, "chain/seed0")]


@pytest.fixture(scope="module")
def digests():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


@pytest.mark.parametrize("figure,seed,key", CASES, ids=[c[0] for c in CASES])
def test_figure_csvs_match_reference(tmp_path, digests, figure, seed, key):
    assert main(["--seed", str(seed), "figure", figure, "--out", str(tmp_path)]) == 0
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }
    assert got == digests[key]
