"""Figure CSVs stay byte-identical to the recorded reference digests, and
each figure's metadata sidecar describes the CSVs written beside it.

The digests live in ``perfbench/reference.json``; this test only reads
them.  A change that alters any figure CSV, even in the last digit, fails
here.
"""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pulsecomp.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# (figure id, --seed, key in the reference digests)
CASES = [
    ("wj", 0, "wj"),
    ("grid", 0, "grid"),
    ("chain", 0, "chain/seed0"),
    ("chain", 1, "chain/seed1"),
    ("chain", 2, "chain/seed2"),
    ("chain", 3, "chain/seed3"),
    ("xy", 0, "xy"),
    ("heisenberg", 0, "heisenberg"),
    # the two-qubit and code-space figures draw nothing from the seed:
    # every seed writes the seed-0 CSVs
    ("wj", 1, "wj"),
    ("wj", 2, "wj"),
    ("wj", 3, "wj"),
    ("grid", 1, "grid"),
    ("grid", 2, "grid"),
    ("grid", 3, "grid"),
    ("xy", 1, "xy"),
    ("xy", 2, "xy"),
    ("xy", 3, "xy"),
    ("heisenberg", 1, "heisenberg"),
    ("heisenberg", 2, "heisenberg"),
    ("heisenberg", 3, "heisenberg"),
]
IDS = [figure if seed == 0 else f"{figure}-seed{seed}" for figure, seed, _ in CASES]


@pytest.fixture(scope="module")
def digests():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Output directory of ``figure ID --seed S``, each written once per module."""
    dirs = {}

    def run(figure, seed):
        if (figure, seed) not in dirs:
            out = tmp_path_factory.mktemp(f"{figure}_seed{seed}")
            assert main(["--seed", str(seed), "figure", figure, "--out", str(out)]) == 0
            dirs[figure, seed] = out
        return dirs[figure, seed]

    return run


@pytest.mark.parametrize("figure,seed,key", CASES, ids=IDS)
def test_figure_csvs_match_reference(written, digests, figure, seed, key):
    out = written(figure, seed)
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }
    assert got == digests[key]


@pytest.mark.parametrize("figure,seed,key", CASES, ids=IDS)
def test_sidecar_describes_written_csvs(written, figure, seed, key):
    out = written(figure, seed)
    meta = json.loads((out / f"{figure}_metadata.json").read_text(encoding="utf-8"))
    assert meta["figure"] == figure and meta["seed"] == seed
    assert sorted(meta["files"]) == sorted(p.name for p in out.glob("*.csv"))
    grid = meta["grid"]
    expect = np.geomspace(grid["lo"], grid["hi"], grid["points"])
    for name in meta["files"]:
        with open(out / name, newline="") as fh:
            eps1 = sorted({float(row["eps1"]) for row in csv.DictReader(fh)})
        assert np.array_equal(eps1, expect), name
