"""The README's library example and sweep configuration run as written."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pulsecomp
from pulsecomp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after the README line ``heading``."""
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    assert match, f"no {language} block after {heading!r}"
    return match.group(1)


def test_library_example(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pulsecomp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _block("## Library example", "python")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [float(eps) for eps, _ in lines] == [1e-3, 1e-2]
    small, large = (float(infid) for _, infid in lines)
    # the example's comment: the infidelity scales as eps**6
    assert math.log10(large / small) == pytest.approx(6.0, abs=0.05)


def test_sweep_configuration(tmp_path, capsys):
    cfg = json.loads(_block("### Sweep configuration", "json"))
    cfg["output"] = str(tmp_path / cfg["output"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["sweep", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {cfg['grid']['points']} rows to {cfg['output']}" in out
    slope = re.search(r"^slope fit: exponent (\S+), prefactor \S+, max residual \S+ over ", out, re.M)
    assert slope, out
    # with X1's error held at 0.01, bb1_j no longer cancels the varied ZZ
    # error to second order: the infidelity grows as eps**2
    assert float(slope.group(1)) == pytest.approx(2.0, abs=0.05)
