"""The repository's pytest settings report a failing property test as a failure.

``filterwarnings`` turns every warning into an error.  A DeprecationWarning
that the hypothesis plugin raises while it reports a failed example would
then become an INTERNALERROR, which drops the failing test's name and
falsifying example and ends the session; the settings ignore that one
warning.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_is_reported(tmp_path):
    (tmp_path / "test_x.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "test_x.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_x.py::test_fails - assert 5 < 5" in out
    assert "1 failed, 1 passed" in out
