"""The benchmark's tracer wraps pulsecomp functions by name.

``perfbench/tracer.py`` looks up every name in its ``LAYERS`` table when it
installs; a renamed or deleted function breaks the benchmark, whose own test
does not run with this suite.  The tracer is imported here read-only and
installed and removed once.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from pulsecomp import Hamiltonian, unitary

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(tracer):
    missing = [
        f"{home.__name__}.{name}"
        for home, names in tracer.LAYERS.values()
        for name in names
        if not callable(getattr(home, name, None))
    ]
    assert missing == []


def test_install_then_uninstall_restores(tracer):
    eigh = np.linalg.eigh
    originals = {
        (home, name): getattr(home, name)
        for home, names in tracer.LAYERS.values()
        for name in names
    }
    recorder = tracer.Recorder(trace=True)
    recorder.install()
    try:
        assert np.linalg.eigh is not eigh
        unitary.evolve([(math.pi / 4, 0.0, Hamiltonian.single(0.5, "X"))])
        assert any(name.startswith("unitary.evolve:") for name, _ in recorder.spans)
    finally:
        recorder.uninstall()
    assert np.linalg.eigh is eigh
    for (home, name), fn in originals.items():
        assert getattr(home, name) is fn
