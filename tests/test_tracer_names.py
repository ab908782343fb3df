"""The benchmark's tracer wraps pulsecomp functions by name.

``perfbench/tracer.py`` looks up every name in its ``LAYERS`` table when it
installs; a renamed or deleted function breaks the benchmark, whose own test
does not run with this suite.  A call that no longer goes through a wrapped
name silently zeroes the counters its hook feeds.  The tracer is imported
here read-only, and each test that installs it removes it again.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from pulsecomp import Hamiltonian, encoded, sequences, unitary

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


def test_every_counter_hook_fires(tracer):
    """Calls that bypass a wrapped name would zero a per-layer counter."""
    recorder = tracer.Recorder(trace=True)
    recorder.install()
    try:
        # an angle no other test builds: a live DAG of this chain would have
        # its blocks proved already, and its rebuild would make no check compile
        chain = sequences.wj_chain(2, 0.6417)
        sequences.compile_sequence(chain, sequences.ErrorAssignment.uniform(chain.labels, 1e-3))
        plain = encoded.p3_sequence(math.pi / 4)
        ideal = sequences.compile_sequence(plain, sequences.ErrorAssignment.zero(plain.labels))
        actual = sequences.compile_sequence(
            encoded.p3_bb1(math.pi / 4), sequences.ErrorAssignment.uniform(plain.labels, 1e-3)
        )
        unitary.subspace_fidelity(ideal, actual, encoded.xy3_encoding().code)
    finally:
        recorder.uninstall()
    counters = recorder.counters
    evolve_calls = recorder.layer_totals()["unitary.evolve"][0]
    assert evolve_calls > 0
    assert counters["evolve.square_checks"] == evolve_calls
    assert counters["evolve.closed_form"] > 0
    assert counters["check_compiles"] > 0
    # CompileCache.get and .put feed the cache counters
    assert counters["cache.hits"] > 0
    assert counters["cache.misses"] > 0
    assert counters["cache.entries"] > 0
    assert sum(v for k, v in counters.items() if k.startswith("method.")) > 0
