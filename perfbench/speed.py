"""The host's current speed, from a fixed reference loop.

The shared host this benchmark runs on changes speed by up to 2x within
seconds to minutes, for CPU time as much as for wall time.  A pass is
therefore cut into stages (``StageClock``): ``reference_loop``, which does
not use pulsecomp, runs before the first stage, between stages and after
the last, and each stage's CPU times are scaled by ``NOMINAL_S`` over the
mean CPU time of the loops on either side of it: what the stage would cost
on a host where the loop takes ``NOMINAL_S``.  A change to pulsecomp moves
the stages' times and not the loop's, so it shows in full in the scaled
times.

The loop mixes what a pass does: dictionary work on Pauli-label keys, and
small complex matrices (Hermitian eigendecomposition, exponentials,
products, Kronecker products).
"""

from __future__ import annotations

import time

import numpy as np

# About the loop's CPU seconds on an idle 2-vCPU x86-64 sandbox (Python 3.11,
# numpy 2.4); it only sets the scale of the reported times.
NOMINAL_S = 0.1
REPS = 2000

# Bound before the tracer patches numpy.linalg, so the loop is never counted.
_eigh = np.linalg.eigh


def reference_loop(reps: int = REPS) -> float:
    """CPU seconds this process spends on ``reps`` rounds of fixed work."""
    rng = np.random.default_rng(12345)
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(16)]
    coeffs = {k: rng.standard_normal() for k in ("II", "IX", "XI", "ZZ", "XY", "YX", "YY", "ZI")}
    start = time.process_time()
    acc = 0.0
    for r in range(reps):
        terms: dict[str, float] = {}
        for label, c in coeffs.items():
            key = label[::-1] if r % 2 else label
            terms[key] = terms.get(key, 0.0) + c * (r % 7)
        h = mats[r % 16]
        h = h + h.conj().T
        w, v = _eigh(h)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += abs(np.trace(u @ np.kron(u[:2, :2], u[2:, 2:]))) + len(terms)
    seconds = time.process_time() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return seconds


class StageClock:
    """Raw and speed-scaled times of the stages of one pass.

    Call ``checkpoint`` before the pass, between its stages and after it.
    Each stage records CPU time, wall time, builder time and point time
    (``recorder.build_seconds()`` and ``log.point_cpu_s``).
    """

    FIELDS = ("cpu_s", "wall_s", "build_cpu_s", "point_cpu_s")

    def __init__(self, recorder, log):
        self.recorder = recorder
        self.log = log
        self.refs: list[float] = []
        self.stages: list[list[float]] = []
        self._start = None

    def _read(self):
        return (
            time.process_time(),
            time.perf_counter(),
            self.recorder.build_seconds(),
            self.log.point_cpu_s,
        )

    def checkpoint(self) -> None:
        now = self._read()
        if self._start is not None:
            self.stages.append([b - a for a, b in zip(self._start, now)])
        self.refs.append(reference_loop())
        self._start = self._read()

    def totals(self) -> dict:
        """Raw sums of each field, and ``norm_`` sums of the scaled CPU times."""
        factors = [2 * NOMINAL_S / (a + b) for a, b in zip(self.refs, self.refs[1:])]
        out = {"ref_s": sum(self.refs) / len(self.refs), "stages": len(self.stages)}
        for k, name in enumerate(self.FIELDS):
            out[name] = sum(stage[k] for stage in self.stages)
        for k, name in ((0, "norm_cpu_s"), (2, "norm_build_s"), (3, "norm_point_s")):
            out[name] = sum(f * stage[k] for f, stage in zip(factors, self.stages))
        return out
