"""Acceptance suite: the headline scaling laws and identities, one check per
criterion, each printing a single pass/fail line with its measured values
and runtime.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines for passing checks too).
"""

import math
import time

import numpy as np
import pytest

from pulsecomp import (
    CompileCache,
    ErrorAssignment,
    Hamiltonian,
    Pulse,
    PulseSequence,
    Unitary,
    bb1_j,
    bb1_w,
    bb1_wj,
    compile_sequence,
    crossover_power,
    evolve,
    fidelity,
    fit_slope,
    fit_sweep,
    heisenberg3_encoding,
    heisenberg_logical,
    p3_bb1,
    p3_sequence,
    phi_of,
    random_sign_assignment,
    subspace_fidelity,
    sweep,
    wj_chain,
    xy3_encoding,
)
from pulsecomp.cli import VERIFY_CHECKS

HX = Hamiltonian.single(0.5, "X")
HY = Hamiltonian.single(0.5, "Y")
HZZ = Hamiltonian.single(0.5, "ZZ")
HX1 = Hamiltonian.single(0.5, "XI")
HY1 = Hamiltonian.single(0.5, "YI")

THETA = math.pi / 4


class _Criterion:
    """Collects sub-checks, prints one line, enforces the runtime budget."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget = budget_s
        self.t0 = time.perf_counter()
        self.facts: list[str] = []
        self.failures: list[str] = []

    def check(self, ok: bool, fact: str) -> None:
        self.facts.append(fact)
        if not ok:
            self.failures.append(fact)

    def finish(self) -> None:
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.budget:
            self.failures.append(f"runtime {elapsed:.2f}s over budget {self.budget:g}s")
        status = "PASS" if not self.failures else "FAIL"
        print(
            f"[{status}] criterion {self.number} ({self.title}): "
            f"{'; '.join(self.facts)} [{elapsed:.2f}s]"
        )
        assert not self.failures, "; ".join(self.failures)


def _infid(target, seq, errs, cache=None):
    return fidelity(target, compile_sequence(seq, errs, cache)).infidelity


def test_criterion_1_uncorrected_slope():
    c = _Criterion(1, "uncorrected baseline slope 2", 1.0)
    seq = PulseSequence((Pulse.single("X", THETA, HX),))
    target = evolve([(THETA, 0.0, HX)])
    res = sweep(
        seq, target, lambda e: ErrorAssignment.uniform(["X"], e),
        np.geomspace(1e-4, 1e-2, 9),
    )
    slope = fit_sweep(res).exponent
    c.check(abs(slope - 2.0) <= 0.05, f"slope {slope:.4f} (want 2.00 +- 0.05)")
    c.finish()


def test_criterion_2_bb1w_slope():
    c = _Criterion(2, "four-pulse simultaneous correction slope 6", 1.0)
    seq = bb1_w(THETA, HX, HY, "X", "Y")
    target = evolve([(THETA, 0.0, HX)])
    res = sweep(
        seq, target, lambda e: ErrorAssignment.uniform(["X", "Y"], e),
        np.geomspace(1e-4, 1e-2, 9),
    )
    slope = fit_sweep(res).exponent
    c.check(abs(slope - 6.0) <= 0.1, f"slope {slope:.4f} (want 6.0 +- 0.1)")
    c.finish()


def test_criterion_3_bb1j_regimes():
    c = _Criterion(3, "conjugation-based correction regimes", 5.0)
    seq = bb1_j(THETA, HZZ, HX1, "ZZ", "X1")
    target = evolve([(THETA, 0.0, HZZ)])
    res6 = sweep(
        seq, target, lambda e: ErrorAssignment({"ZZ": e, "X1": 0.0}),
        np.geomspace(1e-4, 1e-2, 9),
    )
    s6 = fit_sweep(res6).exponent
    c.check(abs(s6 - 6.0) <= 0.1, f"pure-main-error slope {s6:.4f} (want 6.0 +- 0.1)")
    res2 = sweep(
        seq, target, lambda e: ErrorAssignment({"ZZ": e, "X1": 1e-2}),
        np.geomspace(1e-6, 1e-4, 9),
    )
    s2 = fit_sweep(res2).exponent
    c.check(abs(s2 - 2.0) <= 0.1, f"small-main-error slope {s2:.4f} (want 2.0 +- 0.1)")
    # first-order closed model: infidelity = 1 - cos(delta/2) with
    # delta = 4 pi phi sin(phi) eps1 eps2
    phi = phi_of(THETA)
    worst = 0.0
    for e1 in (1e-6, 1e-5):
        got = _infid(target, seq, ErrorAssignment({"ZZ": e1, "X1": 1e-2}))
        delta = 4 * math.pi * phi * math.sin(phi) * e1 * 1e-2
        model = 1.0 - math.cos(delta / 2)
        worst = max(worst, abs(got - model) / model)
    c.check(worst <= 0.2, f"closed-model mismatch {worst:.1%} (want <= 20%)")
    c.finish()


def test_criterion_4_bb1wj_gain_and_crossover():
    c = _Criterion(4, "nested correction gain and crossover power", 30.0)
    seq = bb1_wj(THETA, HZZ, HX1, HY1, "ZZ", "X1", "Y1")
    target = evolve([(THETA, 0.0, HZZ)])
    cache = CompileCache()

    def infid(e1, e2):
        errs = ErrorAssignment(
            {"ZZ": e1, "X1": e2, "Y1": e2}, groups=(frozenset({"X1", "Y1"}),)
        )
        return _infid(target, seq, errs, cache)

    e1 = 1e-5
    corrected = infid(e1, 1e-2)
    uncorrected = fidelity(target, evolve([(THETA, e1, HZZ)])).infidelity
    gain = uncorrected / corrected
    c.check(gain >= 1e7, f"small-error gain {gain:.2e} (want >= 1e7)")
    report = crossover_power(infid, [1e-2, 10**-2.5, 1e-3])
    c.check(
        abs(report.fitted_power - 1.5) <= 0.15,
        f"crossover power {report.fitted_power:.3f} (want 1.5 +- 0.15)",
    )
    c.finish()


def test_criterion_5_magnus_oracle():
    c = _Criterion(5, "third-order model and toggled rewrite", 1.0)
    c.check(*VERIFY_CHECKS["magnus-order"]())
    c.check(*VERIFY_CHECKS["toggling"]())
    c.finish()


def test_criterion_6_conjugation_identity():
    c = _Criterion(6, "tilted-axis conjugation identity", 1.0)
    c.check(*VERIFY_CHECKS["jones-conjugation"]())
    c.finish()


def test_criterion_7_xy_code_slopes():
    c = _Criterion(7, "XY-code logical rotation slopes", 5.0)
    enc = xy3_encoding()
    label = next(iter(p3_sequence(THETA).labels))
    ideal = compile_sequence(p3_sequence(THETA), ErrorAssignment.zero([label]))
    f0 = subspace_fidelity(
        ideal, compile_sequence(p3_sequence(THETA), ErrorAssignment.zero([label])),
        enc.code,
    ).fidelity
    c.check(f0 >= 1.0 - 1e-12, f"zero-error code fidelity 1 - {1 - f0:.1e}")

    def metric(t, stack):
        return [subspace_fidelity(t, Unitary(m), enc.code).infidelity for m in stack]

    grid = np.geomspace(1e-3, 1e-1, 9)
    unc = sweep(
        p3_sequence(THETA), ideal, lambda e: ErrorAssignment.uniform([label], e),
        grid, metric=metric,
    )
    s2 = fit_sweep(unc).exponent
    c.check(abs(s2 - 2.0) <= 0.1, f"uncorrected slope {s2:.4f} (want 2.0 +- 0.1)")
    cor = sweep(
        p3_bb1(THETA), ideal, lambda e: ErrorAssignment.uniform([label], e),
        grid, metric=metric, cache=CompileCache(),
    )
    s6 = fit_sweep(cor).exponent
    c.check(abs(s6 - 6.0) <= 0.2, f"corrected slope {s6:.4f} (want 6.0 +- 0.2)")
    c.finish()


def test_criterion_8_heisenberg_code_vs_full():
    c = _Criterion(8, "exchange-code correction helps only on the code space", 5.0)
    enc = heisenberg3_encoding()
    plain = heisenberg_logical("z", THETA)
    corr = heisenberg_logical("z", THETA, corrected=True)
    label = next(iter(plain.labels))
    ideal = compile_sequence(plain, ErrorAssignment.zero([label]))

    def metric(t, stack):
        return [subspace_fidelity(t, Unitary(m), enc.code).infidelity for m in stack]

    grid = np.geomspace(1e-3, 1e-1, 9)
    cor = sweep(
        corr, ideal, lambda e: ErrorAssignment.uniform([label], e),
        grid, metric=metric, cache=CompileCache(),
    )
    s6 = fit_sweep(cor).exponent
    c.check(abs(s6 - 6.0) <= 0.2, f"corrected code slope {s6:.4f} (want 6.0 +- 0.2)")
    eps = 1e-2
    full_corr = _infid(ideal, corr, ErrorAssignment.uniform([label], eps))
    full_unc = _infid(ideal, plain, ErrorAssignment.uniform([label], eps))
    c.check(
        full_corr > full_unc,
        f"full-space corrected {full_corr:.2e} > uncorrected {full_unc:.2e} at eps 1e-2",
    )
    c.finish()


def test_criterion_9_chain():
    c = _Criterion(9, "chained correction on an Ising chain", 120.0)
    grid = np.geomspace(1e-4, 1e-2, 5)
    ref_seq = bb1_w(THETA, HX, HY, "X1", "Y1")
    ref_target = evolve([(THETA, 0.0, HX)])
    ref = sweep(
        ref_seq, ref_target, lambda e: ErrorAssignment.uniform(["X1", "Y1"], e), grid
    ).infidelities()
    worst_ratio = 0.0
    for n in (2, 3):
        seq = wj_chain(n, THETA)
        assert len(seq.pulses) == {2: 172, 3: 6220}[n]
        hxn = Hamiltonian.single(0.5, "I" * (n - 1) + "X")
        target = evolve([(THETA, 0.0, hxn)])
        cache = CompileCache()
        for seed in range(5):
            res = sweep(
                seq,
                target,
                lambda e: random_sign_assignment(
                    seed, sorted(seq.labels), e, correlated_pair=("X1", "Y1")
                ),
                grid,
                cache=cache,
            ).infidelities()
            uncorrected = np.array(
                [
                    fidelity(target, evolve([(THETA, e, hxn)])).infidelity
                    for e in grid
                ]
            )
            if not np.all(res < uncorrected):
                c.check(False, f"n={n} seed={seed} fails to beat the plain pulse")
            worst_ratio = max(worst_ratio, res[0] / ref[0])
    c.check(
        worst_ratio <= 10.0,
        f"small-error infidelity within {worst_ratio:.2f}x of the "
        "single-qubit reference (want <= 10x)",
    )
    c.finish()


def test_criterion_10_negative_coupling():
    c = _Criterion(10, "pi pulse negates the neighbouring coupling", 1.0)
    c.check(*VERIFY_CHECKS["exchange-conjugation"]())
    c.finish()
