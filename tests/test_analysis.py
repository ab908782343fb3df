"""Tests for sweeps, slope fits, crossover location, and the Magnus oracle."""

import math

import numpy as np
import pytest

from pulsecomp import (
    CompileError,
    ErrorAssignment,
    Hamiltonian,
    INFIDELITY_FLOOR,
    Pulse,
    PulseSequence,
    Unitary,
    bb1_w,
    bb1_wj,
    compile_sequence,
    evolve,
    fidelity,
    fit_slope,
    fit_sweep,
    locate_crossover,
    magnus_m3,
    magnus_residual,
    matrix_of,
    phi_of,
    random_sign_assignment,
    sweep,
)

HX = Hamiltonian.single(0.5, "X")
HY = Hamiltonian.single(0.5, "Y")
HZZ = Hamiltonian.single(0.5, "ZZ")
HX1 = Hamiltonian.single(0.5, "XI")
HY1 = Hamiltonian.single(0.5, "YI")


class TestSweep:
    def test_zero_error_rows(self):
        seq = PulseSequence((Pulse.single("a", 0.5, HX),))
        target = evolve([(0.5, 0.0, HX)])
        res = sweep(
            seq, target, lambda e: ErrorAssignment.zero(["a"]), [1e-3, 1e-2], "id"
        )
        assert all(r.infidelity < 1e-12 for r in res.rows)

    def test_uncorrected_slope_two(self):
        seq = PulseSequence((Pulse.single("a", math.pi / 4, HX),))
        target = evolve([(math.pi / 4, 0.0, HX)])
        res = sweep(
            seq,
            target,
            lambda e: ErrorAssignment.uniform(["a"], e),
            np.geomspace(1e-4, 1e-2, 9),
        )
        assert fit_sweep(res).exponent == pytest.approx(2.0, abs=0.05)

    def test_bb1w_slope_six(self):
        seq = bb1_w(math.pi / 4, HX, HY, "a", "b")
        target = evolve([(math.pi / 4, 0.0, HX)])
        res = sweep(
            seq,
            target,
            lambda e: ErrorAssignment.uniform(["a", "b"], e),
            np.geomspace(1e-4, 1e-2, 9),
        )
        assert fit_sweep(res).exponent == pytest.approx(6.0, abs=0.1)

    def test_grid_validation(self):
        seq = PulseSequence((Pulse.single("a", 0.5, HX),))
        target = evolve([(0.5, 0.0, HX)])
        with pytest.raises(ValueError):
            sweep(seq, target, lambda e: ErrorAssignment.uniform(["a"], e), [1e-2, 1e-3])
        with pytest.raises(ValueError):
            sweep(seq, target, lambda e: ErrorAssignment.uniform(["a"], e), [0.0, 1e-3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_point_rejected(self, bad):
        # errors_for ignores the grid value, so only the grid check can stop
        # a non-finite point from reaching the CSV.
        seq = PulseSequence((Pulse.single("a", 0.5, HX),))
        target = evolve([(0.5, 0.0, HX)])
        with pytest.raises(ValueError, match=f"grid point {bad}"):
            sweep(seq, target, lambda e: ErrorAssignment.uniform(["a"], 1e-3), [1e-3, bad])

    def test_missing_label_names_first_bad_eps(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        target = evolve([(0.5, 0.0, HX)])

        def errors_for(e):
            return ErrorAssignment({"a": e} if e > 5e-3 else {"a": e, "b": e})

        with pytest.raises(CompileError, match=r"^at eps = 0\.01: unassigned labels: b$"):
            sweep(seq, target, errors_for, [1e-3, 1e-2, 1e-1])

    def test_metric_scores_the_stack(self):
        seq = bb1_w(0.5, HX, HY, "a", "b")
        target = evolve([(0.5, 0.0, HX)])
        grid = [1e-3, 1e-2, 1e-1]
        calls = []

        def metric(t, stack):
            calls.append(stack.shape)
            return [fidelity(t, Unitary(m)).infidelity for m in stack]

        res = sweep(seq, target, lambda e: ErrorAssignment.uniform(["a", "b"], e), grid,
                    metric=metric)
        assert calls == [(3, 2, 2)]
        assert [r.infidelity for r in res.rows] == [
            fidelity(target, compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], e))).infidelity
            for e in grid
        ]

    def test_csv_schema_and_determinism(self):
        seq = PulseSequence((Pulse.single("a", 0.5, HX),))
        target = evolve([(0.5, 0.0, HX)])

        def run():
            return sweep(
                seq,
                target,
                lambda e: ErrorAssignment({"a": e}, seed=7),
                [1e-3, 1e-2],
                "seq-id",
                eps2=0.01,
            ).to_csv()

        csv = run()
        assert csv.splitlines()[0] == "eps1,eps2,infidelity,sequence,seed,signs"
        assert "seq-id" in csv and ",7," in csv
        assert csv == run()


class TestFitSlope:
    def test_exact_power_law(self):
        eps = np.geomspace(1e-4, 1e-2, 10)
        fit = fit_slope(eps, 3.0 * eps**6)
        assert fit.exponent == pytest.approx(6.0, abs=1e-6)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-6)

    def test_regime_mixture_flagged(self):
        eps = np.geomspace(1e-5, 1e-1, 20)
        y = 1e3 * eps**6 + 1e-4 * eps**2
        fit = fit_slope(eps, y)
        assert fit.max_residual > 0.1

    def test_window_and_min_points(self):
        eps = np.geomspace(1e-4, 1e-2, 10)
        y = eps**2
        fit = fit_slope(eps, y, window=(1e-3, 1e-2))
        assert fit.window == (1e-3, 1e-2)
        with pytest.raises(ValueError):
            fit_slope(eps[:3], y[:3])

    def test_floor_exclusion(self):
        eps = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
        y = np.array([0.0, 0.0, 1e-8, 1e-6, 1e-4])
        with pytest.raises(ValueError):
            fit_slope(eps, y)  # only 3 usable points
        assert INFIDELITY_FLOOR < 1e-14


class TestMagnus:
    def test_vanishes_at_right_angle_and_zero(self):
        assert magnus_m3(math.pi / 2, HX, HY).is_zero(1e-15)
        assert magnus_m3(0.0, HX, HY).is_zero(1e-15)

    def test_coefficients_at_pi_over_three(self):
        phi = math.pi / 3
        m3 = magnus_m3(phi, HX, HY)
        c1 = (2 * math.pi**3 / 3) * math.cos(phi) * math.sin(phi) ** 2
        c2 = 2 * math.pi**3 * math.cos(phi) ** 2 * math.sin(phi)
        assert m3.coefficients == pytest.approx({"X": 0.5 * c1, "Y": 0.5 * c2})

    def test_output_hermitian_in_span(self):
        phi = 1.1
        m3 = magnus_m3(phi, HZZ, HX1)
        m = matrix_of(m3)
        assert np.abs(m - m.conj().T).max() < 1e-14
        assert set(m3.coefficients) <= {"ZZ", "XI"}

    def test_residual_order_four(self):
        phi = phi_of(math.pi / 4)
        eps = np.geomspace(1e-3, 1e-1, 9)
        r = [magnus_residual(phi, e, HX, HY) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(r), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.2)
        assert all(a < b for a, b in zip(r, r[1:]))

    def test_without_third_order_term_slope_three(self):
        from pulsecomp.analysis import correction_unitary

        phi = phi_of(math.pi / 4)
        theta = -4 * math.pi * math.cos(phi)
        eps = np.geomspace(1e-3, 1e-1, 9)
        r = []
        for e in eps:
            t = correction_unitary(phi, e, HX, HY).matrix
            u1 = evolve([(-e * theta, 0.0, HX)]).matrix
            r.append(np.linalg.norm(t - u1, ord=2))
        slope = np.polyfit(np.log(eps), np.log(r), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)


class TestRandomSigns:
    def test_zero_magnitude(self):
        e = random_sign_assignment(0, ["a", "b"], 0.0)
        assert all(v == 0.0 for v in e.values.values())

    def test_deterministic(self):
        a = random_sign_assignment(42, ["a", "b", "c"], 0.1)
        b = random_sign_assignment(42, ["a", "b", "c"], 0.1)
        assert a.values == b.values and a.signs == b.signs

    def test_seeds_vary(self):
        patterns = {
            random_sign_assignment(s, [f"l{i}" for i in range(8)], 1.0).signs
            for s in range(20)
        }
        assert len(patterns) > 1

    def test_correlated_pair_always_equal(self):
        for s in range(100):
            e = random_sign_assignment(
                s, ["X1", "Y1", "ZZ12"], 0.5, correlated_pair=("X1", "Y1")
            )
            assert e.values["X1"] == e.values["Y1"]

    def test_signs_recorded_in_sorted_order(self):
        e = random_sign_assignment(3, ["b", "a"], 1.0)
        assert len(e.signs) == 2
        assert e.values["a"] == (1.0 if e.signs[0] == "+" else -1.0)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            random_sign_assignment(0, ["a"], -0.1)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="magnitude must be finite and >= 0"):
            random_sign_assignment(0, ["a"], magnitude)


class TestCrossover:
    @staticmethod
    def _wj_infid(eps2):
        theta = math.pi / 4
        seq = bb1_wj(theta, HZZ, HX1, HY1, "ZZ", "X1", "Y1")
        target = evolve([(theta, 0.0, HZZ)])

        def f(e1):
            errs = ErrorAssignment(
                {"ZZ": e1, "X1": eps2, "Y1": eps2},
                groups=(frozenset({"X1", "Y1"}),),
            )
            return fidelity(target, compile_sequence(seq, errs)).infidelity

        return f

    def test_crossover_near_paper_value(self):
        star = locate_crossover(self._wj_infid(1e-2))
        assert star is not None
        assert 2e-3 < star < 2e-2  # approximately 1e-2

    def test_single_regime_returns_none(self):
        seq = bb1_w(math.pi / 4, HX, HY, "a", "b")
        target = evolve([(math.pi / 4, 0.0, HX)])

        def f(e):
            return fidelity(
                target, compile_sequence(seq, ErrorAssignment.uniform(["a", "b"], e))
            ).infidelity

        assert locate_crossover(f) is None
