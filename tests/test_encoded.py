"""Tests for the three-spin encoded qubits and their coupling algebra."""

import math

import numpy as np
import pytest

from pulsecomp import (
    ErrorAssignment,
    PauliError,
    SequenceError,
    compile_sequence,
    distance,
    evolve,
    exchange,
    fidelity,
    get_encoding,
    heisenberg3_encoding,
    heisenberg_coupling,
    heisenberg_logical,
    matrix_of,
    p3_bb1,
    p3_sequence,
    sector_decomposition,
    subspace_fidelity,
    xy3_encoding,
    xy_coupling,
)


class TestCouplings:
    def test_xy_terms(self):
        h = xy_coupling(1, 2, n=2)
        assert h.coefficients == {"XX": 0.5, "YY": 0.5}

    def test_exchange_is_swap(self):
        m = matrix_of(exchange(1, 2, n=2))
        swap = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.abs(m - swap).max() < 1e-14

    def test_heisenberg_from_exchange(self):
        g = matrix_of(heisenberg_coupling(1, 2))
        e = matrix_of(exchange(1, 2))
        assert np.abs(g - (-np.eye(8) + 2 * e)).max() < 1e-14

    def test_invalid_pair(self):
        for coupling in (xy_coupling, exchange, heisenberg_coupling):
            with pytest.raises(PauliError):
                coupling(2, 2)
            with pytest.raises(PauliError):
                coupling(1, 4)
            with pytest.raises(PauliError):
                coupling(2, 1)
            with pytest.raises(PauliError):
                coupling(1, 3, n=2)


class TestSectorDecomposition:
    def test_xy_dimensions(self):
        sectors = sector_decomposition("xy")
        assert [s.dim for s in sectors.values()] == [1, 3, 3, 1]
        assert list(sectors) == [(1.5, 1.5), (1.5, 0.5), (1.5, -0.5), (1.5, -1.5)]

    def test_xy_sectors_invariant(self):
        for sub in sector_decomposition("xy").values():
            p = sub.projector
            for pair in ((1, 2), (2, 3), (1, 3)):
                a = matrix_of(xy_coupling(*pair))
                assert np.abs(a @ p - p @ a).max() < 1e-12

    def test_heisenberg_sector_structure(self):
        sectors = sector_decomposition("heisenberg")
        assert [(key, sub.dim) for key, sub in sectors.items()] == [
            ((1.5, 1.5), 1),
            ((1.5, 0.5), 1),
            ((0.5, 0.5), 2),
            ((1.5, -0.5), 1),
            ((0.5, -0.5), 2),
            ((1.5, -1.5), 1),
        ]

    def test_heisenberg_sectors_invariant_and_complete(self):
        sectors = sector_decomposition("heisenberg")
        total = sum(sub.projector for sub in sectors.values())
        assert np.abs(total - np.eye(8)).max() < 1e-12
        for sub in sectors.values():
            p = sub.projector
            for pair in ((1, 2), (2, 3), (1, 3)):
                e = matrix_of(exchange(*pair))
                assert np.abs(e @ p - p @ e).max() < 1e-12

    def test_doublet_logical_z_spectrum(self):
        b = sector_decomposition("heisenberg")[(0.5, 0.5)].basis
        restricted = b.conj().T @ matrix_of(exchange(1, 2)) @ b
        assert np.linalg.eigvalsh(restricted) == pytest.approx([-1.0, 1.0])


class TestP3:
    def test_single_shared_label(self):
        seq = p3_sequence(0.7)
        assert len(seq.pulses) == 5
        assert len(seq.labels) == 1

    def test_zero_error_code_action(self):
        theta = 1.3
        enc = xy3_encoding()
        label = next(iter(p3_sequence(theta).labels))
        u = compile_sequence(p3_sequence(theta), ErrorAssignment.zero([label]))
        b = enc.code.basis
        expect = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.abs(b.conj().T @ u.matrix @ b - expect).max() < 1e-12

    def test_polarized_states_only_acquire_phase(self):
        label = next(iter(p3_sequence(0.9).labels))
        u = compile_sequence(p3_sequence(0.9), ErrorAssignment.uniform([label], 0.1))
        for idx in (0, 7):  # |000> and |111>
            col = u.matrix[:, idx]
            assert abs(abs(col[idx]) - 1.0) < 1e-12

    def test_uncorrected_code_slope_two(self):
        theta = math.pi / 4
        enc = xy3_encoding()
        label = next(iter(p3_sequence(theta).labels))
        ideal = compile_sequence(p3_sequence(theta), ErrorAssignment.zero([label]))
        eps = np.array([5e-3, 1e-2, 2e-2])
        infid = [
            subspace_fidelity(
                ideal,
                compile_sequence(p3_sequence(theta), ErrorAssignment.uniform([label], e)),
                enc.code,
            ).infidelity
            for e in eps
        ]
        slope = np.polyfit(np.log(eps), np.log(infid), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestP3Bb1:
    def test_pulse_count(self):
        assert len(p3_bb1(0.7).pulses) == 20

    def test_zero_error_matches_plain(self):
        theta = math.pi / 4
        label = next(iter(p3_bb1(theta).labels))
        u = compile_sequence(p3_sequence(theta), ErrorAssignment.zero([label]))
        v = compile_sequence(p3_bb1(theta), ErrorAssignment.zero([label]))
        assert fidelity(u, v).infidelity < 1e-12


class TestEncodings:
    def test_get_encoding(self):
        assert get_encoding("xy3").scheme == "xy3"
        assert get_encoding("heisenberg3").scheme == "heisenberg3"
        with pytest.raises(PauliError):
            get_encoding("other")

    def test_xy_logical_ops_preserve_mz_block(self):
        enc = xy3_encoding()
        p = sector_decomposition("xy")[(1.5, 0.5)].projector
        for op in (enc.logical_z, enc.logical_x):
            m = matrix_of(op)
            assert np.abs(m @ p - p @ m).max() < 1e-12

    def test_xy_logical_algebra_on_code(self):
        enc = xy3_encoding()
        b = enc.code.basis
        z = b.conj().T @ matrix_of(enc.logical_z) @ b
        x = b.conj().T @ matrix_of(enc.logical_x) @ b
        assert np.abs(z @ z - np.eye(2)).max() < 1e-12
        assert np.abs(x @ x - np.eye(2)).max() < 1e-12
        assert np.abs(z @ x + x @ z).max() < 1e-12

    def test_heisenberg_logical_ops_preserve_code(self):
        enc = heisenberg3_encoding()
        p = enc.code.projector
        for op in (enc.logical_z, enc.logical_x):
            m = matrix_of(op)
            assert np.abs(m @ p - p @ m).max() < 1e-12

    def test_heisenberg_logical_algebra_on_code(self):
        enc = heisenberg3_encoding()
        b = enc.code.basis
        z = b.conj().T @ matrix_of(enc.logical_z) @ b
        x = b.conj().T @ matrix_of(enc.logical_x) @ b
        assert np.abs(z @ z - np.eye(2)).max() < 1e-12
        assert np.abs(x @ x - np.eye(2)).max() < 1e-12
        assert np.abs(z @ x + x @ z).max() < 1e-12


class TestHeisenbergLogical:
    def test_uncorrected_z_rotation_on_code(self):
        theta = math.pi / 4
        enc = heisenberg3_encoding()
        seq = heisenberg_logical("z", theta)
        u = compile_sequence(seq, ErrorAssignment.zero(seq.labels))
        b = enc.code.basis
        expect = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.abs(b.conj().T @ u.matrix @ b - expect).max() < 1e-12

    def test_corrected_collapses_on_code_at_zero(self):
        theta = math.pi / 4
        enc = heisenberg3_encoding()
        plain = heisenberg_logical("z", theta)
        corr = heisenberg_logical("z", theta, corrected=True)
        u = compile_sequence(plain, ErrorAssignment.zero(plain.labels))
        v = compile_sequence(corr, ErrorAssignment.zero(corr.labels))
        assert subspace_fidelity(u, v, enc.code).infidelity < 1e-12

    def test_code_fidelity_exceeds_full_fidelity(self):
        theta = math.pi / 4
        enc = heisenberg3_encoding()
        plain = heisenberg_logical("z", theta)
        corr = heisenberg_logical("z", theta, corrected=True)
        ideal = compile_sequence(plain, ErrorAssignment.zero(plain.labels))
        v = compile_sequence(corr, ErrorAssignment.uniform(corr.labels, 1e-2))
        code_f = subspace_fidelity(ideal, v, enc.code).fidelity
        full_f = fidelity(ideal, v).fidelity
        assert code_f > full_f

    def test_x_axis_rotation_on_code(self):
        theta = 0.6
        enc = heisenberg3_encoding()
        seq = heisenberg_logical("x", theta)
        u = compile_sequence(seq, ErrorAssignment.zero(seq.labels))
        b = enc.code.basis
        restricted = b.conj().T @ u.matrix @ b
        x = b.conj().T @ matrix_of(enc.logical_x) @ b
        w, vecs = np.linalg.eigh(x)
        expect = vecs @ np.diag(np.exp(-1j * theta / 2 * w)) @ vecs.conj().T
        assert np.abs(restricted - expect).max() < 1e-12

    @pytest.mark.parametrize("axis", ["y", "Z", ""])
    def test_unknown_axis_rejected(self, axis):
        with pytest.raises(SequenceError, match=repr(axis)):
            heisenberg_logical(axis, 0.6)
