"""Tests for dense unitary synthesis and the worst-case fidelity metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsecomp import (
    ErrorAssignment,
    Hamiltonian,
    Subspace,
    Unitary,
    UnitaryError,
    compile_sequence,
    distance,
    evolve,
    fidelity,
    matrix_of,
    subspace_fidelity,
)
from pulsecomp import unitary
from pulsecomp.encoded import get_encoding, heisenberg_logical, p3_bb1, p3_sequence
from pulsecomp.unitary import matrix_to_hamiltonian


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return Unitary(q * (np.diag(r) / np.abs(np.diag(r))))


class TestUnitaryType:
    def test_accepts_unitary(self):
        u = Unitary(np.eye(4))
        assert u.dim == 4

    def test_rejects_non_unitary(self):
        with pytest.raises(UnitaryError):
            Unitary(np.ones((2, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(UnitaryError):
            Unitary(np.eye(3)[:2])

    def test_rejects_nan(self):
        with pytest.raises(UnitaryError):
            Unitary(np.full((2, 2), np.nan))

    def test_rejects_partial_nan(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(UnitaryError):
            Unitary(m)

    def test_dagger_and_matmul(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 4)
        assert np.abs((u.dagger @ u).matrix - np.eye(4)).max() < 1e-12


class TestSubspace:
    def test_orthonormal_required(self):
        with pytest.raises(UnitaryError):
            Subspace(np.ones((4, 2)))

    def test_nan_basis_rejected(self):
        with pytest.raises(UnitaryError):
            Subspace(np.full((4, 2), np.nan))

    def test_empty_basis_rejected(self):
        with pytest.raises(UnitaryError, match="at least one column"):
            Subspace(np.zeros((4, 0)))

    def test_projector(self):
        s = Subspace(np.eye(4)[:, :2])
        p = s.projector
        assert np.abs(p @ p - p).max() < 1e-14
        assert s.dim == 2 and s.ambient_dim == 4


class TestMatrixOf:
    def test_half_x(self):
        assert np.abs(
            matrix_of(Hamiltonian.single(0.5, "X")) - np.array([[0, 0.5], [0.5, 0]])
        ).max() < 1e-15

    def test_half_zz_diagonal(self):
        m = matrix_of(Hamiltonian.single(0.5, "ZZ"))
        assert np.abs(m - np.diag([0.5, -0.5, -0.5, 0.5])).max() < 1e-15

    def test_xy_coupling_swaps_middle_states(self):
        h = Hamiltonian.single(0.5, "XX") + Hamiltonian.single(0.5, "YY")
        m = matrix_of(h)
        expect = np.zeros((4, 4))
        expect[1, 2] = expect[2, 1] = 1.0
        assert np.abs(m - expect).max() < 1e-14

    def test_qubit_one_is_most_significant(self):
        m = matrix_of(Hamiltonian.single(1.0, "ZI"))
        assert np.abs(m - np.diag([1.0, 1.0, -1.0, -1.0])).max() < 1e-15

    def test_word_matrices_are_not_aliased(self):
        m = matrix_of(Hamiltonian.single(0.5, "XZ"))
        m[0, 0] = 99.0
        again = matrix_of(Hamiltonian.single(0.5, "XZ"))
        assert again[0, 0] == 0.0
        assert np.array_equal(again, 0.5 * np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]]))

    def test_decomposition_roundtrip(self):
        h = Hamiltonian.single(0.3, "XZ") + Hamiltonian.single(-0.7, "YY")
        back = matrix_to_hamiltonian(matrix_of(h), 2)
        assert back.coefficients == pytest.approx(h.coefficients)


class TestEvolve:
    def test_pi_x_rotation(self):
        u = evolve([(math.pi, 0.0, Hamiltonian.single(0.5, "X"))])
        expect = -1j * np.array([[0, 1], [1, 0]])
        assert np.abs(u.matrix - expect).max() < 1e-14

    def test_zz_phases(self):
        theta = 0.77
        u = evolve([(theta, 0.0, Hamiltonian.single(0.5, "ZZ"))])
        d = np.exp(-1j * theta / 2 * np.array([1, -1, -1, 1]))
        assert np.abs(u.matrix - np.diag(d)).max() < 1e-14

    def test_error_scales_angle(self):
        h = Hamiltonian.single(0.5, "Z")
        assert np.abs(
            evolve([(1.0, 0.5, h)]).matrix - evolve([(1.5, 0.0, h)]).matrix
        ).max() < 1e-14

    def test_simultaneous_terms_match_eigendecomposition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            phi = rng.uniform(0, 2 * math.pi)
            h1 = Hamiltonian.single(0.5, "X")
            h2 = Hamiltonian.single(0.5, "Y")
            u = evolve([(math.pi * math.cos(phi), 0.0, h1), (math.pi * math.sin(phi), 0.0, h2)])
            a = math.pi * math.cos(phi) * matrix_of(h1) + math.pi * math.sin(phi) * matrix_of(h2)
            w, v = np.linalg.eigh(a)
            direct = v @ np.diag(np.exp(-1j * w)) @ v.conj().T
            assert np.abs(u.matrix - direct).max() < 1e-12

    def test_general_path_for_non_involutory(self):
        h = Hamiltonian.single(0.5, "ZZ") + Hamiltonian.single(0.3, "XI")
        u = evolve([(1.3, 0.0, h)])
        a = 1.3 * matrix_of(h)
        w, v = np.linalg.eigh(a)
        direct = v @ np.diag(np.exp(-1j * w)) @ v.conj().T
        assert np.abs(u.matrix - direct).max() < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(Exception):
            evolve([(1.0, 0.0, Hamiltonian.single(0.5, "X")),
                    (1.0, 0.0, Hamiltonian.single(0.5, "XX"))])


class TestFidelity:
    def test_self_fidelity(self):
        u = evolve([(0.4, 0.0, Hamiltonian.single(0.5, "X"))])
        rep = fidelity(u, u)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-14)
        assert rep.infidelity < 1e-14

    def test_quarter_turn(self):
        u = Unitary(np.eye(2))
        v = evolve([(math.pi / 2, 0.0, Hamiltonian.single(0.5, "Z"))])
        assert fidelity(u, v).fidelity == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_antipodal_phases(self):
        u = Unitary(np.eye(2))
        v = Unitary(np.diag([1.0, -1.0]).astype(complex))
        assert fidelity(u, v).fidelity == 0.0

    def test_fidelity_plus_infidelity(self):
        rng = np.random.default_rng(5)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        rep = fidelity(u, v)
        assert rep.infidelity == pytest.approx(1.0 - rep.fidelity, abs=1e-15)

    def test_invariances(self):
        rng = np.random.default_rng(7)
        u, v, w = (random_unitary(rng, 4) for _ in range(3))
        f = fidelity(u, v).fidelity
        assert fidelity(v, u).fidelity == pytest.approx(f, abs=1e-10)
        assert fidelity(u, Unitary(np.exp(0.3j) * v.matrix)).fidelity == pytest.approx(
            f, abs=1e-10
        )
        assert fidelity(w @ u, w @ v).fidelity == pytest.approx(f, abs=1e-10)

    def test_matches_convex_hull_distance(self):
        # independent geometric oracle: distance from the origin to the
        # convex hull of the eigenvalues of U^dag V
        def hull_distance(pts):
            pts = np.asarray(pts)
            best = np.abs(pts).min()
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    a, b = pts[i], pts[j]
                    d = b - a
                    t = 0.0 if abs(d) < 1e-15 else np.clip(
                        -(a.conjugate() * d).real / abs(d) ** 2, 0.0, 1.0
                    )
                    best = min(best, abs(a + t * d))
            # inside test: origin in the hull -> distance 0
            angles = np.sort(np.angle(pts))
            gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * math.pi]]))
            if gaps.max() < math.pi:
                best = 0.0
            return best

        rng = np.random.default_rng(13)
        for _ in range(20):
            u, v = random_unitary(rng, 4), random_unitary(rng, 4)
            m = u.matrix.conj().T @ v.matrix
            expect = hull_distance(np.linalg.eigvals(m))
            assert fidelity(u, v).fidelity == pytest.approx(expect, abs=1e-9)

    def test_quadratic_error_law(self):
        # exp(-i theta H) vs exp(-i theta(1+eps) H) with H eigenvalues +-1/2
        theta = 1.1
        h = Hamiltonian.single(0.5, "Z")
        u = evolve([(theta, 0.0, h)])
        for eps in (1e-4, 1e-3, 1e-2):
            v = evolve([(theta, eps, h)])
            expect = 1.0 - math.cos(theta * eps / 2)
            assert fidelity(u, v).infidelity == pytest.approx(expect, rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(UnitaryError):
            fidelity(Unitary(np.eye(2)), Unitary(np.eye(4)))


class TestDistance:
    def test_x_vs_minus_x_aligned(self):
        x = Unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        mx = Unitary(-x.matrix)
        assert distance(x, mx, align_phase=True) < 1e-14
        assert distance(x, mx) == pytest.approx(2.0)

    def test_self_distance(self):
        u = Unitary(np.eye(4))
        assert distance(u, u) == 0.0

    def test_linear_error_scaling(self):
        h = Hamiltonian.single(0.5, "Z")
        u = Unitary(np.eye(2))
        eps = np.array([1e-4, 1e-3, 1e-2])
        d = [distance(u, evolve([(e, 0.0, h)])) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(d), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.01)


class TestSubspaceFidelity:
    def test_full_space_matches_fidelity(self):
        rng = np.random.default_rng(17)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        s = Subspace(np.eye(4))
        assert subspace_fidelity(u, v, s).fidelity == pytest.approx(
            fidelity(u, v).fidelity, abs=1e-9
        )

    def test_rank_one_subspace(self):
        rng = np.random.default_rng(19)
        u, v = random_unitary(rng, 4), random_unitary(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        s = Subspace(psi[:, None])
        expect = abs(psi.conj() @ (u.matrix.conj().T @ v.matrix) @ psi)
        assert subspace_fidelity(u, v, s).fidelity == pytest.approx(expect, abs=1e-12)

    def test_invariant_subspace_uses_arc(self):
        u = Unitary(np.eye(4))
        v = Unitary(np.diag(np.exp(-1j * np.array([0.3, 0.1, 0.7, 0.9]))))
        s = Subspace(np.eye(4)[:, :2])
        rep = subspace_fidelity(u, v, s)
        assert rep.method == "eigenphase-arc"
        assert rep.fidelity == pytest.approx(math.cos(0.1), abs=1e-12)

    def test_leaky_small_and_moderate_branches_agree(self):
        # near the branch threshold both evaluations approximate the same
        # numerical-range distance
        rng = np.random.default_rng(23)
        b = Subspace(np.eye(4)[:, :2])
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = 0.5 * (k + k.conj().T)
        k /= np.linalg.norm(k, ord=2)
        u = Unitary(np.eye(4))
        for scale in (2e-4, 5e-5):
            w, vecs = np.linalg.eigh(scale * k)
            v = Unitary(vecs @ np.diag(np.exp(-1j * w)) @ vecs.conj().T)
            rep = subspace_fidelity(u, v, b)
            c = b.basis.conj().T @ v.matrix @ b.basis
            grid = np.linspace(0, 2 * math.pi, 2881)
            direct = 0.0
            for g in grid:
                herm = 0.5 * (np.exp(1j * g) * c + (np.exp(1j * g) * c).conj().T)
                direct = max(direct, np.linalg.eigvalsh(herm)[0])
            assert rep.fidelity == pytest.approx(direct, rel=1e-4)

    def test_leaky_far_branch_matches_dense_scan(self):
        # a large deviation on a 2-dimensional subspace: the distance from
        # the origin to the numerical range of the compression
        rng = np.random.default_rng(29)
        b = Subspace(np.eye(4)[:, :2])
        k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = 0.5 * (k + k.conj().T)
        k /= np.linalg.norm(k, ord=2)
        u = Unitary(np.eye(4))
        w, vecs = np.linalg.eigh(0.6 * k)
        v = Unitary(vecs @ np.diag(np.exp(-1j * w)) @ vecs.conj().T)
        c = b.basis.conj().T @ v.matrix @ b.basis
        delta = np.exp(-1j * np.angle(np.trace(c))) * c - np.eye(2)
        assert np.linalg.norm(delta, ord=2) >= 0.1
        rep = subspace_fidelity(u, v, b)
        assert rep.method == "numerical-range"
        grid = np.linspace(0, 2 * math.pi, 2881)
        direct = 0.0
        for g in grid:
            herm = 0.5 * (np.exp(1j * g) * c + (np.exp(1j * g) * c).conj().T)
            direct = max(direct, np.linalg.eigvalsh(herm)[0])
        assert direct > 0.5
        assert rep.fidelity == pytest.approx(direct, rel=1e-5)
        assert rep.fidelity >= direct

    def test_ambient_mismatch(self):
        with pytest.raises(UnitaryError):
            subspace_fidelity(
                Unitary(np.eye(2)), Unitary(np.eye(2)), Subspace(np.eye(4)[:, :2])
            )


def _record_scans(monkeypatch) -> list:
    """Make unitary._scan_max record each (f, f_scan) pair it is given."""
    real, scans = unitary._scan_max, []
    monkeypatch.setattr(
        unitary, "_scan_max", lambda *fs: scans.append(fs) or real(*fs)
    )
    return scans


def _leaky_pair(seed: int, scale: float, d: int) -> tuple[Unitary, Unitary, Subspace]:
    """I and exp(-i scale K) for a random unit-norm Hermitian K on C^4,
    with a random d-dimensional subspace."""
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    k = 0.5 * (k + k.conj().T)
    k /= np.linalg.norm(k, ord=2)
    w, vecs = np.linalg.eigh(scale * k)
    v = Unitary(vecs @ np.diag(np.exp(-1j * w)) @ vecs.conj().T)
    basis = random_unitary(rng, 4).matrix[:, :d]
    return Unitary(np.eye(4)), v, Subspace(basis)


class TestSupportScan:
    """The stacked scan matches the scalar objective whose bracket it picks."""

    @staticmethod
    def assert_scans_agree(scans) -> None:
        gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
        for f, f_scan in scans:
            stacked = f_scan(gammas)
            scalar = np.array([f(g) for g in gammas])
            assert stacked.shape == scalar.shape
            assert np.abs(stacked - scalar).max() <= 1e-14
            assert stacked.argmax() == scalar.argmax()

    def test_code_space_curves(self, monkeypatch):
        theta = math.pi / 4
        curves = [
            ("xy3", p3_sequence(theta), p3_sequence(theta)),
            ("xy3", p3_sequence(theta), p3_bb1(theta)),
        ]
        for axis in ("z", "x"):
            plain = heisenberg_logical(axis, theta)
            corrected = heisenberg_logical(axis, theta, corrected=True)
            curves += [("heisenberg3", plain, plain), ("heisenberg3", plain, corrected)]
        scans = _record_scans(monkeypatch)
        for name, plain, seq in curves:
            label = next(iter(plain.labels))
            ideal = compile_sequence(plain, ErrorAssignment.zero([label]))
            code = get_encoding(name).code
            for eps in np.geomspace(1e-4, 0.9, 16):
                actual = compile_sequence(seq, ErrorAssignment.uniform([label], eps))
                subspace_fidelity(ideal, actual, code)
        # the far regime scans one function in both forms; the near regime two
        assert any(f is f_scan for f, f_scan in scans)
        assert any(f is not f_scan for f, f_scan in scans)
        self.assert_scans_agree(scans)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 0.3),
        d=st.sampled_from([1, 2, 3]),
    )
    def test_random_compressions(self, seed, log_scale, d):
        u, v, s = _leaky_pair(seed, 10.0**log_scale, d)
        with pytest.MonkeyPatch.context() as mp:
            scans = _record_scans(mp)
            subspace_fidelity(u, v, s)
        assert len(scans) == 1
        self.assert_scans_agree(scans)

    def test_near_regime_call_is_one_stacked_eigh(self, monkeypatch):
        theta = math.pi / 4
        seq = p3_sequence(theta)
        label = next(iter(seq.labels))
        ideal = compile_sequence(seq, ErrorAssignment.zero([label]))
        actual = compile_sequence(seq, ErrorAssignment.uniform([label], 1e-2))
        scans, calls = _record_scans(monkeypatch), []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw)
            )
        rep = subspace_fidelity(ideal, actual, get_encoding("xy3").code)
        assert rep.method == "numerical-range"
        # one stacked scan plus the scalar golden-section steps, not 720 + those
        assert len(calls) < 100
        [(f, f_scan)] = scans
        assert f is not f_scan  # the near regime
