"""Tests for dense unitary synthesis and the worst-case fidelity metrics."""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pulsecomp import (
    ErrorAssignment,
    Hamiltonian,
    Pulse,
    PulseSequence,
    Subspace,
    Unitary,
    UnitaryError,
    compile_sequence,
    distance,
    evolve,
    fidelities,
    fidelity,
    matrix_of,
    subspace_fidelity,
)
from pulsecomp import unitary
from pulsecomp.encoded import get_encoding, heisenberg_logical, p3_bb1, p3_sequence
from pulsecomp.pauli import PauliError, PauliString, _product_terms, square_identity_coefficient
from pulsecomp.pauli import square_identity_coefficients
from pulsecomp.unitary import check_unitary


def algebra_evolve(terms):
    """evolve through the Pauli algebra: a Hamiltonian sum, its exact square
    test (an A^2 that overflows is a PauliError), its dense matrix, then the
    closed form or an eigendecomposition."""
    n = terms[0][2].n_qubits
    total = Hamiltonian.zero(n)
    for theta, eps, h in terms:
        total = total + (theta * (1.0 + eps)) * h
    dim = 2**n
    c = square_identity_coefficient(_product_terms(total, total))
    if c == math.inf:
        raise PauliError("A^2 overflows")
    a = matrix_of(total)
    if c is not None and c >= 0.0:
        r = math.sqrt(c)
        if r < 1e-150:
            return Unitary(np.eye(dim, dtype=complex) - 1j * a)
        return Unitary(math.cos(r) * np.eye(dim) - 1j * (math.sin(r) / r) * a)
    w, v = np.linalg.eigh(a)
    return Unitary((v * np.exp(-1j * w)) @ v.conj().T)


@st.composite
def simultaneous_terms(draw):
    """1-3 simultaneous terms on 1-3 qubits whose words repeat across terms."""
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6))
    coeff = st.sampled_from([0.5, -0.5, 1.0, 1 / math.sqrt(3)]) | st.floats(-2.0, 2.0)
    theta = st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi, 1e308]) | st.floats(-10.0, 10.0)
    eps = st.sampled_from([0.0, -1.0, 1e-12]) | st.floats(-0.5, 0.5)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = draw(st.lists(st.tuples(coeff, st.sampled_from(pool)), min_size=1, max_size=4))
        h = Hamiltonian.from_terms(n, [(c, PauliString(w)) for c, w in pairs])
        terms.append((draw(theta), draw(eps), h))
    return terms


@st.composite
def coefficient_rows(draw):
    """The plan of 0-4 distinct words on 1-3 qubits (no words: the zero
    Hamiltonian) and 1-6 rows of their merged coefficients.  Zeros make
    words drop out, values near 1e-14 straddle the test's bound, and values
    up to 1e200 square to inf, whose sums reach nan."""
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=4, unique=True))
    coeff = (
        st.sampled_from([0.0, -0.0, 1.0, -0.5, 1e-15, 6e-15, 1e200])
        | st.floats(-2.0, 2.0)
        | st.floats(-1e200, 1e200)
    )
    rows = draw(
        st.lists(st.lists(coeff, min_size=len(words), max_size=len(words)), min_size=1, max_size=6)
    )
    hams = tuple(Hamiltonian.single(1.0, w) for w in words) or (Hamiltonian.zero(n),)
    return unitary._Synthesis(hams), rows


@st.composite
def plan_rows(draw):
    """A pulse's plan and _ARRAY_ROWS to _ARRAY_ROWS + 4 rows of its
    per-term scales, with signed zeros and scales whose coefficients overflow."""
    hams = tuple(h for _, _, h in draw(simultaneous_terms()))
    scale = st.sampled_from([0.0, -0.0, math.pi, 1e308]) | st.floats(-10.0, 10.0)
    rows = draw(
        st.lists(
            st.lists(scale, min_size=len(hams), max_size=len(hams)),
            min_size=unitary._ARRAY_ROWS,
            max_size=unitary._ARRAY_ROWS + 4,
        )
    )
    return unitary._Synthesis(hams), rows


@st.composite
def chunked_plan_rows(draw):
    """A pulse's plan at d = 2, 4 or 8, _ARRAY_ROWS to 24 rows of its finite
    per-term scales, and an entry budget under which the rows span 1-3
    chunks, with the number of chunks."""
    hams = tuple(h for _, _, h in draw(simultaneous_terms()))
    scale = st.sampled_from([0.0, -0.0, math.pi]) | st.floats(-10.0, 10.0)
    rows = draw(
        st.lists(
            st.lists(scale, min_size=len(hams), max_size=len(hams)),
            min_size=unitary._ARRAY_ROWS,
            max_size=24,
        )
    )
    plan = unitary._Synthesis(hams)
    step = -(-len(rows) // draw(st.integers(1, 3)))  # rows per chunk
    # the budget rounds down to whole rows
    budget = step * plan.dim**2 + draw(st.integers(0, plan.dim**2 - 1))
    return plan, rows, budget, -(-len(rows) // step)


def outcome(f, terms):
    """The matrix bytes of f(terms), or the type of the exception it raises."""
    try:
        return f(terms).matrix.tobytes()
    except Exception as exc:
        return type(exc)


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

    @settings(max_examples=300, deadline=None)
    @given(simultaneous_terms())
    def test_bitwise_equal_to_pauli_algebra(self, terms):
        assert outcome(evolve, terms) == outcome(algebra_evolve, terms)

    @settings(max_examples=300, deadline=None)
    @given(coefficient_rows())
    def test_array_square_test_matches_scalar_rows(self, case):
        plan, rows = case
        sums = [plan.square_sums(row) for row in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            columns = plan.square_sums([np.array(col) for col in zip(*rows)])
        # the sums of (K,) columns are the scalar sums, bit for bit
        assert [(w, list(map(repr, v.tolist()))) for w, v in columns.items()] == [
            (w, [repr(s[w]) for s in sums]) for w in sums[0]
        ]
        same = {w: np.array([s[w] for s in sums]) for w in sums[0]}
        c = square_identity_coefficients(same, len(rows)).tolist()
        # NaN exactly where the scalar test gives None, else the same bits
        assert [None if math.isnan(x) else repr(x) for x in c] == [
            None if r is None else repr(r) for r in map(square_identity_coefficient, sums)
        ]

    @settings(max_examples=200, deadline=None)
    @given(plan_rows())
    def test_array_rows_match_scalar_rows(self, case):
        plan, rows = case

        def alone(row):
            u = plan.unitary(row)
            check_unitary(u)
            return u

        try:
            stack = np.array([alone(row) for row in rows])
        except Exception as exc:
            # the rows as the pulses of one sequence at zero error: the
            # compile walk raises what the first row that fails alone raises
            labels = [f"t{t}" for t in range(len(plan.hams))]
            seq = PulseSequence([Pulse(zip(labels, row, plan.hams)) for row in rows])
            with pytest.raises(Exception) as walked:
                compile_sequence(seq, ErrorAssignment.zero(labels))
            assert (type(walked.value), str(walked.value)) == (type(exc), str(exc))
        else:
            assert [m.tobytes() for m in plan.unitaries(rows)] == [m.tobytes() for m in stack]

    @settings(max_examples=150, deadline=None)
    @given(chunked_plan_rows())
    def test_chunked_rows_match_scalar_rows(self, case):
        plan, rows, budget, chunks = case
        assert 1 <= chunks <= 3
        checked = []
        real = unitary.check_unitary
        with mock.patch.object(unitary, "_CHUNK_ENTRIES", budget), mock.patch.object(
            unitary, "check_unitary", lambda m: checked.append(len(m)) or real(m)
        ):
            stack = plan.unitaries(rows)
        # one check per chunk, each of whole rows, in order
        assert len(checked) == chunks and sum(checked) == len(rows)
        assert [m.tobytes() for m in stack] == [plan.unitary(row).tobytes() for row in rows]

    def test_array_synthesis_memory_bounded_by_a_chunk(self):
        # the shape of `figure chain`'s largest plan: 832 rows at d = 8, on
        # the closed-form and the eigendecomposition paths
        rng = np.random.default_rng(0)
        chunk = unitary._CHUNK_ENTRIES * np.dtype(complex).itemsize
        xii, yii, ixx = (Hamiltonian.single(0.5, w) for w in ("XII", "YII", "IXX"))
        for hams in ((xii, yii), (xii + ixx,)):
            plan = unitary._Synthesis(hams)
            rows = rng.uniform(-4.0, 4.0, (832, len(hams))).tolist()
            assert len(rows) >= 4 * (unitary._CHUNK_ENTRIES // plan.dim**2)  # several chunks
            plan.unitaries(rows[: unitary._ARRAY_ROWS])  # fill the module's caches
            tracemalloc.start()
            try:
                out = plan.unitaries(rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # synthesizing all rows at once peaked at out.nbytes + 20 to 34 chunks
            assert peak <= out.nbytes + 8 * chunk

    @pytest.mark.parametrize(
        "terms, message",
        [
            (5, r"^terms 5 are not a collection of \(theta, eps, H\) triples$"),
            ("XX", r"^terms 'XX' are not a collection of \(theta, eps, H\) triples$"),
            (
                [(1.0, Hamiltonian.single(0.5, "X"))],
                r"^term \(1\.0, Hamiltonian\(.*\)\) is not a \(theta, eps, H\) triple$",
            ),
            (
                [(1.0, 0.0, Hamiltonian.single(0.5, "X")), 3],
                r"^term 3 is not a \(theta, eps, H\) triple$",
            ),
            (
                [(1.0, 0.0, ["X"])],
                r"^term \(1\.0, 0\.0, \['X'\]\) has \['X'\], not a Hamiltonian$",
            ),
            (
                [("a", 0.0, Hamiltonian.single(0.5, "X"))],
                r"^term \('a', 0\.0, .*\) has an angle or error that is not a number$",
            ),
        ],
        ids=["int", "string", "pair", "non-term", "unhashable", "non-number"],
    )
    def test_malformed_terms_named(self, terms, message):
        with pytest.raises(UnitaryError, match=message):
            evolve(terms)

    @pytest.mark.parametrize("theta, eps", [(1e308, 1.0), (0.5, math.nan)])
    def test_non_finite_scale_names_word(self, theta, eps):
        with pytest.raises(PauliError, match="of ZZ is not finite"):
            evolve([(theta, eps, Hamiltonian.single(0.5, "ZZ"))])

    def test_overflowing_square_names_words(self):
        # the coefficient 5e307 is finite, but A^2 = 2.5e615 I overflows
        with pytest.raises(PauliError, match=r"^A\^2 of words X overflows$"):
            evolve([(1e308, 0.0, Hamiltonian.single(0.5, "X"))])
        h = Hamiltonian.single(0.5, "XI") + Hamiltonian.single(0.5, "ZZ")
        with pytest.raises(PauliError, match=r"^A\^2 of words XI, ZZ overflows$"):
            evolve([(1e308, 0.0, h)])


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

    @pytest.mark.parametrize(
        "shape", [(2, 2), (1, 3, 2), (1, 2, 3), (1, 4, 4), (2, 1, 2, 2), (2,)], ids=str
    )
    def test_stack_shape_named(self, shape):
        stack = np.zeros(shape, dtype=complex)
        expected = f"stack shape {shape} is not (K, 2, 2)"
        with pytest.raises(UnitaryError, match=f"^{re.escape(expected)}$"):
            fidelities(Unitary(np.eye(2)), stack)

    @pytest.mark.parametrize(
        "point",
        [5 * np.eye(2), np.zeros((2, 2)), np.full((2, 2), np.nan)],
        ids=["scaled", "zero", "nan"],
    )
    def test_non_unitary_stack_rejected(self, point):
        stack = np.stack([np.eye(2), point])
        with pytest.raises(UnitaryError, match="^not unitary: defect"):
            fidelities(Unitary(np.eye(2)), stack)

    def test_stack_matches_pointwise(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 4)
        vs = [random_unitary(rng, 4) for _ in range(5)]
        stack = np.stack([v.matrix for v in vs])
        assert fidelities(u, stack) == [fidelity(u, v) for v in vs]
        assert fidelities(u, stack[:0]) == []
        # a real unitary stack is accepted as is
        assert fidelities(Unitary(np.eye(2)), np.eye(2)[None])[0].infidelity == 0.0


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


_U, _S = Unitary(np.eye(4)), Subspace(np.eye(4)[:, :2])


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: fidelity(_U.matrix, _U), "u", id="fidelity-u"),
        pytest.param(lambda: fidelity(_U, _U.matrix), "v", id="fidelity-v"),
        pytest.param(lambda: fidelities(_U.matrix, _U.matrix[None]), "u", id="fidelities"),
        pytest.param(lambda: distance(_U.matrix, _U), "u", id="distance-u"),
        pytest.param(lambda: distance(_U, None), "v", id="distance-v"),
        pytest.param(lambda: subspace_fidelity(_U.matrix, _U, _S), "u", id="subspace-u"),
        pytest.param(lambda: subspace_fidelity(_U, [[1.0]], _S), "v", id="subspace-v"),
        pytest.param(lambda: subspace_fidelity(_U, _U, _S.basis), "s", id="subspace-s"),
    ],
)
def test_metric_argument_types_named(call, name):
    kind = "Subspace" if name == "s" else "Unitary"
    with pytest.raises(UnitaryError, match=rf"^{name} is a \w+, not a {kind}$"):
        call()


class TestSpectralNormSide:
    """The Frobenius-first decision takes the 2-norm's side of every bound."""

    @staticmethod
    def assert_same_side(x: np.ndarray, bound: float) -> None:
        side = unitary._spectral_norm_side(x, bound)
        norm = np.linalg.norm(x, ord=2)
        assert (side < bound, side > bound) == (norm < bound, norm > bound)
        if side not in (0.0, math.inf):
            assert side.tobytes() == norm.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 8),
        rank=st.sampled_from(["full", "one", "scalar"]),
        log_ratio=st.floats(-1.0, 1.0),
        bound=st.sampled_from([1e-10, 1e-4, 0.1]),
    )
    def test_random_matrices(self, seed, d, rank, log_ratio, bound):
        # rank one has ||x||_2 = ||x||_F and a unitary multiple of I has
        # ||x||_2 = ||x||_F / sqrt(d): the two ends the Frobenius norm can settle
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        if rank == "one":
            x = np.outer(x[:, 0], x[0].conj())
        elif rank == "scalar":
            x = x[0, 0] * np.eye(d)
        x *= bound * 10.0**log_ratio / np.linalg.norm(x, ord=2)
        self.assert_same_side(x, bound)
        self.assert_same_side(x, float(np.linalg.norm(x, ord=2)))

    def test_settles_without_svd_away_from_the_bound(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "norm", None)
        x = np.eye(4) * 1e-3
        assert unitary._spectral_norm_side(x, 0.1) == 0.0
        assert unitary._spectral_norm_side(x, 1e-4) == math.inf

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
    def test_non_finite_takes_the_svd(self, value):
        # the same error, or the same value, as the SVD
        def result(norm):
            try:
                return np.float64(norm()).tobytes()
            except Exception as exc:
                return type(exc)

        x = np.full((2, 2), value, dtype=complex)
        side = result(lambda: unitary._spectral_norm_side(x, 0.1))
        assert side == result(lambda: np.linalg.norm(x, ord=2))


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

    def test_near_identity_one_column_is_variance(self):
        # dev < 1e-4 and a leaky single state: Var(K)/2 of the deviation
        # generator K, the Hermitian part of i(e^{-i mu} U^dag V - I)
        u, v, s = _leaky_pair(31, 1e-5, 1)
        m = u.matrix.conj().T @ v.matrix
        n = np.exp(-1j * np.angle(np.trace(m))) * m
        assert np.abs(m @ s.basis - s.basis @ (s.basis.conj().T @ m @ s.basis)).max() >= 1e-10
        assert np.linalg.norm(n - np.eye(4), ord=2) < 1e-4
        k = 1j * (n - np.eye(4))
        k = 0.5 * (k + k.conj().T)
        psi = s.basis[:, 0]
        var = (psi.conj() @ k @ k @ psi - (psi.conj() @ k @ psi) ** 2).real
        rep = subspace_fidelity(u, v, s)
        assert rep.method == "numerical-range"
        assert rep.infidelity == pytest.approx(0.5 * var, rel=1e-9)
        # second order in K: the exact 1 - |<psi|M|psi>| agrees to O(||K||)
        assert rep.infidelity == pytest.approx(1.0 - abs(psi.conj() @ m @ psi), rel=1e-3)

    def test_ambient_mismatch(self):
        with pytest.raises(UnitaryError):
            subspace_fidelity(
                Unitary(np.eye(2)), Unitary(np.eye(2)), Subspace(np.eye(4)[:, :2])
            )


def _record_scans(monkeypatch) -> list:
    """Make unitary._scan_max record each (grid, f, guess) it is given, and
    pass all three through."""
    real, scans = unitary._scan_max, []

    def record(grid, f, guess=None):
        scans.append((grid, f, guess))
        return real(grid, f, guess)

    monkeypatch.setattr(unitary, "_scan_max", record)
    return scans


def _one_angle(u: Unitary, v: Unitary, s: Subspace):
    """The leaky regime subspace_fidelity(u, v, s) scans, and its value at
    one angle x, formed from the pair as subspace_fidelity forms it and
    evaluated on the stack [x, x], element 0: the reference each scanned
    value must match (a size-1 stack of a 1x1 compression can round
    differently)."""
    m = u.matrix.conj().T @ v.matrix
    c = s.basis.conj().T @ m @ s.basis
    delta = np.exp(-1j * float(np.angle(np.trace(c)))) * c - np.eye(c.shape[0])
    if np.linalg.norm(delta, ord=2) < 0.1:
        regime = "near"

        def f(phases):
            return unitary._stable_deficit(unitary._boundary_points(delta, phases))

    else:
        regime = "far"

        def f(phases):
            return np.linalg.eigvalsh(unitary._hermitian_part(c, phases))[..., 0]

    return regime, lambda x: f(np.exp(1j * np.array([x, x])))[0]


def _leaky_pair(
    seed: int, scale: float, d: int, dim: int = 4
) -> tuple[Unitary, Unitary, Subspace]:
    """I and exp(-i scale K) for a random unit-norm Hermitian K on C^dim,
    with a random d-dimensional subspace."""
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    k = 0.5 * (k + k.conj().T)
    k /= np.linalg.norm(k, ord=2)
    w, vecs = np.linalg.eigh(scale * k)
    v = Unitary(vecs @ np.diag(np.exp(-1j * w)) @ vecs.conj().T)
    basis = random_unitary(rng, dim).matrix[:, :d]
    return Unitary(np.eye(dim)), v, Subspace(basis)


def _one_angle_scan_max(grid: np.ndarray, f) -> float:
    """The refinement one angle at a time, as _scan_max ran it before the
    look-ahead: the reference the look-ahead must match bit for bit."""
    gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
    k = int(grid.argmax())
    step = gammas[1] - gammas[0]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = gammas[k] - step, gammas[k] + step
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > unitary._REFINE_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
    return float(max(f1, f2))


# Log10 scales of exp(-i scale K) on C^8 that put a code space's
# compression in each leaky regime (checked by _one_angle; few draws miss).
_REGIME_SCALES = {"near": (-2.5, -1.7), "far": (0.2, 0.5)}


class TestSupportScan:
    """Each scanned evaluator gives on the stacked grid what it gives per angle."""

    @staticmethod
    def assert_scans_agree(scans, one_angle) -> None:
        """The grid's argmax and the refinement evaluator's values on the
        stacked grid are the one-angle evaluation's, the latter bit for bit."""
        gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
        for grid, f, _ in scans:
            stacked = f(gammas)
            scalar = np.array([one_angle(g) for g in gammas])
            assert grid.shape == stacked.shape == scalar.shape
            assert np.abs(stacked - scalar).max() <= 1e-14
            assert stacked.tobytes() == scalar.tobytes()
            assert grid.argmax() == stacked.argmax() == scalar.argmax()

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
        scanned = 0
        for name, plain, seq in curves:
            label = next(iter(plain.labels))
            ideal = compile_sequence(plain, ErrorAssignment.zero([label]))
            code = get_encoding(name).code
            for eps in np.geomspace(1e-4, 0.9, 16):
                actual = compile_sequence(seq, ErrorAssignment.uniform([label], eps))
                subspace_fidelity(ideal, actual, code)
                self.assert_scans_agree(scans[scanned:], _one_angle(ideal, actual, code)[1])
                scanned = len(scans)
        assert scanned > 0

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
        self.assert_scans_agree(scans, _one_angle(u, v, s)[1])

    def test_near_regime_call_is_one_stacked_eigh(self, monkeypatch):
        theta = math.pi / 4
        seq = p3_sequence(theta)
        label = next(iter(seq.labels))
        ideal = compile_sequence(seq, ErrorAssignment.zero([label]))
        actual = compile_sequence(seq, ErrorAssignment.uniform([label], 1e-2))
        code = get_encoding("xy3").code
        scans, calls = _record_scans(monkeypatch), []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg,
                name,
                lambda *a, name=name, real=real, **kw: calls.append(name) or real(*a, **kw),
            )
        rep = subspace_fidelity(ideal, actual, code)
        assert rep.method == "numerical-range"
        # the near regime: boundary points from eigh, no far-regime eigvalsh
        assert set(calls) == {"eigh"}
        assert len(scans) == 1
        guessed_calls = len(calls)
        # One stacked eigh for the screened grid's candidates, then one for
        # the starting pair and every angle of the path the closed form
        # guessed, which here guessed all 40 steps' comparisons right;
        # without the guess, 16: one more per round of _LOOKAHEAD steps.
        one_angle, visited = _one_angle(ideal, actual, code)[1], []
        expected = _one_angle_scan_max(scans[0][0], lambda g: visited.append(g) or one_angle(g))
        steps = len(visited) - 2
        assert steps == 40
        assert guessed_calls == 2
        assert rep.infidelity.hex() == min(1.0, max(0.0, expected)).hex()
        self.assert_scans_agree(scans, one_angle)


def _scan_cases():
    """Draws of (seed, position in the regime's scale range, d, regime)."""
    return st.tuples(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        st.integers(1, 4),
        st.sampled_from(sorted(_REGIME_SCALES)),
    )


def _drawn_guessed_scan(case):
    """The (grid, f, guess) subspace_fidelity scans for a _scan_cases draw,
    a random leaky pair on C^8 in the drawn regime, and the one-angle
    evaluation of that pair (``_one_angle``)."""
    seed, u, d, regime = case
    lo, hi = _REGIME_SCALES[regime]
    pair = _leaky_pair(seed, 10.0 ** (lo + u * (hi - lo)), d, dim=8)
    with pytest.MonkeyPatch.context() as mp:
        scans = _record_scans(mp)
        subspace_fidelity(*pair)
    assert len(scans) == 1
    drawn, one_angle = _one_angle(*pair)
    assume(drawn == regime)
    return (*scans[0], one_angle)


def _drawn_scan(case):
    """``_drawn_guessed_scan`` without the guess: (grid, f, one_angle)."""
    grid, f, _, one_angle = _drawn_guessed_scan(case)
    return grid, f, one_angle


def _synthetic_curve(peak):
    """A constant curve (peak None) or -(g - gamma_peak)^2, whose products
    and differences round alike per element and per stack."""
    gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)

    def f(g):
        if peak is None:
            return 0.0 * g
        return -(g - gammas[peak]) * (g - gammas[peak])

    return f


# Guesses handed to _scan_max: the closed form subspace_fidelity passes (the
# curve itself for a synthetic curve), and adversarial ones.
_GUESS_KINDS = ["closed-form", "random", "constant", "negated", "nan"]


def _guess(kind: str, closed, one_angle, seed: int):
    """The guess of one kind for a curve whose one-angle values are one_angle."""
    rng = np.random.default_rng(seed)
    return {
        "closed-form": closed,
        "random": lambda x: float(rng.uniform(-1.0, 1.0)),
        "constant": lambda x: 0.0,
        "negated": lambda x: -float(one_angle(x)),
        "nan": lambda x: math.nan,
    }[kind]


def _guessed_scan_max(grid, f, guess) -> float:
    """unitary._scan_max(grid, f, guess), checking that every stack handed
    to f holds at least two angles."""
    sizes = []
    got = unitary._scan_max(grid, lambda g: sizes.append(g.size) or f(g), guess)
    assert sizes and min(sizes) >= 2
    return got


class TestLookahead:
    """The look-ahead refinement returns, bit for bit, the one-angle refinement."""

    @settings(max_examples=40, deadline=None)
    @given(case=_scan_cases(), angles_seed=st.integers(0, 2**32 - 1))
    def test_stacks_match_one_angle(self, case, angles_seed):
        (_, f, one_angle), d = _drawn_scan(case), case[2]
        rng = np.random.default_rng(angles_seed)
        xs = rng.uniform(-0.1, 2 * math.pi + 0.1, 2**unitary._LOOKAHEAD + 1)
        for n in range(1, xs.size + 1):
            # A one-angle stack of a 1x1 compression takes numpy's
            # all-length-one path for _hermitian_part's complex product,
            # which can round differently; the refinement never forms one
            # (test_stack_sizes).
            if n == 1 and d == 1:
                continue
            expected = np.array([one_angle(x) for x in xs[:n]])
            assert f(xs[:n]).tobytes() == expected.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(case=_scan_cases())
    def test_stack_sizes(self, case):
        (grid, f, _), sizes = _drawn_scan(case), []
        unitary._scan_max(grid, lambda g: sizes.append(g.size) or f(g))
        assert sizes[0] == 2
        assert set(sizes[1:]) == {2**unitary._LOOKAHEAD - 1}

    @settings(max_examples=40, deadline=None)
    @given(case=_scan_cases())
    def test_matches_one_angle_refinement(self, case):
        grid, f, one_angle = _drawn_scan(case)
        expected = _one_angle_scan_max(grid, one_angle)
        assert unitary._scan_max(grid, f).hex() == expected.hex()

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.one_of(
            _scan_cases(),
            # two-dimensional near-regime draws, which subspace_fidelity
            # hands the closed-form guess
            st.tuples(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.just(2), st.just("near")),
        ),
        kind=st.sampled_from(_GUESS_KINDS),
        guess_seed=st.integers(0, 2**32 - 1),
    )
    def test_guessed_path_matches_one_angle(self, case, kind, guess_seed):
        grid, f, closed, one_angle = _drawn_guessed_scan(case)
        assert (closed is not None) == (case[2] == 2 and case[3] == "near")
        guess = _guess(kind, closed, one_angle, guess_seed)
        expected = _one_angle_scan_max(grid, one_angle)
        assert _guessed_scan_max(grid, f, guess).hex() == expected.hex()

    def test_grid_constants_read_only(self):
        gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
        assert unitary._GRID_ANGLES.tobytes() == gammas.tobytes()
        assert unitary._GRID_PHASES.tobytes() == np.exp(1j * gammas).tobytes()
        for grid in (unitary._GRID_ANGLES, unitary._GRID_PHASES):
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[0] = 1.0

    @pytest.mark.parametrize(
        "peak",
        [
            pytest.param(None, id="constant"),
            pytest.param(0, id="argmax-first"),
            pytest.param(unitary._GRID_POINTS - 1, id="argmax-last"),
        ],
    )
    def test_synthetic_curves(self, peak):
        gammas = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
        f = _synthetic_curve(peak)
        grid = f(gammas)
        assert int(grid.argmax()) == (0 if peak is None else peak)
        assert unitary._scan_max(grid, f).hex() == _one_angle_scan_max(grid, f).hex()
        for kind in _GUESS_KINDS:
            guess = _guess(kind, lambda x: float(f(np.array(x))), f, 7)
            assert _guessed_scan_max(grid, f, guess).hex() == _one_angle_scan_max(grid, f).hex()


def _full_grid(delta: np.ndarray) -> np.ndarray:
    """The near regime's grid as it was before the screen: the boundary point
    of every grid angle from one stacked eigh, then 1 - |1 + w|.  The
    reference the screened grid must match at its argmax, bit for bit."""
    gamma = np.linspace(0.0, 2 * math.pi, unitary._GRID_POINTS, endpoint=False)
    phase = np.exp(1j * np.asarray(gamma))
    r = phase[..., None, None] * delta
    _, v = np.linalg.eigh(0.5 * (r + np.swapaxes(r, -1, -2).conj()))
    psi = v[..., 0]
    w = (psi.conj()[..., None, :] @ delta @ psi[..., :, None])[..., 0, 0]
    r = np.abs(w)
    square = r ** 2
    x = 2.0 * np.real(w) + square
    return -x / (1.0 + np.sqrt(np.maximum(0.0, 1.0 + x)))


def _loop_variance(e: np.ndarray, b: np.ndarray) -> float:
    """_worst_variance_infidelity as it was before the screen: all 64 seeded
    states drawn and evaluated one at a time."""
    k = 1j * e
    k = 0.5 * (k + k.conj().T)
    a1 = b.conj().T @ k @ b
    kb = k @ b
    a2 = kb.conj().T @ kb
    d = b.shape[1]
    if d == 1:
        var = float((a2[0, 0] - a1[0, 0] ** 2).real)
        return max(0.0, 0.5 * var)

    rng = np.random.default_rng(12345)
    best = -1.0
    for _ in range(64):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        e1 = float((psi.conj() @ a1 @ psi).real)
        e2 = float((psi.conj() @ a2 @ psi).real)
        best = max(best, 0.5 * (e2 - e1 * e1))
    return max(0.0, best)


# 2x2 deltas on which the closed form is least accurate or the grid ties
_DELTA_CLASSES = ["generic", "near-scalar", "scalar", "normal", "real", "real-equal-diagonal"]


def _adversarial_delta(kind: str, seed: int, log_norm: float) -> np.ndarray:
    """A 2x2 delta of the given class with spectral norm 10^log_norm."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = rng.normal() + 1j * rng.normal()
    if kind == "generic":
        delta = g
    elif kind == "near-scalar":
        delta = a * np.eye(2) + 10.0 ** rng.uniform(-16, -6) * g
    elif kind == "scalar":
        delta = a * np.eye(2)
    elif kind == "normal":
        q, _ = np.linalg.qr(g)
        delta = q @ np.diag(rng.normal(size=2) + 1j * rng.normal(size=2)) @ q.conj().T
    elif kind == "real":
        delta = g.real.astype(complex)
    else:
        delta = g.real.astype(complex)
        delta[1, 1] = delta[0, 0]
    return delta * (10.0**log_norm / np.linalg.norm(delta, ord=2))


def _near_refinement(delta: np.ndarray):
    """The near regime's refinement evaluator, as subspace_fidelity forms it."""
    return lambda g: unitary._deficits(delta, np.exp(1j * g))


def _reference_scan(delta: np.ndarray) -> float:
    """The near regime's scan over the full grid, refined as _scan_max does."""
    return unitary._scan_max(_full_grid(delta), _near_refinement(delta))


def _screened_scan(delta: np.ndarray) -> float:
    return unitary._scan_max(unitary._screened_grid(delta), _near_refinement(delta))


class TestScreens:
    """The screened grid and variance search return the exhaustive values, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-2.5, -1.0))
    def test_leaky_pairs_match_full_grid(self, seed, log_scale):
        u, v, s = _leaky_pair(seed, 10.0**log_scale, 2, dim=8)
        m = u.matrix.conj().T @ v.matrix
        b = s.basis
        c = b.conj().T @ m @ b
        tr = np.trace(m)
        dev = np.linalg.norm(np.exp(-1j * float(np.angle(tr))) * m - np.eye(8), ord=2)
        delta = np.exp(-1j * float(np.angle(np.trace(c)))) * c - np.eye(2)
        assume(dev >= 1e-4 and np.linalg.norm(delta, ord=2) < 0.1)
        expected = min(1.0, max(0.0, _reference_scan(delta)))
        assert subspace_fidelity(u, v, s).infidelity.hex() == expected.hex()

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(_DELTA_CLASSES),
        seed=st.integers(0, 2**32 - 1),
        log_norm=st.floats(-8.0, -1.05),
    )
    def test_adversarial_deltas_match_full_grid(self, kind, seed, log_norm):
        delta = _adversarial_delta(kind, seed, log_norm)
        full, screened = _full_grid(delta), unitary._screened_grid(delta)
        k = int(full.argmax())
        assert int(screened.argmax()) == k
        assert screened[k].tobytes() == full[k].tobytes()
        assert _screened_scan(delta).hex() == _reference_scan(delta).hex()

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(_DELTA_CLASSES),
        seed=st.integers(0, 2**32 - 1),
        subset_seed=st.integers(0, 2**32 - 1),
    )
    def test_candidate_stacks_match_full_stack(self, kind, seed, subset_seed):
        delta = _adversarial_delta(kind, seed, -2.0)
        full = _full_grid(delta)
        rng = np.random.default_rng(subset_seed)
        phases = unitary._GRID_PHASES
        for size in (1, 2, 3, int(rng.integers(4, unitary._GRID_POINTS + 1))):
            idx = rng.choice(unitary._GRID_POINTS, size=size, replace=False)
            assert unitary._deficits(delta, phases[idx]).tobytes() == full[idx].tobytes()
        assert unitary._deficits(delta, phases).tobytes() == full.tobytes()

    def test_scalar_delta_falls_back_without_warning(self, recwarn):
        delta = (0.03 - 0.02j) * np.eye(2)
        with np.errstate(all="raise"):
            screened = unitary._screened_grid(delta)
        assert screened.tobytes() == _full_grid(delta).tobytes()
        assert _screened_scan(delta).hex() == _reference_scan(delta).hex()
        # the closed-form guess is NaN (rho = 0), not an error, and changes nothing
        closed = unitary._ellipse(delta)
        guess = lambda x: closed(complex(math.cos(x), math.sin(x)), unitary._guess_sqrt)[0]
        assert math.isnan(guess(0.3))
        guessed = unitary._scan_max(unitary._screened_grid(delta), _near_refinement(delta), guess)
        assert guessed.hex() == _reference_scan(delta).hex()
        assert not recwarn.list

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-9.0, -4.5),
        d=st.integers(2, 4),
    )
    def test_variance_matches_state_loop(self, seed, log_scale, d):
        u, v, s = _leaky_pair(seed, 10.0**log_scale, d, dim=8)
        m = u.matrix.conj().T @ v.matrix
        e = np.exp(-1j * float(np.angle(np.trace(m)))) * m - np.eye(8)
        got = unitary._worst_variance_infidelity(e, s.basis)
        assert got.hex() == _loop_variance(e, s.basis).hex()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_variance_ties_match_state_loop(self, d):
        # A1 and A2 are multiples of I, so all 64 values agree to rounding
        # and every state is a candidate.
        e, b = np.exp(0.3j) * np.eye(6) - np.eye(6), np.eye(6)[:, :d].astype(complex)
        got = unitary._worst_variance_infidelity(e, b)
        assert got.hex() == _loop_variance(e, b).hex()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_variance_states_are_the_loop_draws(self, d):
        states = unitary._variance_states(d)
        rng = np.random.default_rng(12345)
        for row in states:
            psi = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi /= np.linalg.norm(psi)
            assert row.tobytes() == psi.tobytes()
        assert states.shape == (64, d)
        assert not states.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = 1.0
