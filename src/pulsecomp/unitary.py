"""Dense unitary synthesis and worst-case fidelity metrics.

Conventions: qubit 1 is the most significant bit of dense matrices.  The
fidelity is the minimum over states of |<psi|U^dag V|psi>|; on the full
space this is the distance from the origin to the convex hull of the
eigenvalues of U^dag V, computed from the minimal eigenphase arc.
Infidelities are evaluated as 2 sin^2(arc/4) so that values far below
machine epsilon in fidelity remain meaningful.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import Hamiltonian, PauliError, PauliString, PhasedPauli, multiply
from .pauli import square_identity_coefficient, square_identity_coefficients

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@lru_cache(maxsize=32)
def _identity(dim: int, dtype: type = float) -> np.ndarray:
    """Read-only np.eye(dim, dtype=dtype)."""
    m = np.eye(dim, dtype=dtype)
    m.flags.writeable = False
    return m


def _defect(m: np.ndarray) -> np.ndarray:
    """|m^dag m - I| entrywise, per matrix of a stack: how far the columns of m are from orthonormal."""
    g = m.conj().swapaxes(-1, -2) @ m
    g -= _identity(g.shape[-1], complex)
    return np.abs(g)


class UnitaryError(ValueError):
    """Dimension mismatch or non-unitary input."""


def _require(kind: type, **args) -> None:
    """Raise a UnitaryError naming each argument that is not a ``kind``."""
    for name, value in args.items():
        if not isinstance(value, kind):
            raise UnitaryError(f"{name} is a {type(value).__name__}, not a {kind.__name__}")


def check_unitary(m: np.ndarray) -> float:
    """Worst defect of a unitary or of a (K, d, d) stack of them, checked to 1e-10.

    The UnitaryError names the defect of the first matrix above the bound.
    """
    defect = _defect(m)
    worst = defect.max()
    if not worst <= 1e-10:
        per_point = defect.reshape(-1, defect.shape[-1] ** 2).max(axis=1)
        first = next(d for d in per_point if not d <= 1e-10)
        raise UnitaryError(f"not unitary: defect {first:.3e}")
    return worst


@dataclass(frozen=True)
class Unitary:
    """A dense unitary; U^dag U = I is checked on construction (1e-10)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UnitaryError(f"not square: shape {m.shape}")
        check_unitary(m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def dagger(self) -> "Unitary":
        return Unitary(self.matrix.conj().T)

    def __matmul__(self, other: "Unitary") -> "Unitary":
        if self.dim != other.dim:
            raise UnitaryError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return Unitary(self.matrix @ other.matrix)


@dataclass(frozen=True)
class Subspace:
    """Orthonormal columns spanning a subspace of a 2^n-dim ambient space."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2:
            raise UnitaryError("subspace basis must be a 2-D array")
        if b.shape[1] == 0:
            raise UnitaryError("subspace basis needs at least one column")
        object.__setattr__(self, "basis", b)
        defect = _defect(b).max()
        if not defect <= 1e-12:
            raise UnitaryError(f"basis not orthonormal: defect {defect:.3e}")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class FidelityReport:
    fidelity: float
    infidelity: float
    method: str


@lru_cache(maxsize=256)
def _word_matrix(letters: str) -> np.ndarray:
    """Dense (read-only) tensor product of one Pauli word."""
    m = _PAULI_MATS[letters[0]]
    for letter in letters[1:]:
        m = np.kron(m, _PAULI_MATS[letter])
    m.flags.writeable = False
    return m


def _pauli_sum(shape: tuple[int, ...], pairs) -> np.ndarray:
    """sum of coeff * word matrix over (coeff, matrix) pairs, from zeros of ``shape``.

    A coeff is a float or a (K, 1, 1) column scaling a (K, d, d) stack.  A
    zero coeff adds only signed zeros to a sum that started at +0, which
    leave every entry's bits unchanged.
    """
    out = np.zeros(shape, dtype=complex)
    for coeff, m in pairs:
        out += coeff * m
    return out


def matrix_of(h: Hamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli-sum Hamiltonian."""
    if not isinstance(h, Hamiltonian):
        raise UnitaryError(f"{h!r} is not a Hamiltonian")
    dim = 2**h.n_qubits
    return _pauli_sum((dim, dim), ((c, _word_matrix(s.letters)) for c, s in h.terms))


class _Synthesis:
    """The Pauli structure of one pulse, derived once from its Hamiltonians.

    For the simultaneous terms of a pulse this holds the merged, sorted
    words, each word's (term index, coefficient) contributions, the word
    matrices, and the products of word pairs that form A^2.  ``unitary``
    (one row of per-term scales) and ``unitaries`` (several rows, as (R,)
    columns) then need only float arithmetic, done in the order that
    summing the Hamiltonians, ``_product_terms`` and ``matrix_of`` do it,
    and pass the sums of A^2 to ``square_identity_coefficient`` (or its
    array form), so their results are bit for bit those of the Pauli
    algebra.
    """

    def __init__(self, hams: tuple[Hamiltonian, ...]):
        for h in hams:
            if not isinstance(h, Hamiltonian):
                raise PauliError(f"{h!r} is not a Hamiltonian")
        sizes = {h.n_qubits for h in hams}
        if len(sizes) > 1:
            raise PauliError(f"mixed qubit counts in evolve: {sorted(sizes)}")
        n = sizes.pop()
        self.hams = hams
        contributions: dict[str, list] = {}
        for t, h in enumerate(hams):
            for coeff, string in h.terms:
                contributions.setdefault(string.letters, []).append((t, coeff))
        self.dim = 2**n
        self.words = tuple(sorted(contributions))
        self.contributions = tuple(tuple(contributions[w]) for w in self.words)
        self.matrices = tuple(_word_matrix(w) for w in self.words)
        # A^2 as (i, j, phase) per product word, both in the nested order
        # of _product_terms, so each word's sum is formed as it does.
        phased = [PhasedPauli(0, PauliString(w)) for w in self.words]
        groups: dict[str, list] = {}
        for i, p in enumerate(phased):
            for j, q in enumerate(phased):
                pq = multiply(p, q)
                groups.setdefault(pq.string.letters, []).append((i, j, pq.phase))
        self.square_groups = tuple((w, tuple(g)) for w, g in groups.items())

    def coefficients(self, scales: list) -> list:
        """Merged coefficient per word for per-term scales theta(1+eps): floats, or (R,) columns."""
        out = []
        for contributions in self.contributions:
            a = 0.0
            for t, coeff in contributions:
                a = a + scales[t] * coeff
            out.append(a)
        return out

    def square_sums(self, a: list) -> dict:
        """Product-word sums of A^2 for merged coefficients a: floats, or (K,) arrays.

        A word whose coefficient is exactly zero, which a Hamiltonian would
        drop, adds only signed zeros here: the square test and c are
        unchanged up to the sign of a zero c, and c = +-0 takes the same
        branch of evolve.  The identity sum comes first (word 0 squared) and
        is never NaN, so neither is the test's scale.
        """
        sums = {}
        for word, group in self.square_groups:
            s = 0.0
            for i, j, phase in group:
                s = s + a[i] * a[j] * phase
            sums[word] = s
        return sums

    def unitary(self, scales: list[float]) -> np.ndarray:
        """exp(-i A) at one row of per-term scales, in Python scalars.

        The coefficients, the A^2 = c I test, the sum over words, then the
        closed form cos(r) I - i (sin(r)/r) A with r = sqrt(c) (I - i A
        when r < 1e-150) if the test passes, else a Hermitian
        eigendecomposition.  A non-finite coefficient, or a square that
        overflows to c = inf, raises a PauliError naming the words.
        """
        d = self.dim
        a = self.coefficients(scales)
        for word, x in zip(self.words, a):
            if not math.isfinite(x):
                raise PauliError(f"coefficient {x!r} of {word} is not finite")
        c = square_identity_coefficient(self.square_sums(a))
        if c == math.inf:
            raise PauliError(f"A^2 of words {', '.join(self.words)} overflows")
        amat = _pauli_sum((d, d), zip(a, self.matrices))
        if c is None:
            w, v = np.linalg.eigh(amat)
            return (v * np.exp(-1j * w)) @ v.conj().T
        r = math.sqrt(c)
        if r < 1e-150:
            return _identity(d) - 1j * amat
        return math.cos(r) * _identity(d) - 1j * (math.sin(r) / r) * amat

    def unitaries(self, rows) -> np.ndarray:
        """``unitary`` at each row of per-term scales: an (R, d, d) stack.

        ``rows`` is an (R, T) array of floats (the compile walk's), or R
        rows of T numbers.  Below _ARRAY_ROWS rows each row is synthesized
        alone by ``evolve``, the one-point API, as Python floats, which also
        checks it.  From there on the rows are (R,) columns in the same IEEE
        operations: ``coefficients``, the sums of A^2 and
        ``square_identity_coefficients`` (a plan with no words has c = 0),
        with cos and sin per row, since numpy's may differ from the math
        module's in the last bit.  The matrices are then
        formed in chunks of at most _CHUNK_ENTRIES matrix entries (whole
        rows, at least one), which fill one preallocated stack in order:
        per chunk, the Pauli sum with (rows, 1, 1) columns, the closed form,
        one eigendecomposition of the rows that fail the test, and the
        unitarity check.  So the temporaries stay within a few chunks
        whatever R is, each row's bits do not depend on its chunk, and the
        first row that fails the check raises as it would in one stack.  A
        row that ``unitary`` rejects makes this raise some ValueError; the
        compile walk then replays its pulses alone for the error to raise.
        """
        rows = np.asarray(rows, dtype=float)
        if len(rows) < _ARRAY_ROWS:
            # scale * (1.0 + 0.0) is the scale, bit for bit
            return np.array(
                [
                    evolve([(s, 0.0, h) for s, h in zip(row, self.hams)]).matrix
                    for row in rows.tolist()
                ]
            )
        d = self.dim
        # as Python floats, these overflow to inf and nan silently
        with np.errstate(over="ignore", invalid="ignore"):
            a = self.coefficients(rows.T)
            c = square_identity_coefficients(self.square_sums(a), len(rows))
            closed = c >= 0.0
            # r = 0 where the eigendecomposition below replaces the closed form
            roots = np.sqrt(np.where(closed, c, 0.0)).tolist()
            # math.cos(inf), the overflowed square's, raises ValueError
            cos = np.array([1.0 if r < 1e-150 else math.cos(r) for r in roots])
            sinc = np.array([1j if r < 1e-150 else 1j * (math.sin(r) / r) for r in roots])
            u = np.empty((len(rows), d, d), dtype=complex)
            step = max(1, _CHUNK_ENTRIES // (d * d))
            for lo in range(0, len(rows), step):
                part = slice(lo, lo + step)
                amat = _pauli_sum(
                    u[part].shape, ((x[part, None, None], m) for x, m in zip(a, self.matrices))
                )
                u[part] = cos[part, None, None] * _identity(d) - sinc[part, None, None] * amat
                rest = np.flatnonzero(~closed[part])
                if rest.size:
                    w, v = np.linalg.eigh(amat[rest])
                    u[lo + rest] = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
                # a non-finite coefficient leaves NaN here, which fails the check
                check_unitary(u[part])
        return u


# Fewest rows for which ``_Synthesis.unitaries`` takes its array form; below
# it, synthesizing the rows one at a time is faster.
_ARRAY_ROWS = 8

# Most matrix entries ``_Synthesis.unitaries`` forms at once: 128 rows at
# d = 8, 512 at d = 4.
_CHUNK_ENTRIES = 2**13


@lru_cache(maxsize=256)
def _synthesis(hams: tuple[Hamiltonian, ...]) -> _Synthesis:
    return _Synthesis(hams)


def evolve(terms: list[tuple[float, float, Hamiltonian]]) -> Unitary:
    """exp(-i sum theta(1+eps) H) for simultaneous terms (theta, eps, H).

    One pulse at one point.  When the summed operator A satisfies
    A^2 = c I (decided by the Pauli algebra's ``square_identity_coefficient``
    on the product-word sums of A^2) the closed form
    cos(sqrt(c)) I - i sinc * A is used; otherwise a Hermitian
    eigendecomposition.  A non-finite coefficient of A, or an A^2 that
    overflows, raises a PauliError naming the words.  The Pauli structure
    of the Hamiltonians is derived once per distinct tuple (a cached plan),
    so a call is float arithmetic in the order of the Hamiltonian algebra.

    The compile walk is the caller in the library: it synthesizes the
    rows of all pulses of a plan at once with ``_Synthesis.unitaries``, to
    the same bits, which calls ``evolve`` for each row of a plan with
    fewer than _ARRAY_ROWS rows; a ``substitute`` self-check's compile
    calls it once per distinct pulse of the blocks its cache lacks.
    """
    if not terms:
        raise UnitaryError("evolve requires at least one term")
    plan = _synthesis(tuple(h for _, _, h in terms))
    return Unitary(plan.unitary([theta * (1.0 + eps) for theta, eps, _ in terms]))


def _arc_report(m: np.ndarray) -> list[FidelityReport]:
    """Worst-case fidelity of each unitary of a (K, d, d) stack from the minimal
    arc holding its eigenphases.

    The sorted eigenphases, their largest gap (the wrap-around one is
    2 pi - span) and the arc are arrays over the stack; only the
    infidelity 2 sin^2(arc/4), with the math module's sin, and the report
    are formed per unitary.
    """
    p = np.sort(np.angle(np.linalg.eigvals(m)), axis=-1)
    gap = np.diff(p, axis=-1).max(axis=-1, initial=0.0)
    arc = np.maximum(2 * math.pi - np.maximum(gap, 2 * math.pi - (p[..., -1] - p[..., 0])), 0.0)
    reports = []
    for a in arc.tolist():
        infid = 1.0 if a >= math.pi else min(1.0, 2.0 * math.sin(a / 4.0) ** 2)
        reports.append(FidelityReport(1.0 - infid, infid, "eigenphase-arc"))
    return reports


def fidelities(u: Unitary, stack: np.ndarray) -> list[FidelityReport]:
    """Worst-case state fidelity between u and each unitary of a (K, d, d) stack.

    A stack of another shape than (K, u.dim, u.dim), or not unitary to
    1e-10 (``check_unitary``), raises a UnitaryError naming its shape or
    first defect.  A u that is not a Unitary raises a UnitaryError naming it.
    """
    _require(Unitary, u=u)
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (u.dim, u.dim):
        raise UnitaryError(f"stack shape {stack.shape} is not (K, {u.dim}, {u.dim})")
    if len(stack):
        check_unitary(stack)
    return _arc_report(u.matrix.conj().T @ stack)


def fidelity(u: Unitary, v: Unitary) -> FidelityReport:
    """Worst-case state fidelity between two unitaries (``fidelities`` at one point)."""
    _require(Unitary, u=u, v=v)
    return fidelities(u, v.matrix[None])[0]


def distance(u: Unitary, v: Unitary, align_phase: bool = False) -> float:
    """Spectral norm of U - V, optionally minimized over a global phase.

    The alignment convention rotates V by the phase of tr(U^dag V), which
    is the closed-form minimizer direction (and maps V = -U onto U).
    """
    return float(np.linalg.norm(_difference(u, v, align_phase), ord=2))


def _difference(u: Unitary, v: Unitary, align_phase: bool) -> np.ndarray:
    """U - V, V rotated by the phase of tr(U^dag V) if align_phase: ``distance``'s matrix."""
    _require(Unitary, u=u, v=v)
    if u.dim != v.dim:
        raise UnitaryError(f"dimension mismatch: {u.dim} vs {v.dim}")
    vm = v.matrix
    if align_phase:
        t = np.trace(u.matrix.conj().T @ vm)
        if abs(t) > 0.0:
            vm = vm * np.exp(-1j * np.angle(t))
    return u.matrix - vm


def _spectral_norm_side(x: np.ndarray, bound: float) -> float:
    """np.linalg.norm(x, 2), or 0.0 or inf where the Frobenius norm settles
    on which side of bound > 0 that lies: any comparison with bound decides
    as the 2-norm's would.

    ||x||_F >= ||x||_2 >= ||x||_F / sqrt(r), r = min(x.shape).  The
    computed Frobenius norm, a sum of x.size squares, is within
    (x.size + 2) u of its value relative (u = 2^-53), and the SVD's largest
    singular value within a few u times a modest function of r; the 2^-20
    margin covers both for any x of under 2^32 entries.  Squares that
    underflow lose at most sqrt(x.size) 2^-511 absolute, far below the
    bounds used (1e-10 and up).  A non-finite norm takes the SVD.
    """
    f = math.sqrt(np.vdot(x, x).real)
    if f * (1.0 + 2.0**-20) < bound:
        return 0.0
    if bound < f * (1.0 - 2.0**-20) / math.sqrt(min(x.shape)) < math.inf:
        return math.inf
    return np.linalg.norm(x, ord=2)


def _stable_deficit(w: np.ndarray) -> np.ndarray:
    """1 - |1 + w| evaluated without cancellation for small w (elementwise)."""
    r = np.abs(w)
    x = 2.0 * np.real(w) + r * r
    return -x / (1.0 + np.sqrt(np.maximum(0.0, 1.0 + x)))


def _hermitian_part(c: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Hermitian part of phase * c, stacked over the shape of phase."""
    r = phase[..., None, None] * c
    return 0.5 * (r + np.swapaxes(r, -1, -2).conj())


def _boundary_points(delta: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Point of the numerical range of delta minimizing Re(phase * w), per phase."""
    _, v = np.linalg.eigh(_hermitian_part(delta, phase))
    psi = v[..., 0]
    return (psi.conj()[..., None, :] @ delta @ psi[..., :, None])[..., 0, 0]


def _deficits(delta: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """1 - |1 + w| at the boundary points of delta for a 1-D stack of phases.

    Each value is the whole 720-angle stack's at that phase, bit for bit,
    in any stack of two or more phases, or of one unless delta is 1x1.
    """
    return _stable_deficit(_boundary_points(delta, phases))


def _ellipse(delta: np.ndarray):
    """``_screened_grid``'s closed form for a 2x2 delta: deficit(z, sqrt) is
    (1 - |1 + w|, rho) at an array of phases z with np.sqrt, or at one
    phase in Python scalars with ``_guess_sqrt``."""
    (p, q), (r, t) = delta.tolist()
    d0, dx, dy, dz = 0.5 * (p + t), 0.5 * (q + r), 0.5j * (q - r), 0.5 * (p - t)

    def deficit(z, sqrt):
        hx, hy, hz = (z * dx).real, (z * dy).real, (z * dz).real
        rho = sqrt(hx * hx + hy * hy + hz * hz)
        w = d0 - (dx * hx + dy * hy + dz * hz) / rho
        wr, wi = w.real, w.imag
        x = 2.0 * wr + (wr * wr + wi * wi)
        return -x / (1.0 + sqrt(1.0 + x)), rho
    return deficit


def _guess_sqrt(v: float) -> float:
    """math.sqrt, but NaN where it would raise or give 0, so a guess never raises."""
    return math.sqrt(v) if v > 0.0 else math.nan


def _screened_grid(delta: np.ndarray) -> np.ndarray:
    """The near regime's grid values: exact wherever the argmax can be, and
    below the exact maximum everywhere else.

    A 2x2 delta is screened: it is written d0 I + d.sigma in Pauli
    coefficients.  At a grid phase z the Hermitian part of z delta is
    Re(z d0) I + h.sigma with h = Re(z d), so its smaller eigenvalue has the
    eigenvector of Bloch vector -h / rho, rho = |h| (half the eigenvalue gap
    g = 2 rho), and the boundary point of Li's elliptical range (Proc. AMS
    124, 1996) is w = d0 - d.h / rho: ``_ellipse``, a few array operations
    for all 720 angles.  Each screened deficit s_i is within

        err_i = 2^-40 N (1 + N / g_i),   N = sum |delta_jk| >= ||delta||_2,

    of the exact value f_i (``_deficits``).  Both approximate the
    deficit at the true boundary point.  Forming the Hermitian part, and
    each eigensolver (LAPACK's backward-stable eigh; the closed form, a few
    roundings relative in h and rho), perturb it by E with ||E|| <= c u N,
    u = 2^-53.  That turns the eigenvector by at most 2||E|| / g
    (Davis-Kahan), which moves w by at most 2N times as much; forming w
    adds a few u N, and 1 - |1 + w| is 1/(1 - ||delta||_2) <= 1.12-Lipschitz
    in w (the near regime has ||delta||_2 < 0.1) and rounds by a few u |w|.
    So |f_i - s_i| <= c' u N (1 + N / g_i) with c' below 2^7 for any LAPACK
    constant c up to 16.  err takes 2^13 u = 2^-40, 64 times that, which
    costs little: near a smooth maximum, neighbouring grid values differ by
    about N step^2 / 2 = 4e-5 N.  Where g_i is too small for Davis-Kahan
    (g_i <= 2||E||), err_i exceeds 2.3 N, more than any w in the range can
    move the deficit.  A delta with N below 2^-400 takes the exact grid;
    above it, an underflow's absolute error (2^-1074, or that over rho)
    is far below err_i.

    Proof: the candidates C = {i : s_i + err_i >= max_j (s_j - err_j)} hold
    the exact argmax k (f_k >= f_j >= s_j - err_j for every j, and
    s_k + err_k >= f_k).  For i not in C, f_i <= s_i + err_i and
    s_i < max_j (s_j - err_j) <= f_k.  So the returned array, exact on C
    and s elsewhere, has its maximum, at its first index, exactly where
    the exact grid has it.

    Every other delta takes the exact grid, and so does one whose screen
    would not narrow it: C is taken as every angle when delta is not 2x2,
    when N is below 2^-400 or when any screened value or bound is not
    finite (an exactly scalar delta has rho = 0 everywhere).
    """
    n = float(np.abs(delta).sum())
    candidates = np.arange(_GRID_POINTS)
    if delta.shape == (2, 2) and n >= 2.0**-400:
        with np.errstate(divide="ignore", invalid="ignore"):
            s, rho = _ellipse(delta)(_GRID_PHASES, np.sqrt)
            err = 2.0**-40 * n * (1.0 + n / (2.0 * rho))
        if np.isfinite(s).all() and np.isfinite(err).all():
            candidates = np.flatnonzero(s + err >= (s - err).max())
    if candidates.size == _GRID_POINTS:
        return _deficits(delta, _GRID_PHASES)
    s[candidates] = _deficits(delta, _GRID_PHASES[candidates])
    return s


_GRID_POINTS = 720
# The scan's angles and their phases e^{i gamma}, read-only like _identity's.
_GRID_ANGLES = np.linspace(0.0, 2 * math.pi, _GRID_POINTS, endpoint=False)
_GRID_PHASES = np.exp(1j * _GRID_ANGLES)
_GRID_ANGLES.flags.writeable = False
_GRID_PHASES.flags.writeable = False
_LOOKAHEAD = 3  # golden-section steps refined per stacked evaluation
_REFINE_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_step(a, b, x1, x2, left: bool) -> tuple:
    """Bracket and points after one golden-section step, then the new point.

    left is the step's f(x1) < f(x2): the bracket keeps [x1, b].
    """
    if left:
        a, x1 = x1, x2
        x2 = a + _GOLDEN * (b - a)
        return a, b, x1, x2, x2
    b, x2 = x2, x1
    x1 = b - _GOLDEN * (b - a)
    return a, b, x1, x2, x1


def _golden_tree(a, b, x1, x2, left: bool) -> list[tuple]:
    """Every state the next _LOOKAHEAD golden-section steps can reach.

    The first step's choice is known; each later one depends on a value not
    yet evaluated, so both are formed.  Heap order: node i is followed by
    2i + 1 when its f1 < f2 holds and by 2i + 2 otherwise.
    """
    nodes = [_golden_step(a, b, x1, x2, left)]
    for i in range(2 ** (_LOOKAHEAD - 1) - 1):
        nodes += [_golden_step(*nodes[i][:4], True), _golden_step(*nodes[i][:4], False)]
    return nodes


def _scan_max(grid: np.ndarray, f, guess=None) -> float:
    """Maximum of a 2 pi-periodic function: a uniform scan, then golden-section refinement.

    grid holds the function's values at the _GRID_ANGLES.  Only its argmax
    is read, so it may be exact only where the argmax can be and below the
    exact maximum elsewhere (``_screened_grid``).  f(angles) evaluates a
    1-D stack of at least two angles, each value the same whatever else the
    stack holds (the value of the stack [x, x] at x).  guess(x), a float
    approximation of f, guesses every comparison down to _REFINE_TOL; the
    starting pair and that path's angles (none without a guess) are one
    stack, and the exact comparisons are replayed on it up to the first
    that differs from its guess.  Then each round evaluates, in one stack,
    the 2^_LOOKAHEAD - 1 angles its next _LOOKAHEAD steps can visit, and
    replays them.  So, whatever the guess, the points chosen and the
    maximum returned are those of refining one angle at a time.
    """
    k = int(grid.argmax())
    step = _GRID_ANGLES[1] - _GRID_ANGLES[0]
    a, b = _GRID_ANGLES[k] - step, _GRID_ANGLES[k] + step
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    path = []  # (guessed f1 < f2, state after the step) per guessed step
    if guess is not None:
        g1, g2, node = guess(x1), guess(x2), (a, b, x1, x2)
        while node[1] - node[0] > _REFINE_TOL:
            left = g1 < g2
            node = _golden_step(*node[:4], left)
            g1, g2 = (g2, guess(node[4])) if left else (guess(node[4]), g1)
            path.append((left, node))
    f1, f2, *values = f(np.array([x1, x2] + [node[4] for _, node in path]))
    for (left, node), value in zip(path, values):
        if (f1 < f2) != left:
            break
        a, b, x1, x2, _ = node
        f1, f2 = (f2, value) if left else (value, f1)
    while b - a > _REFINE_TOL:
        nodes = _golden_tree(a, b, x1, x2, f1 < f2)
        values = f(np.array([node[4] for node in nodes]))
        i = 0
        while i < len(nodes) and b - a > _REFINE_TOL:
            left = f1 < f2
            a, b, x1, x2, _ = nodes[i]
            f1, f2 = (f2, values[i]) if left else (values[i], f1)
            i = 2 * i + (1 if f1 < f2 else 2)
    return float(max(f1, f2))


def _worst_variance_infidelity(e: np.ndarray, b: np.ndarray) -> float:
    """max over subspace states of Var(K)/2 for e = e^{-i mu} M - I = exp(-i K) - I.

    Second-order perturbation of 1 - |<psi|M|psi>| in the deviation
    generator K, the Hermitian part of i e; exact up to O(||K||^3), and
    evaluated from V - U differences so relative precision survives far
    below machine epsilon in fidelity.  A one-column subspace has the
    closed form; otherwise the maximum is the largest value at 64 seeded
    random states (``_variance_states``), which can fall short of it.

    The 64 values are screened in one einsum each for e1 = <A1> and
    e2 = <A2>; only the candidates C = {i : v_i + err >= max_j (v_j - err)}
    are then evaluated exactly, in index order, with the per-state
    expressions.  With S1 = sum |A1_jk| and S2 = sum |A2_jk|, both ways of
    forming <A> sum at most d^2 products of three factors of modulus at
    most |A_jk| (|psi_j| <= 1), so each is within (d^2 + 8) u sum |A_jk|
    of the exact form (u = 2^-53) and they differ by twice that.  The
    square e1^2 (|e1| <= S1) doubles e1's error, and e2 - e1^2 cancels, so
    |v_exact - v_screened| <= (2 (d^2 + 8) + 3) u (S2 + S1^2); err takes
    2^5 (d^2 + 10) u (S2 + S1^2), at least 16 times that.  A state outside
    C has an exact value below max_j (v_j - err), which is at most the
    exact maximum, so the maximum over C is the maximum over all 64 states,
    bit for bit.  If any screened value is not finite, all 64 are
    evaluated.
    """
    k = 1j * e
    k = 0.5 * (k + k.conj().T)
    a1 = b.conj().T @ k @ b
    kb = k @ b
    a2 = kb.conj().T @ kb
    d = b.shape[1]
    if d == 1:
        var = float((a2[0, 0] - a1[0, 0] ** 2).real)
        return max(0.0, 0.5 * var)

    states = _variance_states(d)
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.einsum("ki,ij,kj->k", states.conj(), a1, states).real
        e2 = np.einsum("ki,ij,kj->k", states.conj(), a2, states).real
        v = 0.5 * (e2 - e1 * e1)
        s1 = float(np.abs(a1).sum())
        err = 2.0**5 * (d * d + 10) * 2.0**-53 * (float(np.abs(a2).sum()) + s1 * s1)
        finite = np.isfinite(v).all() and math.isfinite(err)
    candidates = np.flatnonzero(v + err >= (v - err).max()) if finite else range(len(states))
    best = -1.0
    for i in candidates:
        psi = states[i].copy()
        e1 = float((psi.conj() @ a1 @ psi).real)
        e2 = float((psi.conj() @ a2 @ psi).real)
        best = max(best, 0.5 * (e2 - e1 * e1))
    return max(0.0, best)


@lru_cache(maxsize=8)
def _variance_states(d: int) -> np.ndarray:
    """The 64 seeded unit states of the variance search, as a read-only (64, d) array."""
    rng = np.random.default_rng(12345)
    states = []
    for _ in range(64):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        states.append(psi)
    states = np.array(states)
    states.flags.writeable = False
    return states


def _phase_deviation(x: np.ndarray) -> np.ndarray:
    """e^{-i arg tr x} x - I, taking arg 0 when tr x = 0."""
    tr = np.trace(x)
    mu = float(np.angle(tr)) if abs(tr) > 0 else 0.0
    return np.exp(-1j * mu) * x - np.eye(x.shape[0])


def subspace_fidelity(u: Unitary, v: Unitary, s: Subspace) -> FidelityReport:
    """Worst-case fidelity restricted to states in the subspace.

    Three regimes: an invariant subspace (checked to 1e-10) makes the
    compression of U^dag V unitary and the eigenphase arc applies; a
    leaky compression far from the identity is handled by the distance
    from the origin to its numerical range, scanned over support angles
    with golden-section refinement; and a leaky compression close to the
    identity (after global-phase removal) switches to a second-order
    expansion in the deviation generator, which keeps relative precision
    when the infidelity sits below machine epsilon in fidelity.

    Each leaky regime hands _scan_max its values at the 720 grid angles
    and a refinement evaluator, which the golden-section refinement applies
    to the angles its next few steps can visit, one stack per round.  The
    far regime forms both from one smallest-eigenvalue expression (one
    stacked eigendecomposition for the grid), the near regime from
    ``_deficits``.  Its grid is ``_screened_grid``'s: for a two-dimensional
    subspace a closed form (``_ellipse``) gives every angle's value to
    within a proven rounding bound, and only the angles that can hold the
    maximum are evaluated, and at one angle it guesses the refinement's
    whole path, evaluated exactly in one stack.  The variance search
    screens its 64 states the same way as the grid
    (``_worst_variance_infidelity``).  Every returned value comes from the
    exact evaluation, bit for bit.  Both regime tests compare a 2-norm
    with a threshold, through the Frobenius norm wherever that settles them
    (``_spectral_norm_side``).  An argument of the wrong type raises a
    UnitaryError naming it.
    """
    _require(Unitary, u=u, v=v)
    _require(Subspace, s=s)
    if u.dim != v.dim:
        raise UnitaryError(f"dimension mismatch: {u.dim} vs {v.dim}")
    if s.ambient_dim != u.dim:
        raise UnitaryError(
            f"subspace ambient dim {s.ambient_dim} does not match {u.dim}"
        )
    m = u.matrix.conj().T @ v.matrix
    b = s.basis
    c = b.conj().T @ m @ b
    leak = np.abs(m @ b - b @ c).max()
    if leak < 1e-10:
        return _arc_report(c[None])[0]
    e = _phase_deviation(m)
    if _spectral_norm_side(e, 1e-4) < 1e-4:
        infid = min(1.0, _worst_variance_infidelity(e, b))
        return FidelityReport(1.0 - infid, infid, "numerical-range")
    delta = _phase_deviation(c)
    if _spectral_norm_side(delta, 0.1) < 0.1:
        # |1+w| > 0 throughout, so the minimizer sits on the boundary of
        # the numerical range of delta.
        closed = _ellipse(delta) if delta.shape == (2, 2) else None
        guess = closed and (lambda x: closed(cmath.exp(1j * x), _guess_sqrt)[0])
        infid = _scan_max(_screened_grid(delta), lambda g: _deficits(delta, np.exp(1j * g)), guess)
        infid = min(1.0, max(0.0, infid))
        return FidelityReport(1.0 - infid, infid, "numerical-range")
    # Far regime: distance from the origin to the numerical range of c (0 if inside).
    def smallest(phases):
        return np.linalg.eigvalsh(_hermitian_part(c, phases))[..., 0]

    f = _scan_max(smallest(_GRID_PHASES), lambda g: smallest(np.exp(1j * g)))
    f = min(1.0, max(0.0, f))
    return FidelityReport(f, 1.0 - f, "numerical-range")
