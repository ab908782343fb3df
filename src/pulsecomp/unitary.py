"""Dense unitary synthesis and worst-case fidelity metrics.

Conventions: qubit 1 is the most significant bit of dense matrices.  The
fidelity is the minimum over states of |<psi|U^dag V|psi>|; on the full
space this is the distance from the origin to the convex hull of the
eigenvalues of U^dag V, computed from the minimal eigenphase arc.
Infidelities are evaluated as 2 sin^2(arc/4) so that values far below
machine epsilon in fidelity remain meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import Hamiltonian, PauliError, PauliString, PhasedPauli, multiply
from .pauli import square_identity_coefficient

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
    return np.abs(m.conj().swapaxes(-1, -2) @ m - _identity(m.shape[-1]))


class UnitaryError(ValueError):
    """Dimension mismatch or non-unitary input."""


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
    dim = 2**h.n_qubits
    return _pauli_sum((dim, dim), ((c, _word_matrix(s.letters)) for c, s in h.terms))


def matrix_to_hamiltonian(m: np.ndarray, n_qubits: int) -> Hamiltonian:
    """Exact Pauli decomposition of a Hermitian matrix (small n only).

    Coefficients of magnitude at most 1e-12 are dropped.
    """
    from itertools import product

    tol = 1e-12
    dim = 2**n_qubits
    terms = []
    for letters in product("IXYZ", repeat=n_qubits):
        word = "".join(letters)
        p = matrix_of(Hamiltonian.single(1.0, word))
        c = np.trace(p @ m) / dim
        if abs(c.imag) > tol * max(1.0, abs(c.real)):
            raise PauliError(f"matrix not Hermitian: {word} coefficient {c}")
        if abs(c.real) > tol:
            terms.append((c.real, PauliString(word)))
    return Hamiltonian.from_terms(n_qubits, terms)


class _Synthesis:
    """The Pauli structure of one pulse, derived once from its Hamiltonians.

    For the simultaneous terms of a pulse this holds the merged, sorted
    words, each word's (term index, coefficient) contributions, the word
    matrices, and the products of word pairs that form A^2.  ``unitaries``
    then needs only float arithmetic per point, done in the order that
    summing the Hamiltonians, ``_product_terms`` and ``matrix_of`` do it,
    and passes the sums of A^2 to ``square_identity_coefficient``, so its
    results are bit for bit those of the Pauli algebra.
    """

    def __init__(self, hams: tuple[Hamiltonian, ...]):
        sizes = {h.n_qubits for h in hams}
        if len(sizes) > 1:
            raise PauliError(f"mixed qubit counts in evolve: {sorted(sizes)}")
        n = sizes.pop()
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

    def coefficients(self, scales: list[float]) -> list[float]:
        """Merged coefficient per word for per-term scales theta(1+eps)."""
        out = []
        for word, contributions in zip(self.words, self.contributions):
            a = 0.0
            for t, coeff in contributions:
                a = a + scales[t] * coeff
            if not math.isfinite(a):
                raise PauliError(f"coefficient {a!r} of {word} is not finite")
            out.append(a)
        return out

    def square_sums(self, a: list[float]) -> dict[str, complex]:
        """Product-word sums of A^2 for merged coefficients a.

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

    def unitaries(self, points: list) -> np.ndarray:
        """exp(-i A) per point of per-term scales: a (K, d, d) stack, (d, d) when K = 1.

        Coefficients and the A^2 = c I test are scalar arithmetic per
        point.  One point is finished with Python scalars: the sum over
        words, then the closed form cos(r) I - i (sin(r)/r) A with
        r = sqrt(c) (I - i A when r < 1e-150) if the test passes, else a
        Hermitian eigendecomposition.  Several points stack only this
        matrix work, with (K, 1, 1) columns of the same per-point scalars,
        which give the same bits, and one eigendecomposition of the points
        that fail the test.  The result is not checked for unitarity here.
        """
        d = self.dim
        if len(points) == 1:
            a = self.coefficients(points[0])
            c = square_identity_coefficient(self.square_sums(a))
            amat = _pauli_sum((d, d), zip(a, self.matrices))
            if c is None or c < 0.0:
                w, v = np.linalg.eigh(amat)
                return (v * np.exp(-1j * w)) @ v.conj().T
            r = math.sqrt(c)
            if r < 1e-150:
                return _identity(d) - 1j * amat
            return math.cos(r) * _identity(d) - 1j * (math.sin(r) / r) * amat
        a, roots, rest = [], [], []
        for k, scales in enumerate(points):
            x = self.coefficients(scales)
            c = square_identity_coefficient(self.square_sums(x))
            a.append(x)
            if c is None or c < 0.0:
                roots.append(0.0)  # replaced by the eigendecomposition below
                rest.append(k)
            else:
                roots.append(math.sqrt(c))
        columns = np.array(a).T[:, :, None, None]
        amat = _pauli_sum((len(points), d, d), zip(columns, self.matrices))
        cos = np.array([1.0 if r < 1e-150 else math.cos(r) for r in roots])
        sinc = np.array([1j if r < 1e-150 else 1j * (math.sin(r) / r) for r in roots])
        u = cos[:, None, None] * _identity(d) - sinc[:, None, None] * amat
        if rest:
            w, v = np.linalg.eigh(amat[rest])
            u[rest] = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        return u


@lru_cache(maxsize=256)
def _synthesis(hams: tuple[Hamiltonian, ...]) -> _Synthesis:
    return _Synthesis(hams)


def evolve(terms: list[tuple[float, float, Hamiltonian]]) -> Unitary:
    """exp(-i sum theta(1+eps) H) for simultaneous terms (theta, eps, H).

    The one-point case of the synthesis that compiles pulses at K points
    (``_Synthesis.unitaries``; the compile walk calls ``evolve`` for each
    pulse at one point and ``_evolve_stack`` at several): when the summed
    operator A satisfies A^2 = c I (decided by the Pauli algebra's
    ``square_identity_coefficient`` on the product-word sums of A^2) the
    closed form cos(sqrt(c)) I - i sinc * A is used; otherwise a Hermitian
    eigendecomposition.  The Pauli structure of the Hamiltonians is derived
    once per distinct tuple (a cached plan), so a call is float arithmetic
    in the order of the Hamiltonian algebra.
    """
    if not terms:
        raise UnitaryError("evolve requires at least one term")
    plan = _synthesis(tuple(h for _, _, h in terms))
    return Unitary(plan.unitaries([[theta * (1.0 + eps) for theta, eps, _ in terms]]))


def _evolve_stack(terms: list[tuple[float, tuple[float, ...], Hamiltonian]]) -> np.ndarray:
    """``evolve`` at K >= 2 points at once, for the compile walk.

    Terms (theta, (eps_1 .. eps_K), H) give a (K, d, d) stack; matrix k is
    bit for bit ``evolve`` of the terms (theta, eps_k, H), and each is
    checked unitary to 1e-10.
    """
    plan = _synthesis(tuple(h for _, _, h in terms))
    scales = [[theta * (1.0 + e) for e in eps] for theta, eps, _ in terms]
    u = plan.unitaries(list(zip(*scales)))
    check_unitary(u)
    return u


def _arc_report(m: np.ndarray) -> list[FidelityReport]:
    """Worst-case fidelity of each unitary of a (K, d, d) stack from the minimal
    arc holding its eigenphases."""
    reports = []
    for p in np.sort(np.angle(np.linalg.eigvals(m)), axis=-1).tolist():
        gap = max([b - a for a, b in zip(p, p[1:])], default=0.0)
        arc = max(0.0, 2 * math.pi - max(gap, 2 * math.pi - (p[-1] - p[0])))
        infid = 1.0 if arc >= math.pi else min(1.0, 2.0 * math.sin(arc / 4.0) ** 2)
        reports.append(FidelityReport(1.0 - infid, infid, "eigenphase-arc"))
    return reports


def fidelities(u: Unitary, stack: np.ndarray) -> list[FidelityReport]:
    """Worst-case state fidelity between u and each unitary of a (K, d, d) stack."""
    if stack.shape[-1] != u.dim:
        raise UnitaryError(f"dimension mismatch: {u.dim} vs {stack.shape[-1]}")
    return _arc_report(u.matrix.conj().T @ stack)


def fidelity(u: Unitary, v: Unitary) -> FidelityReport:
    """Worst-case state fidelity between two unitaries (``fidelities`` at one point)."""
    return fidelities(u, v.matrix[None])[0]


def distance(u: Unitary, v: Unitary, align_phase: bool = False) -> float:
    """Spectral norm of U - V, optionally minimized over a global phase.

    The alignment convention rotates V by the phase of tr(U^dag V), which
    is the closed-form minimizer direction (and maps V = -U onto U).
    """
    if u.dim != v.dim:
        raise UnitaryError(f"dimension mismatch: {u.dim} vs {v.dim}")
    vm = v.matrix
    if align_phase:
        t = np.trace(u.matrix.conj().T @ vm)
        if abs(t) > 0.0:
            vm = vm * np.exp(-1j * np.angle(t))
    return float(np.linalg.norm(u.matrix - vm, ord=2))


def _stable_deficit(w: complex | np.ndarray) -> float | np.ndarray:
    """1 - |1 + w| evaluated without cancellation for small w (elementwise)."""
    x = 2.0 * np.real(w) + np.abs(w) ** 2
    return -x / (1.0 + np.sqrt(np.maximum(0.0, 1.0 + x)))


def _hermitian_part(c: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Hermitian part of e^{i gamma} c, stacked over the shape of gamma."""
    r = np.exp(1j * np.asarray(gamma))[..., None, None] * c
    return 0.5 * (r + np.swapaxes(r, -1, -2).conj())


def _boundary_points(delta: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """Point of the numerical range of delta minimizing Re(e^{i gamma} w), per angle."""
    _, v = np.linalg.eigh(_hermitian_part(delta, gamma))
    psi = v[..., 0]
    return (psi.conj()[..., None, :] @ delta @ psi[..., :, None])[..., 0, 0]


_GRID_POINTS = 720
_REFINE_TOL = 1e-10


def _scan_max(f) -> float:
    """Maximum of a 2 pi-periodic f: a uniform scan, then golden-section refinement.

    f is elementwise: called once on all grid angles, then on one angle at a time.
    """
    gammas = np.linspace(0.0, 2 * math.pi, _GRID_POINTS, endpoint=False)
    k = int(f(gammas).argmax())
    step = gammas[1] - gammas[0]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = gammas[k] - step, gammas[k] + step
    x1, x2 = b - g * (b - a), a + g * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _REFINE_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + g * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - g * (b - a)
            f1 = f(x1)
    return float(max(f1, f2))


def _worst_variance_infidelity(m: np.ndarray, b: np.ndarray, mu: float) -> float:
    """max over subspace states of Var(K)/2 for M = e^{i mu} exp(-i K).

    Second-order perturbation of 1 - |<psi|M|psi>| in the deviation
    generator K; exact up to O(||K||^3), and evaluated from V - U
    differences so relative precision survives far below machine epsilon
    in fidelity.
    """
    n = np.exp(-1j * mu) * m
    k = 1j * (n - np.eye(n.shape[0]))
    k = 0.5 * (k + k.conj().T)
    a1 = b.conj().T @ k @ b
    kb = k @ b
    a2 = kb.conj().T @ kb
    d = b.shape[1]
    if d == 1:
        var = float((a2[0, 0] - a1[0, 0] ** 2).real)
        return max(0.0, 0.5 * var)

    def value(psi: np.ndarray) -> float:
        e1 = float((psi.conj() @ a1 @ psi).real)
        e2 = float((psi.conj() @ a2 @ psi).real)
        return 0.5 * (e2 - e1 * e1)

    # Coarse random scan plus power-iteration-style polish on the
    # centered operator A2 - 2 e1 A1 (the stationarity condition).
    rng = np.random.default_rng(12345)
    best_val, best_psi = -1.0, None
    for _ in range(64):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        v = value(psi)
        if v > best_val:
            best_val, best_psi = v, psi
    psi = best_psi
    for _ in range(200):
        e1 = float((psi.conj() @ a1 @ psi).real)
        grad_op = a2 - 2.0 * e1 * a1
        w, vecs = np.linalg.eigh(grad_op)
        cand = vecs[:, -1]
        v = value(cand)
        if v <= best_val * (1 + 1e-14):
            break
        best_val, psi = v, cand
    return max(0.0, best_val)


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

    Each leaky regime has one elementwise evaluator over support angles:
    the scan applies it to all grid angles at once (one stacked
    eigendecomposition), the golden-section refinement to one angle at a time.
    """
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
    tr = np.trace(m)
    mu = float(np.angle(tr)) if abs(tr) > 0 else 0.0
    dev = np.linalg.norm(np.exp(-1j * mu) * m - np.eye(m.shape[0]), ord=2)
    if dev < 1e-4:
        infid = min(1.0, _worst_variance_infidelity(m, b, mu))
        return FidelityReport(1.0 - infid, infid, "numerical-range")
    trc = np.trace(c)
    muc = float(np.angle(trc)) if abs(trc) > 0 else 0.0
    delta = np.exp(-1j * muc) * c - np.eye(c.shape[0])
    if np.linalg.norm(delta, ord=2) < 0.1:
        # |1+w| > 0 throughout, so the minimizer sits on the boundary of
        # the numerical range of delta.
        infid = _scan_max(lambda g: _stable_deficit(_boundary_points(delta, g)))
        infid = min(1.0, max(0.0, infid))
        return FidelityReport(1.0 - infid, infid, "numerical-range")
    # Far regime: distance from the origin to the numerical range of c (0 if inside).
    f = _scan_max(lambda g: np.linalg.eigvalsh(_hermitian_part(c, g))[..., 0])
    f = min(1.0, max(0.0, f))
    return FidelityReport(f, 1.0 - f, "numerical-range")
