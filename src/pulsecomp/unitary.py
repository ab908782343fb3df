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

from .pauli import Hamiltonian, PauliError, square_identity_coefficient

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class UnitaryError(ValueError):
    """Dimension mismatch or non-unitary input."""


@dataclass(frozen=True)
class Unitary:
    """A dense unitary; U^dag U = I is checked on construction (1e-10)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise UnitaryError(f"not square: shape {m.shape}")
        defect = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not defect <= 1e-10:
            raise UnitaryError(f"not unitary: defect {defect:.3e}")

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
        object.__setattr__(self, "basis", b)
        defect = np.abs(b.conj().T @ b - np.eye(b.shape[1])).max()
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


def matrix_of(h: Hamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli-sum Hamiltonian."""
    dim = 2**h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in h.terms:
        out += coeff * _word_matrix(string.letters)
    return out


def matrix_to_hamiltonian(m: np.ndarray, n_qubits: int, tol: float = 1e-12) -> Hamiltonian:
    """Exact Pauli decomposition of a Hermitian matrix (small n only)."""
    from itertools import product

    from .pauli import PauliString

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


def evolve(terms: list[tuple[float, float, Hamiltonian]]) -> Unitary:
    """exp(-i sum theta(1+eps) H) for simultaneous terms (theta, eps, H).

    When the summed operator A satisfies A^2 = c I (detected exactly in
    the Pauli algebra) the closed form cos(sqrt(c)) I - i sinc * A is used;
    otherwise a Hermitian eigendecomposition.
    """
    if not terms:
        raise UnitaryError("evolve requires at least one term")
    sizes = {h.n_qubits for _, _, h in terms}
    if len(sizes) > 1:
        raise PauliError(f"mixed qubit counts in evolve: {sorted(sizes)}")
    n = sizes.pop()
    total = Hamiltonian.zero(n)
    for theta, eps, h in terms:
        total = total + (theta * (1.0 + eps)) * h
    dim = 2**n
    c = square_identity_coefficient(total)
    if c is not None and c >= 0.0:
        a = matrix_of(total)
        r = math.sqrt(c)
        if r < 1e-150:
            u = np.eye(dim, dtype=complex) - 1j * a
        else:
            u = math.cos(r) * np.eye(dim) - 1j * (math.sin(r) / r) * a
        return Unitary(u)
    hmat = matrix_of(total)
    w, v = np.linalg.eigh(hmat)
    return Unitary((v * np.exp(-1j * w)) @ v.conj().T)


def _eigenphase_arc(eigvals: np.ndarray) -> float:
    """Width of the minimal arc on the unit circle containing all phases."""
    phases = np.sort(np.angle(eigvals))
    if phases.size == 1:
        return 0.0
    gaps = np.diff(phases)
    wrap = 2 * math.pi - (phases[-1] - phases[0])
    return max(0.0, 2 * math.pi - max(gaps.max(initial=0.0), wrap))


def _arc_report(arc: float, method: str) -> FidelityReport:
    if arc >= math.pi:
        infid = 1.0
    else:
        infid = min(1.0, 2.0 * math.sin(arc / 4.0) ** 2)
    return FidelityReport(fidelity=1.0 - infid, infidelity=infid, method=method)


def fidelity(u: Unitary, v: Unitary) -> FidelityReport:
    """Worst-case state fidelity between two unitaries."""
    if u.dim != v.dim:
        raise UnitaryError(f"dimension mismatch: {u.dim} vs {v.dim}")
    m = u.matrix.conj().T @ v.matrix
    arc = _eigenphase_arc(np.linalg.eigvals(m))
    return _arc_report(arc, "eigenphase-arc")


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


def _stable_deficit(w: complex) -> float:
    """1 - |1 + w| evaluated without cancellation for small w."""
    x = 2.0 * w.real + abs(w) ** 2
    return -x / (1.0 + math.sqrt(max(0.0, 1.0 + x)))


def _hermitian_part(c: np.ndarray, gamma: float) -> np.ndarray:
    """Hermitian part of e^{i gamma} c."""
    r = np.exp(1j * gamma) * c
    return 0.5 * (r + r.conj().T)


def _boundary_point(delta: np.ndarray, gamma: float) -> complex:
    w, v = np.linalg.eigh(_hermitian_part(delta, gamma))
    psi = v[:, 0]
    return complex(psi.conj() @ delta @ psi)


_GRID_POINTS = 720
_REFINE_TOL = 1e-10


def _scan_max(f) -> float:
    """Maximum of a 2 pi-periodic f: a uniform scan, then golden-section refinement."""
    gammas = np.linspace(0.0, 2 * math.pi, _GRID_POINTS, endpoint=False)
    k = int(np.array([f(x) for x in gammas]).argmax())
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
    return max(f1, f2)


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
        arc = _eigenphase_arc(np.linalg.eigvals(c))
        return _arc_report(arc, "eigenphase-arc")
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
        infid = _scan_max(lambda g: _stable_deficit(_boundary_point(delta, g)))
        infid = min(1.0, max(0.0, infid))
        return FidelityReport(1.0 - infid, infid, "numerical-range")
    # Far regime: distance from the origin to the numerical range of c (0 if inside).
    f = _scan_max(lambda g: float(np.linalg.eigvalsh(_hermitian_part(c, g))[0]))
    f = min(1.0, max(0.0, f))
    return FidelityReport(f, 1.0 - f, "numerical-range")
