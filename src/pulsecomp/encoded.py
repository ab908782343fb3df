"""Three-spin encoded qubits driven by XY or exchange couplings.

The XY coupling conserves the spin projection along z; the exchange
coupling additionally conserves total spin.  Both admit a two-dimensional
code space on three qubits, constructed here by simultaneous
diagonalization of the conserved quantities with a deterministic ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .pauli import Hamiltonian, PauliError, PauliString
from .sequences import (
    ErrorAssignment,
    Pulse,
    PulseSequence,
    SequenceError,
    _bb1_w_unchecked,
    compile_sequence,
)
from .unitary import Subspace, matrix_of, matrix_to_hamiltonian


@dataclass(frozen=True)
class Encoding:
    scheme: Literal["xy3", "heisenberg3"]
    code: Subspace
    logical_z: Hamiltonian
    logical_x: Hamiltonian


def _coupling(i: int, j: int, n: int, coeff: float, letters: str) -> Hamiltonian:
    """coeff times the sum over ``letters`` of the word with that letter on qubits i, j."""
    if not 1 <= i < j <= n:
        raise PauliError(f"invalid coupling pair {(i, j)} on {n} qubits")
    words = ("".join(l if k in (i, j) else "I" for k in range(1, n + 1)) for l in letters)
    return Hamiltonian.from_terms(n, [(coeff, PauliString(w)) for w in words])


def xy_coupling(i: int, j: int, n: int = 3) -> Hamiltonian:
    """(XX + YY)/2 on qubits i < j."""
    return _coupling(i, j, n, 0.5, "XY")


def exchange(i: int, j: int, n: int = 3) -> Hamiltonian:
    """(I + XX + YY + ZZ)/2 on qubits i < j: the swap of the pair."""
    return _coupling(i, j, n, 0.5, "IXYZ")


def heisenberg_coupling(i: int, j: int, n: int = 3) -> Hamiltonian:
    """XX + YY + ZZ on qubits i < j."""
    return _coupling(i, j, n, 1.0, "XYZ")


def _mz_of_index(idx: int, n: int) -> float:
    # Bit 0 of the index is qubit n; |0> carries m_z = +1/2.
    ones = bin(idx).count("1")
    return 0.5 * (n - 2 * ones)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        idx = int(np.abs(out[:, k]).argmax())
        phase = out[idx, k] / abs(out[idx, k])
        out[:, k] = out[:, k] / phase
    return out


def sector_decomposition(
    grading: Literal["xy", "heisenberg"],
) -> dict[tuple[float, float], Subspace]:
    """Invariant sectors of the three-spin space under the chosen coupling.

    Keys are (S, m_z): total spin and spin projection along z.  XY grading
    yields the four m_z blocks of dimensions 1, 3, 3, 1, each keyed with
    S = 3/2 (the maximal value attainable in the block, the XY coupling
    not conserving S).  Heisenberg grading splits each m_z block by total
    spin: the quartet states plus one two-dimensional S = 1/2 multiplicity
    space for m_z = +-1/2.  Keys come in descending m_z, and within one
    m_z in descending S.  Sector bases are exactly invariant under every
    coupling of the grading.
    """
    n = 3
    dim = 2**n
    blocks = {
        mz: np.eye(dim, dtype=complex)[:, [k for k in range(dim) if _mz_of_index(k, n) == mz]]
        for mz in (1.5, 0.5, -0.5, -1.5)
    }
    if grading == "xy":
        return {(n / 2, mz): Subspace(basis) for mz, basis in blocks.items()}
    if grading != "heisenberg":
        raise PauliError(f"unknown grading {grading!r}")
    casimir = 0.75 * np.eye(dim) + sum(
        matrix_of(exchange(i, j)) for i, j in ((1, 2), (1, 3), (2, 3))
    )
    e12 = matrix_of(exchange(1, 2))
    out: dict[tuple[float, float], Subspace] = {}
    for mz, basis in blocks.items():
        sub_cas = basis.conj().T @ casimir @ basis
        w, v = np.linalg.eigh(sub_cas)
        for s_val, target in ((1.5, 3.75), (0.5, 0.75)):
            cols = [k for k in range(len(w)) if abs(w[k] - target) < 1e-9]
            if not cols:
                continue
            vecs = basis @ v[:, cols]
            if len(cols) > 1:
                # Deterministic basis inside the multiplicity space: E(1,2)
                # eigenvectors, eigenvalue descending.
                sub_e = vecs.conj().T @ e12 @ vecs
                ew, ev = np.linalg.eigh(sub_e)
                order = np.argsort(-ew)
                vecs = vecs @ ev[:, order]
            out[(s_val, mz)] = Subspace(_fix_phases(vecs))
    return out


_XY_LABEL = "XY"
_EX_LABEL = "EX"


def _p3_pulses(theta: float) -> tuple[tuple[tuple[int, int], float], ...]:
    """(coupled pair, angle) of each pulse of the five-pulse z rotation."""
    return (
        ((1, 2), math.pi / 4.0),
        ((2, 3), 0.5 * math.pi),
        ((1, 3), -theta / 2.0),
        ((2, 3), -0.5 * math.pi),
        ((1, 2), -math.pi / 4.0),
    )


def p3_sequence(theta: float) -> PulseSequence:
    """Five-pulse logical-Z rotation on the XY-coupled three-spin qubit.

    All pulses share one error label (proportional coupling errors).  At
    zero error the sequence acts as a z rotation by theta on the code
    qubit, up to a global phase.
    """
    return PulseSequence(tuple(
        Pulse.single(_XY_LABEL, angle, xy_coupling(*pair)) for pair, angle in _p3_pulses(theta)
    ))


# Partner coupling for each corrected pulse: the shared-qubit neighbour,
# pinned so golden tests are reproducible.
_P3_PARTNERS = {(1, 2): (2, 3), (2, 3): (1, 2), (1, 3): (2, 3)}


def p3_bb1(theta: float) -> PulseSequence:
    """The five-pulse logical-Z rotation with each pulse BB1-corrected.

    Every coupling pulse becomes the four-pulse simultaneous sequence with
    its shared-qubit partner coupling; all pulses keep the single shared
    error label, so the correction sees correlated errors.
    """
    def block(pair: tuple[int, int], angle: float) -> PulseSequence:
        partner = xy_coupling(*_P3_PARTNERS[pair])
        return _bb1_w_unchecked(angle, xy_coupling(*pair), partner, _XY_LABEL, _XY_LABEL)

    return PulseSequence(tuple(block(pair, angle) for pair, angle in _p3_pulses(theta)))


def xy3_encoding() -> Encoding:
    """The two-dimensional XY code inside the m_z = +1/2 block.

    The code basis consists of the +-1 eigenvectors of the conjugated
    coupling that generates the five-pulse z rotation; the third sector
    state (eigenvalue 0) and the m_z = +-3/2 states are spectators.
    """
    w = compile_sequence(
        PulseSequence(
            (
                Pulse.single(_XY_LABEL, -0.5 * math.pi, xy_coupling(2, 3)),
                Pulse.single(_XY_LABEL, -math.pi / 4.0, xy_coupling(1, 2)),
            )
        ),
        ErrorAssignment.zero([_XY_LABEL]),
    ).matrix
    gen = w @ matrix_of(xy_coupling(1, 3)) @ w.conj().T
    block = sector_decomposition("xy")[(1.5, 0.5)].basis
    sub = block.conj().T @ gen @ block
    ew, ev = np.linalg.eigh(sub)
    order = np.argsort(-ew)
    ew, ev = ew[order], ev[:, order]
    if abs(ew[0] - 1.0) > 1e-9 or abs(ew[-1] + 1.0) > 1e-9:
        raise PauliError(f"unexpected logical-Z spectrum {ew}")
    # Eigenvalue -1 first: the generated z rotation then acts as
    # diag(e^{-i theta/2}, e^{+i theta/2}) on the code basis.
    code = _fix_phases(block @ ev[:, [2, 0]])
    zbar = code[:, [0]] @ code[:, [0]].conj().T - code[:, [1]] @ code[:, [1]].conj().T
    xbar = code[:, [0]] @ code[:, [1]].conj().T + code[:, [1]] @ code[:, [0]].conj().T
    return Encoding(
        scheme="xy3",
        code=Subspace(code),
        logical_z=matrix_to_hamiltonian(zbar, 3),
        logical_x=matrix_to_hamiltonian(xbar, 3),
    )


# Logical Z and X generators of the exchange code, unrestricted (as applied
# by pulses): E(1,2) and (E(1,2) + 2 E(2,3)) / sqrt(3).
_EXCHANGE_Z = exchange(1, 2)
_EXCHANGE_X = (1.0 / math.sqrt(3.0)) * (exchange(1, 2) + 2.0 * exchange(2, 3))


def heisenberg3_encoding() -> Encoding:
    """The exchange code: the (S = 1/2, m_z = +1/2) doublet.

    E(1,2) restricts to logical Z; (E(1,2) + 2 E(2,3)) / sqrt(3) restricts
    to logical X.
    """
    return Encoding(
        scheme="heisenberg3",
        code=sector_decomposition("heisenberg")[(0.5, 0.5)],
        logical_z=_EXCHANGE_Z,
        logical_x=_EXCHANGE_X,
    )


def get_encoding(name: str) -> Encoding:
    if name == "xy3":
        return xy3_encoding()
    if name == "heisenberg3":
        return heisenberg3_encoding()
    raise PauliError(f"unknown encoding {name!r}")


def heisenberg_logical(
    axis: Literal["z", "x"], theta: float, corrected: bool = False
) -> PulseSequence:
    """Exchange pulses implementing exp(-i theta logical/2) on the code space.

    The uncorrected form is a single pulse on the logical generator (half
    of it, so theta is the logical rotation angle).  The corrected form
    wraps the four-pulse simultaneous sequence around the two logical
    generators under one shared error label; the pair closes as su(2) only
    on the code space, so the correction helps there and hurts outside.
    """
    if axis not in ("z", "x"):
        raise SequenceError(f"unknown logical axis {axis!r}; expected 'z' or 'x'")
    hz = 0.5 * _EXCHANGE_Z
    hx = 0.5 * _EXCHANGE_X
    h1, h2 = (hz, hx) if axis == "z" else (hx, hz)
    if not corrected:
        return PulseSequence((Pulse.single(_EX_LABEL, theta, h1),))
    return _bb1_w_unchecked(theta, h1, h2, _EX_LABEL, _EX_LABEL)
