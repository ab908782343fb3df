"""Compensation-sequence builders and the memoizing sequence compiler.

Temporal convention: a sequence's item order is time order, and the
compiled product puts later pulses on the left (U = U_k ... U_1).  Every
builder emits its main rotation first and the correction pulses after it;
the compiled correction block multiplies the main rotation from the left,
which carries the same infidelity as the textbook right-multiplied form
because AB and BA share a spectrum.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Optional, Union
from weakref import WeakValueDictionary

import numpy as np

from .pauli import Hamiltonian, unit_su2_partner
from .unitary import Unitary, _evolve_stack, _identity, check_unitary, distance, evolve


class SequenceError(ValueError):
    """Invalid builder inputs (non-closing pair, bad angle, bad label)."""


class CompileError(ValueError):
    """Missing or inconsistent error assignments at compile time.

    ``point`` is the index of the assignment at fault among those compiled
    together.
    """

    point: Optional[int] = None


# Weak intern tables: each distinct pulse or sequence value exists once
# while anything refers to it, so equality and hashing are identity.
_PULSES: WeakValueDictionary = WeakValueDictionary()
_SEQUENCES: WeakValueDictionary = WeakValueDictionary()


def _angle(theta: float) -> float:
    if not math.isfinite(theta):
        raise SequenceError("non-finite pulse angle")
    return float(theta)


@dataclass(frozen=True, eq=False, init=False)
class Pulse:
    """Simultaneous application of labeled Hamiltonian terms.

    Each term is (label, theta, hamiltonian); the systematic error of the
    label multiplies theta at compile time.  Pulses are interned: building
    one whose terms equal a live pulse's (angles compared bit for bit, so
    0.0 and -0.0 differ) returns that pulse.
    """

    terms: tuple[tuple[str, float, Hamiltonian], ...]

    def __new__(cls, terms) -> "Pulse":
        terms = tuple((label, _angle(theta), h) for label, theta, h in terms)
        key = tuple((label, theta.hex(), h) for label, theta, h in terms)
        node = _PULSES.get(key)
        if node is None:
            if not terms:
                raise SequenceError("empty pulse")
            sizes = {h.n_qubits for _, _, h in terms}
            if len(sizes) > 1:
                raise SequenceError(f"mixed qubit counts in pulse: {sorted(sizes)}")
            node = object.__new__(cls)
            object.__setattr__(node, "terms", terms)
            _PULSES[key] = node
        return node

    def __reduce__(self):
        return (Pulse, (self.terms,))

    @property
    def n_qubits(self) -> int:
        return self.terms[0][2].n_qubits

    @cached_property
    def labels(self) -> frozenset[str]:
        return frozenset(label for label, _, _ in self.terms)

    def inverse(self) -> "Pulse":
        return self._inverse

    @cached_property
    def _inverse(self) -> "Pulse":
        return Pulse(tuple((l, -theta, h) for l, theta, h in self.terms))

    @classmethod
    def single(cls, label: str, theta: float, h: Hamiltonian) -> "Pulse":
        return cls(((label, theta, h),))


Item = Union[Pulse, "PulseSequence"]


@dataclass(frozen=True, eq=False, init=False)
class PulseSequence:
    """An ordered list of pulses; nested blocks memoize as units.

    ``items`` may mix pulses and sub-sequences (corrected blocks); the
    flattened pulse list is exposed as ``pulses``.  ``required_groups``
    lists label sets whose errors must resolve to one value at compile
    time.  Sequences are interned on their (already interned) items and
    groups, so a repeated block is one shared node of a DAG and a
    ``CompileCache`` key costs O(1).
    """

    items: tuple[Item, ...]
    required_groups: tuple[frozenset[str], ...] = ()

    def __new__(cls, items, required_groups=()) -> "PulseSequence":
        items = tuple(items)
        required_groups = tuple(required_groups)
        key = (items, required_groups)
        node = _SEQUENCES.get(key)
        if node is None:
            if not items:
                raise SequenceError("empty pulse sequence")
            sizes = {it.n_qubits for it in items}
            if len(sizes) > 1:
                raise SequenceError(f"mixed qubit counts in sequence: {sorted(sizes)}")
            node = object.__new__(cls)
            object.__setattr__(node, "items", items)
            object.__setattr__(node, "required_groups", required_groups)
            _SEQUENCES[key] = node
        return node

    def __reduce__(self):
        return (PulseSequence, (self.items, self.required_groups))

    @property
    def n_qubits(self) -> int:
        return self.items[0].n_qubits

    @cached_property
    def pulses(self) -> tuple[Pulse, ...]:
        out: list[Pulse] = []
        for it in self.items:
            if isinstance(it, Pulse):
                out.append(it)
            else:
                out.extend(it.pulses)
        return tuple(out)

    @cached_property
    def pulse_count(self) -> int:
        """Length of ``pulses``, summed over shared nodes without flattening."""
        return sum(1 if isinstance(it, Pulse) else it.pulse_count for it in self.items)

    @cached_property
    def labels(self) -> frozenset[str]:
        out: set[str] = set()
        for it in self.items:
            out |= it.labels
        return frozenset(out)

    @cached_property
    def _sorted_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.labels))

    def inverse(self) -> "PulseSequence":
        return self._inverse

    @cached_property
    def _inverse(self) -> "PulseSequence":
        return PulseSequence(
            tuple(it.inverse() for it in reversed(self.items)),
            required_groups=self.required_groups,
        )

    def dump(self) -> str:
        """One pulse per line: ``label theta hamiltonian-expression``."""
        lines = []
        for p in self.pulses:
            parts = [f"{l} {theta:.17g} {h}" for l, theta, h in p.terms]
            lines.append(" ; ".join(parts))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ErrorAssignment:
    """Map from control label to systematic error, with shared groups.

    Labels in one group share a single value; supplying conflicting values
    for grouped labels is rejected.  ``seed`` and ``signs`` record how a
    random-sign assignment was drawn.
    """

    values: Mapping[str, float]
    groups: tuple[frozenset[str], ...] = ()
    seed: Optional[int] = None
    signs: str = ""

    def __post_init__(self) -> None:
        resolved = dict(self.values)
        for label, val in resolved.items():
            if not math.isfinite(val):
                raise CompileError(f"non-finite error {val!r} for label {label!r}")
        for group in self.groups:
            assigned = {resolved[l] for l in group if l in resolved}
            if len(assigned) > 1:
                raise CompileError(
                    f"group {sorted(group)} has conflicting errors {sorted(assigned)}"
                )
            if assigned:
                val = assigned.pop()
                for l in group:
                    resolved[l] = val
        object.__setattr__(self, "values", resolved)

    def resolve(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            raise CompileError(f"no error assigned to label {label!r}") from None

    @classmethod
    def zero(cls, labels) -> "ErrorAssignment":
        return cls({l: 0.0 for l in labels})

    @classmethod
    def uniform(cls, labels, eps: float) -> "ErrorAssignment":
        return cls({l: eps for l in labels})


class CompileCache:
    """Memo for compiled pulses and nested blocks, keyed by node + errors.

    Nodes are interned, so a key hashes the node's identity, not its tree.
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def get(self, key):
        hit = self._store.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def put(self, key, value) -> None:
        self._store[key] = value


def _item_matrix(item: Item, columns: Mapping, cache: CompileCache) -> np.ndarray:
    """Matrix of an item; ``columns`` maps each label to its error, or at K >= 2
    points to the tuple of the points' errors, which gives a (K, d, d) stack."""
    if isinstance(item, Pulse):
        errs = tuple(columns[l] for l, _, _ in item.terms)
    else:
        errs = tuple(columns[l] for l in item._sorted_labels)
    key = (item, errs)
    mat = cache.get(key)
    if mat is not None:
        return mat
    if isinstance(item, Pulse):
        terms = [(theta, e, h) for (_, theta, h), e in zip(item.terms, errs)]
        mat = _evolve_stack(terms) if isinstance(errs[0], tuple) else evolve(terms).matrix
    else:
        mat = _identity(2**item.n_qubits, complex)
        for sub in item.items:
            mat = _item_matrix(sub, columns, cache) @ mat
    cache.put(key, mat)
    return mat


def _walk(seq: PulseSequence, points, cache: Optional[CompileCache]) -> np.ndarray:
    """Unchecked product of a sequence at K >= 1 assignments, each validated
    first: a (K, d, d) stack, (d, d) when K = 1."""
    for k, errors in enumerate(points):
        try:
            missing = seq.labels - errors.values.keys()
            if missing:
                raise CompileError(f"unassigned labels: {', '.join(sorted(missing))}")
            for group in seq.required_groups:
                vals = {errors.resolve(l) for l in group}
                if len(vals) > 1:
                    raise CompileError(
                        f"labels {sorted(group)} must share one error, got {sorted(vals)}"
                    )
        except CompileError as exc:
            exc.point = k
            raise
    if len(points) == 1:
        columns = points[0].values
    else:
        columns = {l: tuple([errors.values[l] for errors in points]) for l in seq.labels}
    return _item_matrix(seq, columns, CompileCache() if cache is None else cache)


def compile_stack(
    seq: PulseSequence,
    points,
    cache: Optional[CompileCache] = None,
) -> tuple[np.ndarray, float]:
    """Compile a sequence at K error assignments in one walk of its DAG.

    Returns the (K, d, d) stack, matrix k bit for bit ``compile_sequence``
    at ``points[k]``, and the worst unitarity defect among them; each is
    checked to 1e-10.  A node is compiled once per call for all K points
    and memoized under the node and, per label, the tuple of the points'
    errors (the error itself when K = 1, which compiles as
    ``compile_sequence`` does).  Every assignment is checked for
    unassigned labels and split groups before any is compiled; the
    CompileError's ``point`` is the index of the first at fault.
    """
    points = tuple(points)
    d = 2**seq.n_qubits
    if not points:
        return np.empty((0, d, d), dtype=complex), 0.0
    stack = _walk(seq, points, cache).reshape(len(points), d, d)
    return stack, check_unitary(stack)


def compile_sequence(
    seq: PulseSequence,
    errors: ErrorAssignment,
    cache: Optional[CompileCache] = None,
) -> Unitary:
    """Compile a sequence to a unitary; later pulses multiply on the left.

    The one-point case of ``compile_stack``: each distinct pulse is
    synthesized by ``evolve`` and each distinct block compiled once per
    call, memoized under the node and its labels' errors; pass a ``cache``
    to share compiled blocks across calls.
    """
    return Unitary(_walk(seq, (errors,), cache))


def phi_of(theta: float) -> float:
    """Correction-pulse angle acos(-theta / 4 pi)."""
    if not math.isfinite(theta):
        raise SequenceError(f"theta = {theta!r} is not finite")
    x = -theta / (4.0 * math.pi)
    if abs(x) > 1.0:
        raise SequenceError(f"|theta| = {abs(theta):g} exceeds 4*pi")
    return math.acos(x)


def _w_correction_items(
    phi: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> tuple[Pulse, Pulse, Pulse]:
    def tilted(scale: float, angle: float) -> Pulse:
        return Pulse(
            (
                (l1, scale * math.cos(angle), h1),
                (l2, scale * math.sin(angle), h2),
            )
        )

    outer = tilted(math.pi, phi)
    return (outer, tilted(2.0 * math.pi, 3.0 * phi), outer)


def w_correction(
    phi: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> PulseSequence:
    """The three simultaneous correction pulses alone (no main rotation)."""
    return PulseSequence(_w_correction_items(phi, h1, h2, l1, l2))


def _bb1_w_unchecked(
    theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> PulseSequence:
    phi = phi_of(theta)
    main = Pulse.single(l1, theta, h1)
    return PulseSequence((main, *_w_correction_items(phi, h1, h2, l1, l2)))


def _require_unit_su2(h1: Hamiltonian, h2: Hamiltonian, consequence: str) -> None:
    if unit_su2_partner(h1, h2) is None:
        raise SequenceError(
            f"({h1}) and ({h2}) do not close as su(2) with unit structure "
            f"constants; {consequence}"
        )


def bb1_w(
    theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> PulseSequence:
    """Four-pulse broadband sequence using simultaneous tilted-axis pulses.

    Requires the pair to close as su(2) with unit structure constants, so
    each simultaneous pulse is a rotation and the pi/2pi/pi correction
    collapses to the identity at zero error.  Compensates a shared
    (correlated) error on both controls to second order.
    """
    _require_unit_su2(h1, h2, "simultaneous correction pulses would not be rotations")
    return _bb1_w_unchecked(theta, h1, h2, l1, l2)


def bb1_j(
    theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> PulseSequence:
    """Ten-pulse conjugation-based sequence using only the two controls.

    Tilted axes are produced by conjugating H1 pulses with H2 rotations.
    Exact for any H2 error when the H1 error vanishes; compensates the H1
    error to second order when H2 is error free.
    """
    _require_unit_su2(h1, h2, "conjugation would not tilt the rotation axis")
    phi = phi_of(theta)

    def block(scale: float, tilt: float) -> tuple[Pulse, ...]:
        return (
            Pulse.single(l2, -tilt, h2),
            Pulse.single(l1, scale * math.pi, h1),
            Pulse.single(l2, tilt, h2),
        )

    return PulseSequence(
        (
            Pulse.single(l1, theta, h1),
            *block(1.0, phi),
            *block(2.0, 3.0 * phi),
            *block(1.0, phi),
        )
    )


# Largest distance, up to global phase, of a replacement from its pulse at zero error.
_CHECK_TOL = 1e-10

# Compile cache for the self-checks of the substitution being built.
_CHECK_CACHE: ContextVar[Optional[CompileCache]] = ContextVar("_CHECK_CACHE", default=None)


def substitute(
    seq: PulseSequence,
    label: str,
    builder: Callable[[float], PulseSequence],
) -> PulseSequence:
    """Replace every pulse carrying ``label`` by a corrected block.

    The builder maps a target angle to a replacement sequence; pulses with
    negative angles receive the reversed, angle-negated block.  Each
    distinct angle's replacement is verified once against the pulse's
    ideal action at zero error (up to global phase).  The checks of one
    top-level call, including those of substitutions its builder makes,
    share one compile cache, so a block's check reuses the zero-error
    matrices of its already-checked sub-blocks.
    """
    if _CHECK_CACHE.get() is not None:
        return _substitute(seq, label, builder)
    token = _CHECK_CACHE.set(CompileCache())
    try:
        return _substitute(seq, label, builder)
    finally:
        _CHECK_CACHE.reset(token)


def _substitute(
    seq: PulseSequence,
    label: str,
    builder: Callable[[float], PulseSequence],
) -> PulseSequence:
    checked: dict[float, PulseSequence] = {}
    groups: list[frozenset[str]] = list(seq.required_groups)

    def replacement(pulse: Pulse) -> PulseSequence:
        (_, theta, h) = pulse.terms[0]
        mag = abs(theta)
        if mag not in checked:
            block = builder(mag)
            ideal = compile_sequence(
                block, ErrorAssignment.zero(block.labels), _CHECK_CACHE.get()
            )
            target = evolve([(mag, 0.0, h)])
            mismatch = distance(target, ideal, align_phase=True)
            if mismatch > _CHECK_TOL:
                raise SequenceError(
                    f"replacement for {label!r} at angle {mag:g} deviates from "
                    f"the ideal pulse by {mismatch:.3e}"
                )
            checked[mag] = block
            for g in block.required_groups:
                if g not in groups:
                    groups.append(g)
        block = checked[mag]
        return block if theta >= 0 else block.inverse()

    def walk(item: Item) -> Item:
        if isinstance(item, Pulse):
            if label not in item.labels:
                return item
            if len(item.terms) > 1:
                raise SequenceError(
                    f"label {label!r} appears in a simultaneous pulse; only "
                    "single-term pulses can be substituted"
                )
            return replacement(item)
        return PulseSequence(
            tuple(walk(sub) for sub in item.items),
            required_groups=item.required_groups,
        )

    items = tuple(walk(it) for it in seq.items)
    return PulseSequence(items, required_groups=tuple(groups))


def _nested_j(h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str, inner):
    """The builder x -> bb1_j(x, h1, h2, l1, l2) with its l2 pulses replaced by ``inner``."""
    return lambda x: substitute(bb1_j(x, h1, h2, l1, l2), l2, inner)


def bb1_wj(
    theta: float,
    h1: Hamiltonian,
    h2: Hamiltonian,
    h4: Hamiltonian,
    l1: str,
    l2: str,
    l4: str,
) -> PulseSequence:
    """BB1-J skeleton whose six tilt pulses are corrected blocks.

    Each H2 tilt pulse of the conjugation sequence is replaced by the
    four-pulse simultaneous sequence built from H2 and H4 (inverse tilts
    get the reversed, negated block), correcting the correlated H2/H4
    error before the independent H1 error.  The labels l2 and l4 must
    resolve to one shared error at compile time.
    """
    out = _nested_j(h1, h2, l1, l2, lambda x: bb1_w(x, h2, h4, l2, l4))(theta)
    return PulseSequence(out.items, required_groups=(frozenset({l2, l4}),))


def _chain_hamiltonians(n: int) -> dict[str, Hamiltonian]:
    """The n-qubit chain's controls by label: X_j, then Y_1, then Z_jZ_{j+1}."""
    if n < 1:
        raise SequenceError(f"chain length must be >= 1, got {n}")

    def control(positions: dict[int, str]) -> Hamiltonian:
        return Hamiltonian.single(0.5, "".join(positions.get(k, "I") for k in range(1, n + 1)))

    controls = {f"X{j}": control({j: "X"}) for j in range(1, n + 1)}
    controls["Y1"] = control({1: "Y"})
    controls.update({f"ZZ{j}{j + 1}": control({j: "Z", j + 1: "Z"}) for j in range(1, n)})
    return controls


def chain_labels(n: int) -> list[str]:
    """Control labels used by the n-qubit chain: X_j, Y_1 and Z_jZ_{j+1}."""
    return list(_chain_hamiltonians(n))


def wj_chain(n: int, theta: float) -> PulseSequence:
    """Corrected X rotation on qubit n of an Ising chain.

    Level 0 corrects X_1 with the simultaneous (X_1, Y_1) sequence; each
    further level is a conjugation sequence whose tilt pulses are the
    previous level's corrected block, alternating Z_jZ_{j+1} and X_{j+1}
    until X_n.  Pulse count follows L_k = 4 + 6 L_{k-1} over 2(n-1)
    levels.
    """
    h = _chain_hamiltonians(n)
    builder = lambda x: bb1_w(x, h["X1"], h["Y1"], "X1", "Y1")
    for j in range(1, n):
        x, x_next, zz = f"X{j}", f"X{j + 1}", f"ZZ{j}{j + 1}"
        corrected_zz = _nested_j(h[zz], h[x], zz, x, builder)
        builder = _nested_j(h[x_next], h[zz], x_next, zz, corrected_zz)
    return builder(theta)
