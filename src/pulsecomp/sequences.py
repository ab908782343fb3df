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
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Optional, Union
from weakref import WeakValueDictionary

import numpy as np

from . import unitary
from .pauli import Hamiltonian, unit_su2_partner
from .unitary import Unitary, _identity, _synthesis, check_unitary, distance, evolve


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


def _finite_real(value) -> bool:
    """Whether value is a real, non-boolean number that is finite as a float."""
    # a float skips the numbers.Real test, which costs far more than the rest
    if type(value) is not float and (
        isinstance(value, bool) or not isinstance(value, numbers.Real)
    ):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int or Fraction too large for a float
        return False


def _require_finite_theta(theta) -> None:
    """Raise a SequenceError naming theta unless it is a finite real, non-boolean number."""
    if not _finite_real(theta):
        raise SequenceError(f"theta = {theta!r} is not finite or not a real number")


def _finite(value, noun: str, label: str, error: type) -> float:
    """float(value) for a real, non-boolean, finite number under a label string; else ``error``."""
    if not isinstance(label, str):
        raise error(f"label {label!r} is not a string")
    if not _finite_real(value):
        raise error(f"{noun} {value!r} for label {label!r} is not a finite real number")
    return float(value)


def _iterable(values, what: str, error: type = SequenceError):
    """An iterator over values, which may not be a string; else ``error`` naming them."""
    if not isinstance(values, str):
        try:
            return iter(values)
        except TypeError:
            pass
    raise error(f"{what} {values!r} is not a collection")


def _term(term) -> tuple[str, float, Hamiltonian]:
    """A pulse term as (label string, float angle, Hamiltonian); else a SequenceError naming it."""
    try:
        l, theta, h = term
    except (TypeError, ValueError):  # not iterable, or not three values
        raise SequenceError(f"term {term!r} is not a (label, angle, Hamiltonian) triple") from None
    theta = _finite(theta, "angle", l, SequenceError)
    if not isinstance(h, Hamiltonian):
        raise SequenceError(f"term {h!r} for label {l!r} is not a Hamiltonian")
    return l, theta, h


def _group(group, error: type) -> frozenset[str]:
    """A group of labels as a frozenset of label strings; else ``error`` naming it."""
    if not isinstance(group, str):
        try:
            labels = frozenset(group)
        except TypeError:  # not iterable, or an unhashable member
            labels = None
        if labels is not None and all(isinstance(l, str) for l in labels):
            return labels
    raise error(f"group {group!r} is not a collection of label strings")


@dataclass(frozen=True, eq=False, init=False)
class Pulse:
    """Simultaneous application of labeled Hamiltonian terms.

    Each term is (label string, finite real theta, ``Hamiltonian``); the
    label's systematic error multiplies theta at compile time.  Pulses are
    interned: building one whose terms equal a live pulse's (angles
    compared bit for bit, so 0.0 and -0.0 differ) returns that pulse.
    """

    terms: tuple[tuple[str, float, Hamiltonian], ...]

    def __new__(cls, terms) -> "Pulse":
        terms = tuple(map(_term, _iterable(terms, "pulse terms")))
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
    time, each kept as a frozenset of label strings (a string, as a group
    or as the collection of groups, is rejected, not split into
    characters).  Sequences are interned on the
    ids of their (already interned) items and on their groups, so a
    repeated block is one shared node of a DAG and a ``CompileCache`` key
    costs O(1).
    """

    items: tuple[Item, ...]
    required_groups: tuple[frozenset[str], ...] = ()

    def __new__(cls, items, required_groups=()) -> "PulseSequence":
        items = tuple(_iterable(items, "sequence items"))
        required_groups = tuple(
            [_group(g, SequenceError) for g in _iterable(required_groups, "required groups")]
        )
        # Keyed on the items' ids: the live node holds its items, so their
        # ids stay theirs, and a key that held them would keep a dropped
        # DAG's children alive until a later collection freed their parent.
        key = (tuple(map(id, items)), required_groups)
        node = _SEQUENCES.get(key)
        if node is None:
            if not items:
                raise SequenceError("empty pulse sequence")
            for it in items:
                if not isinstance(it, (Pulse, PulseSequence)):
                    raise SequenceError(f"item {it!r} is neither a Pulse nor a PulseSequence")
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

    @cached_property
    def _dag(self) -> tuple:
        """(nodes, children): the distinct nodes in post-order, this one last, and
        each node's items as indices into ``nodes`` (a pulse has none)."""
        order: dict = {}  # node -> its index in post-order
        children = []

        def visit(item: Item) -> int:
            if item not in order:
                kids = () if isinstance(item, Pulse) else tuple([visit(sub) for sub in item.items])
                children.append(kids)
                order[item] = len(order)
            return order[item]

        visit(self)
        return tuple(order), children

    @cached_property
    def _program(self) -> tuple:
        """The compile walk's fixed structure: (nodes, keys, children, schedule, levels).

        ``nodes`` are ``_dag``'s, laid out in the slots of the walk's node
        array: the pulses grouped by their tuple of Hamiltonians (a
        synthesis plan), plans in order of their pulse count, most first,
        then the blocks level by level, lowest first; within a plan or a
        level in post-order, so the root is last.  ``children`` holds
        each node's items as slots (a pulse has none), and a node's
        ``keys`` index its labels in ``_sorted_labels`` (a pulse's in term
        order, a block's sorted).  ``schedule`` is (plans, angles, terms):
        two flat term arrays, the pulses' terms one after another in slot
        order, ``angles`` their angles and ``terms`` their label indices,
        and one (hams, run, span) per plan: its T Hamiltonians, the range
        of its pulses' slots and the slice of their terms in the flat
        arrays.  ``levels`` holds (k, run, kids) for the blocks of one
        height and k children (a pulse has height 0, a block one more than
        its highest child), in order of increasing height, so every block
        of a level can be multiplied once the levels below it are: the
        range of their slots and their children's slots as a (blocks, k)
        array.  The root, higher than every other node, is the last
        level's only block.  Derived on the first compile and kept while
        the node lives; the synthesis plans stay in ``_synthesis``'s
        cache, looked up per compile.
        """
        dag, items = self._dag
        plans, heights, levels = {}, [], {}
        for i, node in enumerate(dag):
            if items[i]:
                heights.append(1 + max(map(heights.__getitem__, items[i])))
                levels.setdefault((heights[i], len(items[i])), []).append(i)
            else:
                heights.append(0)
                plans.setdefault(tuple([h for _, _, h in node.terms]), []).append(i)
        plans = sorted(plans.items(), key=lambda plan: -len(plan[1]))
        levels = sorted(levels.items())
        order = [i for _, run in plans + levels for i in run]
        slot = dict(zip(order, range(len(order))))  # post-order index -> slot
        nodes = tuple([dag[i] for i in order])
        children = [tuple([slot[c] for c in items[i]]) for i in order]
        place = {l: j for j, l in enumerate(self._sorted_labels)}
        keys = []
        for node, kids in zip(nodes, children):
            labels = node._sorted_labels if kids else [l for l, _, _ in node.terms]
            keys.append(tuple([place[l] for l in labels]))
        angles, terms, lo = [], [], 0
        for p, (hams, pulses) in enumerate(plans):
            run = range(lo, lo + len(pulses))
            plans[p] = (hams, run, slice(len(angles), len(angles) + len(run) * len(hams)))
            for s in run:
                angles += [theta for _, theta, _ in nodes[s].terms]
                terms += keys[s]
            lo = run.stop
        for j, ((_, k), blocks) in enumerate(levels):
            run = range(lo, lo + len(blocks))
            levels[j] = (k, run, np.array(children[run.start : run.stop]))
            lo = run.stop
        schedule = (tuple(plans), np.array(angles), np.array(terms))
        return nodes, keys, children, schedule, tuple(levels)

    @cached_property
    def _proved(self) -> set:
        """The (angle, Hamiltonian) pulses this block passed ``substitute``'s check against.

        Kept while the node lives; a failed check adds nothing.
        """
        return set()

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
    """Map from control label (a string) to systematic error, with shared groups.

    ``values`` is a mapping of labels to errors, or (label, error) pairs.
    Labels in one group share a single value; supplying conflicting values
    for grouped labels, or pairs that give one label two values, is
    rejected.  Values are kept as floats and each
    group as a frozenset of label strings (a string, as a group or as
    ``groups``, is rejected).
    ``seed`` and ``signs`` record how a random-sign assignment was drawn.
    """

    values: Mapping[str, float]
    groups: tuple[frozenset[str], ...] = ()
    seed: Optional[int] = None
    signs: str = ""

    def __post_init__(self) -> None:
        values = self.values
        try:
            if isinstance(values, str):  # dict("") is empty, dict("ab") a bare ValueError
                raise TypeError
            if not isinstance(values, dict) and not hasattr(values, "keys"):
                values = list(values)  # (label, error) pairs: dict takes a mapping by its keys
            resolved = dict(values)
        except (TypeError, ValueError):  # neither a mapping nor pairs
            raise CompileError(f"errors {self.values!r} are not a mapping of labels") from None
        resolved = {l: _finite(v, "error", l, CompileError) for l, v in resolved.items()}
        if type(values) is list and len(values) > len(resolved):  # dict kept a label's last pair
            for label, value in values:
                if _finite(value, "error", label, CompileError) != resolved[label]:
                    given = {_finite(v, "error", l, CompileError) for l, v in values if l == label}
                    raise CompileError(f"label {label!r} has conflicting errors {sorted(given)}")
        groups = tuple(
            [_group(g, CompileError) for g in _iterable(self.groups, "groups", CompileError)]
        )
        for group in groups:
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
        object.__setattr__(self, "groups", groups)

    def resolve(self, label: str) -> float:
        try:
            return self.values[label]
        except KeyError:
            raise CompileError(f"no error assigned to label {label!r}") from None

    @classmethod
    def zero(cls, labels) -> "ErrorAssignment":
        return cls.uniform(labels, 0.0)

    @classmethod
    def uniform(cls, labels, eps: float) -> "ErrorAssignment":
        """eps for every label of a collection; a lone string is rejected, not split."""
        if isinstance(labels, str):
            raise CompileError(f"labels must be a collection of labels, not the string {labels!r}")
        return cls({l: eps for l in _iterable(labels, "labels", CompileError)})


class CompileCache:
    """Memo for compiled sequences across compiles, keyed by (sequence, errors).

    The errors are those of the sequence's labels, in sorted order, each
    as the one-tuple of its value.  Sequences are interned, so a key hashes
    the sequence's identity, not its tree.  A ``compile_sequence`` with a
    cache asks it about the sequence at its errors once; on a miss it
    computes the sequence and puts it.  Nothing below the root is asked
    or put, so only repeated assignments hit.  A ``substitute``
    self-check applies the same rule to each block item of a block it
    computes (``_check_product``).
    """

    def __init__(self) -> None:
        self._store: dict = {}

    def get(self, key):
        return self._store.get(key)

    def put(self, key, value) -> None:
        self._store[key] = value


def _product(mats: list, d: int) -> np.ndarray:
    """mats[-1] @ ... @ mats[0]: later items on the left, from the identity.

    Each item is a (d, d) matrix or a stack of them, multiplied slice by slice.
    """
    out = _identity(d, complex)
    for m in mats:
        out = m @ out
    return out


def _require_assigned(seq: PulseSequence, points) -> None:
    """Raise a CompileError, its ``point`` set, at the first of the points
    that is not an ErrorAssignment, leaves a label of seq unassigned or
    splits one of its required groups."""
    for k, errors in enumerate(points):
        try:
            if not isinstance(errors, ErrorAssignment):
                raise CompileError(f"point {k}, {errors!r}, is not an ErrorAssignment")
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


def _distinct_rows(rows: np.ndarray) -> tuple:
    """The distinct rows of an (R, T) array: (distinct, index), the distinct
    rows in sorted order as one (D, T) array and the (R,) positions of the
    rows in it.

    Rows equal as floats are one row, 0.0 and -0.0 alike: a zero scale of
    either sign synthesizes to the same bits.
    """
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    index = np.empty(len(order), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return rows[new], index


def _walk(seq: PulseSequence, points) -> np.ndarray:
    """Unchecked product of a sequence at K >= 1 assignments, which the caller
    has validated: (d, d) when every label's errors agree at all K points,
    else a (K, d, d) stack.

    Runs the sequence's ``_program`` (derived once per interned sequence
    and kept while it lives) without recursion, and sees no cache: every
    node is computed.  Each node whose labels' errors agree at every point
    (every node when K = 1) is computed at that one point, into its slot
    of one preallocated (N, d, d) node array (none when every node
    varies); only a varying block's (K, d, d) stack is kept apart, in a
    dict.  The scales theta(1+eps) of
    all terms are one numpy product of the angles and the factors 1+eps
    indexed by the terms' labels: one column when every label's errors
    agree at all points, else K.  Each synthesis plan, looked up once per
    call in ``_synthesis``'s 256-entry lru, takes its pulses' rows from
    its span: with one column each pulse's row, with K the distinct rows
    among all of them (``_distinct_rows``; 0.0 and -0.0 agree, as they
    give equal scales).  All plans are then synthesized and checked
    unitary in one ``_synthesize`` pass, largest first: with one column
    straight into the plans' runs of the node array; with K into one
    stack, from which a varying pulse's K matrices are gathered wherever
    it is used, so the stack is their only copy, and any other pulse takes
    its one row's matrix into its slot.  The blocks are multiplied level by level
    (``_program``'s levels, lowest first).  A varying block is multiplied
    alone over the K points.  The constant blocks of a level are
    multiplied in chunks: one fancy index gathers a chunk's children from
    the node array into one (B, k, d, d) stack, which with the two running
    (B, d, d) products holds at most _CHUNK_ENTRIES entries, and
    ``_product`` multiplies the B blocks at once, one child position at a
    time; a chunk of fewer than three blocks is multiplied one block at a
    time.  A stacked matmul is the 2-D matmul of each slice bit for bit,
    so either way a block's bits are its own ``_product``'s.  The root's
    product is returned as its own array, never a view of the node array.
    If synthesis fails, the walk alone decides what is raised: it
    synthesizes and checks each pulse alone in post-order, at every
    point, so the first pulse that cannot be synthesized raises its own
    error at its first such point.
    """
    nodes, keys, children, (plans, angles, terms), levels = seq._program
    columns = [tuple([errors.values[l] for errors in points]) for l in seq._sorted_labels]
    varying = [col.count(col[0]) < len(col) for col in columns]
    vary = any(varying)
    varies = [any(map(varying.__getitem__, key)) for key in keys] if vary else []
    d = 2**seq.n_qubits
    # a constant node's matrix in its slot; no array when every node varies
    store = np.empty((0 if vary and all(varies) else len(nodes), d, d), dtype=complex)
    stacks: dict = {}  # slot -> the (K, d, d) stack of a block whose errors vary
    picks: dict = {}  # slot -> the K positions in the synthesized rows u of a varying pulse

    def matrix(i: int) -> np.ndarray:
        if i in stacks:
            return stacks[i]
        return u[picks[i]] if i in picks else store[i]

    # 1 + eps per label: (labels,) when every label's errors agree at all points, else (labels, K)
    factors = 1.0 + np.array(columns if vary else [col[0] for col in columns])
    # as Python floats, theta (1 + eps) overflows to inf silently
    with np.errstate(over="ignore"):
        scales = (angles * factors[terms].T).T  # (terms,) or (terms, K)
    try:
        if not vary:  # the plans' runs are the first slots, largest plan first
            jobs = [(_synthesis(h), scales[span].reshape(len(run), -1)) for h, run, span in plans]
            unitary._synthesize(jobs, store)
        else:
            found = []  # (plan, distinct rows, run, (pulses, K) positions in the rows)
            for hams, run, span in plans:
                rows = scales[span].reshape(len(run), len(hams), -1).swapaxes(1, 2)
                rows, index = _distinct_rows(rows.reshape(-1, len(hams)))
                found.append((_synthesis(hams), rows, run, index.reshape(len(run), -1)))
            found.sort(key=lambda job: -len(job[1]))
            u = np.empty((sum(len(rows) for _, rows, _, _ in found), d, d), dtype=complex)
            unitary._synthesize([(plan, rows) for plan, rows, _, _ in found], u)
            lo = 0
            for _, rows, run, index in found:
                for i, row in zip(run, index + lo):
                    if varies[i]:
                        picks[i] = row  # gathered where used, so u is the only copy
                    else:
                        store[i] = u[row[0]]
                lo += len(rows)
    except ValueError:
        # raise what synthesizing and checking each pulse alone raises first, in post-order
        slots = {node: i for i, node in enumerate(nodes)}
        for i in map(slots.__getitem__, seq._dag[0]):
            for hams, run, span in plans:
                if i in run:  # the pulse's (T, 1) or (T, K) scales
                    rows = scales[span].reshape(len(run), len(hams), -1)[i - run.start]
                    plan = _synthesis(hams)
                    check_unitary(np.stack([plan.unitary(row) for row in rows.T.tolist()]))
        raise
    for k, run, kids in levels[:-1]:
        constant = range(len(run))  # positions in the level of its blocks whose errors agree
        if vary:
            constant = []
            for j, i in enumerate(run):
                if varies[i]:
                    stacks[i] = _product([matrix(c) for c in children[i]], d)
                else:
                    constant.append(j)
        # blocks per chunk: their k children and the two running products fit the budget
        step = max(unitary._CHUNK_ENTRIES // ((k + 2) * d * d), 1)
        for lo in range(0, len(constant), step):
            part = constant[lo : lo + step]
            if len(part) < 3:  # a stack of two saves less than its gather costs
                for j in part:
                    store[run[j]] = _product([store[c] for c in children[run[j]]], d)
                continue
            if not vary:  # a contiguous run of the level
                part = slice(part.start, part.stop)
            m = store[kids[part]]
            store[run.start : run.stop][part] = _product([m[:, j] for j in range(k)], d)
    return _product([matrix(c) for c in children[-1]], d)


def _require_sequence(seq) -> None:
    """Raise a CompileError naming seq unless it is a PulseSequence."""
    if not isinstance(seq, PulseSequence):
        raise CompileError(f"{seq!r} is not a PulseSequence")


def compile_stack(seq: PulseSequence, points) -> tuple[np.ndarray, float]:
    """Compile a sequence at K error assignments in one walk of its DAG.

    Returns the (K, d, d) stack, matrix k bit for bit ``compile_sequence``
    at ``points[k]``, and the worst unitarity defect among them; each is
    checked to 1e-10.  Each distinct node is compiled once for all K
    points: the walk forms the scales of all terms and points from the
    program's arrays, each plan synthesizes the distinct rows among its
    pulses' rows at all points in one call, each once, and a node whose
    errors agree at every point is compiled at one point.  ``seq`` must be
    a ``PulseSequence``, ``points`` a collection, and every assignment an
    ``ErrorAssignment`` with no unassigned label or split group, all
    checked before anything is compiled; the CompileError's ``point`` is
    the index of the first at fault.
    """
    _require_sequence(seq)
    points = tuple(_iterable(points, "points", CompileError))
    d = 2**seq.n_qubits
    if not points:
        return np.empty((0, d, d), dtype=complex), 0.0
    _require_assigned(seq, points)
    mat = _walk(seq, points)
    defect = check_unitary(mat)
    return (mat if mat.ndim == 3 else np.repeat(mat[None], len(points), axis=0)), defect


def _cached(cache: CompileCache, block: PulseSequence, values, compute) -> np.ndarray:
    """block's matrix at values from the cache; on a miss, compute(block), put."""
    key = (block, tuple([(values[l],) for l in block._sorted_labels]))
    mat = cache.get(key)
    if mat is None:
        mat = compute(block)
        cache.put(key, mat)
    return mat


def compile_sequence(
    seq: PulseSequence,
    errors: ErrorAssignment,
    cache: Optional[CompileCache] = None,
) -> Unitary:
    """Compile a sequence to a unitary; later pulses multiply on the left.

    The one-point case of ``compile_stack``: each distinct node is compiled
    once per call, and each synthesis plan synthesizes the rows of its
    pulses in one call.  Pass a ``cache`` (a ``CompileCache``) to keep
    whole compiles across calls: the sequence at these errors is looked
    up, and on a miss it is compiled without the cache and put.  A
    ``substitute`` self-check compile, which shares the running
    substitution's cache, computes a miss by ``_check_product`` instead,
    to the same bits, without deriving a program.  A sequence, cache or
    errors of the wrong type raise a CompileError before anything is
    compiled.
    """
    _require_sequence(seq)
    if cache is not None and not isinstance(cache, CompileCache):
        raise CompileError(f"cache {cache!r} is not a CompileCache")
    points = (errors,)
    _require_assigned(seq, points)
    if cache is None:
        return Unitary(_walk(seq, points))
    if cache is _CHECK_CACHE.get():
        compute = lambda block: _check_product(block, errors.values, cache)
    else:
        compute = lambda block: _walk(block, points)
    return Unitary(_cached(cache, seq, errors.values, compute))


def _check_product(seq: PulseSequence, values, cache: CompileCache) -> np.ndarray:
    """A ``substitute`` self-check's compile: the walk's one-point product,
    by recursion, with no program derived.

    The block is multiplied from its items by ``_product``: each distinct
    pulse item synthesized once by ``evolve``, each distinct block item
    looked up in the cache and, on a miss, multiplied by the same rule
    and put.  So the cache sees the recursion's traffic: the items of
    each block it lacks, once each, never below a hit (the caller asks
    about the root and puts it).  Each block's bits are the walk's, which
    multiplies it by ``_product`` too, alone or in a level stack (a
    stacked matmul is the 2-D matmul of each slice bit for bit).  A pulse
    that cannot be synthesized raises its own error, first in post-order
    as in the walk's replay: a pulse under a hit block was synthesized
    before.
    """
    mats: dict = {}  # node -> its matrix

    def product(block: PulseSequence) -> np.ndarray:
        for it in block.items:
            if it not in mats:
                if isinstance(it, Pulse):
                    mats[it] = evolve([(theta, values[l], h) for l, theta, h in it.terms]).matrix
                else:
                    mats[it] = _cached(cache, it, values, product)
        return _product([mats[it] for it in block.items], 2**block.n_qubits)

    return product(seq)


def phi_of(theta: float) -> float:
    """Correction-pulse angle acos(-theta / 4 pi) for a finite real, non-boolean theta."""
    _require_finite_theta(theta)
    x = -theta / (4.0 * math.pi)
    if abs(x) > 1.0:
        raise SequenceError(f"|theta| = {abs(theta):g} exceeds 4*pi")
    return math.acos(x)


# A single-qubit composite pulse is a tuple of (angle, phase) rows in time order: a rotation
# by angle about the xy-plane axis at phase, or (phase None) the bare rotation it corrects.


def _bb1_correction(phi: float) -> tuple:
    """BB1's correction rows (Wimperis, J. Magn. Reson. A 109, 221 (1994))."""
    return ((math.pi, phi), (2.0 * math.pi, 3.0 * phi), (math.pi, phi))


def _bb1_rows(theta: float) -> tuple:
    """BB1 for theta: the bare rotation, then its correction at phi_of(theta)."""
    return ((theta, None), *_bb1_correction(phi_of(theta)))


def lift_w(rows, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str) -> PulseSequence:
    """Rows as simultaneous pulses: (a, p) is (l1: a cos p, l2: a sin p); su(2) unchecked."""
    items: list[Pulse] = []
    for a, p in rows:
        if p is None:
            items.append(Pulse.single(l1, a, h1))
        else:
            a, p = _finite(a, "angle", l1, SequenceError), _finite(p, "phase", l2, SequenceError)
            items.append(Pulse(((l1, a * math.cos(p), h1), (l2, a * math.sin(p), h2))))
    return PulseSequence(items)


def lift_j(rows, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str) -> PulseSequence:
    """Rows as conjugated pulses: (a, p) is l2: -p, l1: a, l2: p; su(2) unchecked."""
    items: list[Pulse] = []
    for a, p in rows:
        bare = Pulse.single(l1, a, h1)
        tilt = None if p is None else Pulse.single(l2, p, h2)
        items += (bare,) if tilt is None else (tilt.inverse(), bare, tilt)
    return PulseSequence(items)


def w_correction(phi: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str) -> PulseSequence:
    """The three simultaneous correction pulses alone (no main rotation)."""
    return lift_w(_bb1_correction(phi), h1, h2, l1, l2)


def _bb1_w_unchecked(
    theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str
) -> PulseSequence:
    return lift_w(_bb1_rows(theta), h1, h2, l1, l2)


@lru_cache(maxsize=256)
def _closes_unit_su2(h1: Hamiltonian, h2: Hamiltonian) -> bool:
    """Whether the pair closes as su(2) with unit structure constants, once per pair."""
    return unit_su2_partner(h1, h2) is not None


def _require_unit_su2(h1: Hamiltonian, h2: Hamiltonian, consequence: str) -> None:
    for h in (h1, h2):
        if not isinstance(h, Hamiltonian):
            raise SequenceError(f"control {h!r} is not a Hamiltonian")
    if not _closes_unit_su2(h1, h2):
        raise SequenceError(
            f"({h1}) and ({h2}) do not close as su(2) with unit structure "
            f"constants; {consequence}"
        )


def bb1_w(theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str) -> PulseSequence:
    """BB1 lifted to four simultaneous pulses (``lift_w``).

    Requires the pair to close as su(2) with unit structure constants, so
    each pulse is a rotation and the correction collapses to the identity
    at zero error.  Compensates a shared (correlated) error on both
    controls to second order.
    """
    _require_unit_su2(h1, h2, "simultaneous correction pulses would not be rotations")
    return _bb1_w_unchecked(theta, h1, h2, l1, l2)


def bb1_j(theta: float, h1: Hamiltonian, h2: Hamiltonian, l1: str, l2: str) -> PulseSequence:
    """BB1 lifted to ten pulses of the two controls alone (``lift_j``).

    Exact for any H2 error when the H1 error vanishes; compensates the H1
    error to second order when H2 is error free.
    """
    _require_unit_su2(h1, h2, "conjugation would not tilt the rotation axis")
    return lift_j(_bb1_rows(theta), h1, h2, l1, l2)


# Largest distance, up to global phase, of a replacement from its pulse at zero error.
_CHECK_TOL = 1e-10

# Compile cache for the self-checks of the substitution being built.
_CHECK_CACHE: ContextVar[Optional[CompileCache]] = ContextVar("_CHECK_CACHE", default=None)


def substitute(
    seq: PulseSequence,
    label: str,
    builder: Callable[[float], PulseSequence],
) -> PulseSequence:
    """Replace every pulse carrying ``label`` by a corrected block, rewriting
    each distinct node of the sequence's DAG once, so the cost follows the
    distinct nodes, not the flattened pulse count.

    The builder maps a target angle to a replacement sequence; pulses with
    negative angles receive the reversed, angle-negated block.  Each
    distinct (angle, Hamiltonian) pulse's replacement is verified once
    against its ideal action at zero error: its distance up to global
    phase must be at most _CHECK_TOL, which the Frobenius norm decides
    wherever it settles it (``unitary._spectral_norm_side``).  An interned
    block that passed against an (angle, Hamiltonian) is not checked
    against it again while it lives; a failed check is not recorded.
    The checks of one top-level call, including those of
    substitutions its builder makes, share one compile cache, so a block's
    check reuses the zero-error matrices of its already-checked sub-blocks.
    """
    if not isinstance(seq, PulseSequence):
        raise SequenceError(f"{seq!r} is not a PulseSequence")
    if not isinstance(label, str):
        raise SequenceError(f"label {label!r} is not a string")
    cache = _CHECK_CACHE.get()
    token = _CHECK_CACHE.set(cache := CompileCache()) if cache is None else None
    try:
        checked: dict[tuple[float, Hamiltonian], PulseSequence] = {}
        groups = list(seq.required_groups)
        nodes, children = seq._dag
        out: list[Item] = []  # each node's rewrite, by its index in post-order
        for node, kids in zip(nodes[:-1], children):  # the root is rebuilt after the loop
            if label not in node.labels:
                out.append(node)
            elif kids:
                out.append(PulseSequence([out[c] for c in kids], node.required_groups))
            elif len(node.terms) > 1:
                raise SequenceError(
                    f"label {label!r} appears in a simultaneous pulse; only "
                    "single-term pulses can be substituted"
                )
            else:
                (_, theta, h) = node.terms[0]
                mag = abs(theta)
                key = (mag, h)
                if key not in checked:
                    block = builder(mag)
                    if not isinstance(block, PulseSequence) or block.n_qubits != h.n_qubits:
                        raise SequenceError(
                            f"builder for {label!r} at angle {mag:g} returned {block!r}, "
                            f"not a {h.n_qubits}-qubit PulseSequence"
                        )
                    if key not in block._proved:
                        ideal = compile_sequence(block, ErrorAssignment.zero(block.labels), cache)
                        pulse = evolve([(mag, 0.0, h)])
                        diff = unitary._difference(pulse, ideal, align_phase=True)
                        if unitary._spectral_norm_side(diff, _CHECK_TOL) > _CHECK_TOL:
                            raise SequenceError(
                                f"replacement for {label!r} at angle {mag:g} deviates from the "
                                f"ideal pulse by {distance(pulse, ideal, align_phase=True):.3e}"
                            )
                        block._proved.add(key)
                    checked[key] = block
                    groups += [g for g in dict.fromkeys(block.required_groups) if g not in groups]
                out.append(checked[key] if theta >= 0 else checked[key].inverse())
        return PulseSequence([out[c] for c in children[-1]], tuple(groups))
    finally:
        if token is not None:
            _CHECK_CACHE.reset(token)


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
    # numbers.Integral admits numpy ints; a bool is an int to Python but not a length
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise SequenceError(f"chain length n must be an integer >= 1, got {n!r}")

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
