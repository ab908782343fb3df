"""Spans and counters recorded from outside pulsecomp.

The recorder wraps public functions of each pulsecomp module and times every
call.  ``from .unitary import evolve`` binds a separate name in each module,
so a function is patched under every module attribute that refers to it;
otherwise calls made by builders, sweeps and the CLI would be missed.

Every time is CPU time of this process (``CLOCK``): the benchmark runs one
thread, so on an idle machine it equals wall time, and it does not count
the time the process waits while the host runs something else.

Spans are kept in memory aggregated per (name, parent name): calls, total
time and self time, where self time is the span's duration minus the time
covered by its child spans.  Work done by the recorder itself after a call
(hooks) is charged to no span.

Two modes:

* probe (``trace=False``): only the sequence builders are wrapped, so
  ``build_cpu_s`` can be measured inside CLI commands at negligible cost.  This
  is the mode of the end-to-end runs.
* trace (``trace=True``): every layer below is wrapped, plus class-level
  hooks and counters.  Per-layer metrics come from this mode only.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

import pulsecomp
from pulsecomp import analysis, cli, encoded, pauli, sequences, unitary

MODULES = (pulsecomp, pauli, unitary, sequences, encoded, analysis, cli)

# Layer -> (defining module, function names).  Span names are
# "<layer>:<function>".
LAYERS = {
    "pauli.square_coeff": (pauli, ("square_identity_coefficient",)),
    "pauli.su2_check": (pauli, ("unit_su2_partner", "su2_triple")),
    "pauli.parse": (pauli, ("parse_hamiltonian",)),
    "unitary.evolve": (unitary, ("evolve",)),
    "unitary.matrix_of": (unitary, ("matrix_of",)),
    "unitary.fidelity": (unitary, ("fidelity",)),
    "unitary.distance": (unitary, ("distance",)),
    "unitary.subspace_fidelity": (unitary, ("subspace_fidelity",)),
    "sequences.build": (
        sequences,
        ("wj_chain", "bb1_w", "bb1_j", "bb1_wj", "w_correction", "_bb1_w_unchecked"),
    ),
    "sequences.substitute": (sequences, ("substitute",)),
    "sequences.compile": (sequences, ("compile_sequence",)),
    "encoded.encoding": (
        encoded,
        ("xy3_encoding", "heisenberg3_encoding", "sector_decomposition", "get_encoding"),
    ),
    "encoded.build": (encoded, ("p3_sequence", "p3_bb1", "heisenberg_logical")),
    "analysis.sweep": (analysis, ("sweep",)),
    "analysis.fit": (analysis, ("fit_slope", "fit_sweep")),
    "analysis.random_signs": (analysis, ("random_sign_assignment",)),
}

# Layers whose outermost calls count as sequence construction (build_cpu_s).
BUILDER_LAYERS = ("sequences.build", "sequences.substitute", "encoded.build")

CLOCK = time.process_time

LINALG_FUNCTIONS = ("eig", "eigh", "eigvals", "eigvalsh", "norm")


def layer_of(span_name):
    return None if span_name is None else span_name.split(":", 1)[0]


class Recorder:
    """In-memory span aggregates and counters for one pass."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.stack: list[list] = []
        self.spans: dict[tuple, list] = {}
        self.counters: Counter = Counter()
        self.defect_max = 0.0
        self.roots: list = []
        self._patches: list[tuple] = []

    # --- spans -----------------------------------------------------------

    def _close(self, name, frame, dur):
        parent = self.stack[-1] if self.stack else None
        key = (name, parent[0] if parent else None)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        return parent

    def wrap(self, name, fn, hook=None):
        stack = self.stack
        clock = CLOCK
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent = close(name, frame, dur)
            if hook is not None:
                t = clock()
                hook(result, parent[0] if parent else None)
                if parent is not None:
                    parent[1] += clock() - t
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own call (e.g. one CLI command)."""
        frame = [name, 0.0]
        self.stack.append(frame)
        start = CLOCK()
        try:
            yield
        finally:
            dur = CLOCK() - start
            self.stack.pop()
            self._close(name, frame, dur)

    def count(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ----------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def _patch_everywhere(self, original, wrapper):
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        for layer, (home, names) in LAYERS.items():
            if not self.trace and layer not in BUILDER_LAYERS:
                continue
            for fname in names:
                original = getattr(home, fname)
                self._patch_everywhere(
                    original,
                    self.wrap(f"{layer}:{fname}", original, self._hook_for(layer)),
                )
        if not self.trace:
            return
        ham = pauli.Hamiltonian
        from_terms = ham.__dict__["from_terms"].__func__
        self._set(ham, "from_terms", classmethod(self.wrap("pauli.canon:from_terms", from_terms)))
        post_init = unitary.Unitary.__dict__["__post_init__"]
        self._set(unitary.Unitary, "__post_init__", self.wrap("unitary.check:__post_init__", post_init))
        cache_cls = sequences.CompileCache
        get, put = cache_cls.__dict__["get"], cache_cls.__dict__["put"]
        counters = self.counters

        def cache_get(cache, key):
            hit = get(cache, key)
            counters["cache.misses" if hit is None else "cache.hits"] += 1
            return hit

        def cache_put(cache, key, value):
            counters["cache.entries"] += 1
            put(cache, key, value)

        self._set(cache_cls, "get", cache_get)
        self._set(cache_cls, "put", cache_put)
        for fname in LINALG_FUNCTIONS:
            self._set(np.linalg, fname, self.count("linalg.calls", getattr(np.linalg, fname)))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # --- hooks -----------------------------------------------------------

    def _hook_for(self, layer):
        if layer in BUILDER_LAYERS:
            return self._builder_hook if self.trace else None
        return {
            "pauli.square_coeff": self._square_hook,
            "unitary.subspace_fidelity": self._method_hook,
            "sequences.compile": self._compile_hook,
        }.get(layer)

    def _builder_hook(self, seq, parent):
        if layer_of(parent) not in BUILDER_LAYERS:
            self.roots.append(seq)

    def _square_hook(self, c, parent):
        if layer_of(parent) == "unitary.evolve":
            self.counters["evolve.square_checks"] += 1
            if c is not None and c >= 0.0:
                self.counters["evolve.closed_form"] += 1

    def _method_hook(self, report, parent):
        self.counters[f"method.{report.method}"] += 1

    def _compile_hook(self, u, parent):
        m = u.matrix
        defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        self.defect_max = max(self.defect_max, defect)
        if layer_of(parent) == "sequences.substitute":
            self.counters["check_compiles"] += 1

    # --- results ---------------------------------------------------------

    def build_seconds(self) -> float:
        """Time in outermost sequence-builder calls."""
        return sum(
            rec[1]
            for (name, parent), rec in self.spans.items()
            if layer_of(name) in BUILDER_LAYERS and layer_of(parent) not in BUILDER_LAYERS
        )

    def layer_totals(self):
        """Per layer: [calls, inclusive seconds, self seconds]."""
        out: dict[str, list] = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(layer_of(name), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def span_table(self):
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]


def dag_stats(roots) -> dict:
    """Flattened pulse count and sharing of the built sequences.

    ``distinct_nodes`` counts pulses and sub-sequences distinct by identity;
    ``distinct_values`` counts them distinct by ``==`` (structural value),
    computed bottom-up so no deep hash is taken.
    """
    Pulse = sequences.Pulse
    sizes: dict[int, int] = {}
    value_id: dict[int, int] = {}
    interned: dict[tuple, int] = {}
    keep = []

    def visit(node):
        key = id(node)
        if key in sizes:
            return
        keep.append(node)
        if isinstance(node, Pulse):
            sizes[key] = 1
            vkey = ("pulse", node.terms)
        else:
            for item in node.items:
                visit(item)
            sizes[key] = sum(sizes[id(item)] for item in node.items)
            vkey = (
                "seq",
                tuple(value_id[id(item)] for item in node.items),
                node.required_groups,
            )
        value_id[key] = interned.setdefault(vkey, len(interned))

    for root in roots:
        visit(root)
    return {
        "pulse_count": sum(sizes[id(r)] for r in roots),
        "distinct_nodes": len(sizes),
        "distinct_values": len(interned),
    }
