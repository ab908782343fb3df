"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's test checks that the two agree.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("norm_cpu_s", "s", "lower"),
    ("norm_build_s", "s", "lower"),
    ("norm_points_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Layers with a ``.calls`` count.  Self times are listed separately, because
# a time metric must be nonzero on every workload (see TRACE_ONLY_TIMES).
COUNTED_LAYERS = (
    "pauli.canon",
    "pauli.square_coeff",
    "pauli.su2_check",
    "pauli.parse",
    "unitary.evolve",
    "unitary.matrix_of",
    "unitary.check",
    "unitary.fidelity",
    "unitary.distance",
    "unitary.subspace_fidelity",
    "sequences.build",
    "sequences.substitute",
    "sequences.compile",
    "encoded.encoding",
    "encoded.build",
    "analysis.sweep",
    "analysis.fit",
    "analysis.random_signs",
)

# Layers every workload calls, so their self time is never zero.
TIMED_LAYERS = (
    "pauli.canon",
    "pauli.square_coeff",
    "unitary.evolve",
    "unitary.matrix_of",
    "unitary.check",
    "unitary.fidelity",
    "unitary.distance",
    "sequences.build",
    "sequences.compile",
    "analysis.sweep",
)

# Self times of layers that some workload never calls (zero there), and the
# time of each CLI command.  They are written to the result file and printed
# on the summary line, not reported as per-layer metrics.
TRACE_ONLY_TIMES = (
    "pauli.su2_check",
    "pauli.parse",
    "unitary.subspace_fidelity",
    "sequences.substitute",
    "encoded.encoding",
    "encoded.build",
    "analysis.fit",
    "analysis.random_signs",
)
CLI_COMMANDS = (
    "cli.figure:wj",
    "cli.figure:grid",
    "cli.figure:chain",
    "cli.figure:xy",
    "cli.figure:heisenberg",
    "cli.sweep",
    "cli.verify",
)

PER_LAYER = (
    *((f"{layer}.calls", "count", "lower") for layer in COUNTED_LAYERS),
    *((f"{layer}.self_s", "s", "lower") for layer in TIMED_LAYERS),
    ("unitary.evolve.closed_form_frac", "ratio", "higher"),
    ("unitary.subspace_fidelity.method.eigenphase-arc", "count", "higher"),
    ("unitary.subspace_fidelity.method.numerical-range", "count", "lower"),
    ("unitary.linalg.calls", "count", "lower"),
    ("sequences.substitute.check_compiles", "count", "lower"),
    ("sequences.cache.hits", "count", "higher"),
    ("sequences.cache.misses", "count", "lower"),
    ("sequences.cache.hit_ratio", "ratio", "higher"),
    ("sequences.cache.entries", "count", "lower"),
    ("sequences.pulse_count", "count", "lower"),
    ("sequences.distinct_nodes", "count", "lower"),
    ("sequences.distinct_values", "count", "lower"),
    ("sequences.unitarity_defect.max", "abs", "lower"),
    ("cli.figure_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("cli.csv_digest_mismatches", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.norm_cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that must repeat exactly between two runs of one seed.
STRUCTURAL = tuple(name for name, unit, _ in PER_LAYER if unit != "s")


def layer_values(recorder, dag: dict, csv: dict) -> dict:
    """Per-layer metric values of one traced pass, plus the trace-only times."""
    totals = recorder.layer_totals()
    counters = recorder.counters
    values: dict[str, float] = {}
    for layer in COUNTED_LAYERS:
        values[f"{layer}.calls"] = totals.get(layer, [0])[0]
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_s"] = totals.get(layer, [0, 0.0, 0.0])[2]
    evolves = values["unitary.evolve.calls"]
    values["unitary.evolve.closed_form_frac"] = (
        counters["evolve.closed_form"] / evolves if evolves else 0.0
    )
    values["unitary.subspace_fidelity.method.eigenphase-arc"] = counters["method.eigenphase-arc"]
    values["unitary.subspace_fidelity.method.numerical-range"] = counters["method.numerical-range"]
    values["unitary.linalg.calls"] = counters["linalg.calls"]
    values["sequences.substitute.check_compiles"] = counters["check_compiles"]
    hits, misses = counters["cache.hits"], counters["cache.misses"]
    values["sequences.cache.hits"] = hits
    values["sequences.cache.misses"] = misses
    values["sequences.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["sequences.cache.entries"] = counters["cache.entries"]
    values["sequences.pulse_count"] = dag["pulse_count"]
    values["sequences.distinct_nodes"] = dag["distinct_nodes"]
    values["sequences.distinct_values"] = dag["distinct_values"]
    values["sequences.unitarity_defect.max"] = recorder.defect_max
    commands = {
        c: sum(rec[1] for (name, _), rec in recorder.spans.items() if name == c)
        for c in CLI_COMMANDS
    }
    values["cli.figure_s"] = sum(t for c, t in commands.items() if c.startswith("cli.figure"))
    values["cli.command_s"] = sum(commands.values())
    values["cli.csv_bytes"] = csv["csv_bytes"]
    values["cli.csv_digest_mismatches"] = len(csv["csv_digest_mismatches"])
    values["trace.spans"] = sum(rec[0] for rec in recorder.spans.values())
    extra = {f"{layer}.self_s": totals.get(layer, [0, 0.0, 0.0])[2] for layer in TRACE_ONLY_TIMES}
    for command, seconds in commands.items():
        extra[command.replace(":", ".") + "_s"] = seconds
    return {"values": values, "trace_only": extra}
