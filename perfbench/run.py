"""Benchmark of pulsecomp: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in its own child process (``child.py``), one
after another; BLAS and OpenMP thread counts are pinned to 1 in the child's
environment.  A run first starts ``SETUP_PROBES`` children that only set up,
then runs passes until the next one would end after ``--seconds`` (at least
``MIN_PASSES`` passes, and one traced pass with ``--trace 1``).  Every
reported value is the median over the run's passes (see ``end_to_end``);
``setup_s`` is the median over every child.

Times of a pass are CPU times of its child (one thread), so a host that
deschedules the benchmark does not inflate them, scaled to the host's speed
during each stage of the pass (``speed.py``); the ``norm_`` metrics are
these.  ``setup_s`` is wall time from starting the child to its first timed
call.  The unscaled medians, wall time among them, are printed above the
result line and kept in the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead (traced minus untraced ``norm_cpu_s``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (points that raised or missed their reference)
and ``metrics``.  A result file with the raw passes and the environment is
written to ``perfbench/out/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("chain", "encoded", "grid")
SETUP_PROBES = 5
MIN_PASSES = 3
# Every run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one child to completion; add its set-up and total time."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args} exceeded the run budget") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    result["child_s"] = time.monotonic() - started
    return result


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pulsecomp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def run_passes(args, out_dir: Path) -> tuple[list[dict], list[dict]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir)]
    if args.tiny:
        common.append("--tiny")
    probes = [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = spawn([*common, "--trace", str(int(traced))], deadline)
        result["traced"] = traced
        passes.append(result)
        owed_traced = bool(args.trace) and not any(p["traced"] for p in passes)
        elapsed = time.monotonic() - begin
        enough = len(passes) >= MIN_PASSES and not owed_traced
        if enough and elapsed + result["child_s"] > args.seconds:
            return probes, passes


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(probes, untraced) -> dict:
    """Medians over the untraced passes; ``setup_s`` over every child."""
    return {
        "setup_s": median([p["setup_s"] for p in probes + untraced]),
        "norm_cpu_s": median([p["norm_cpu_s"] for p in untraced]),
        "norm_build_s": median([p["norm_build_s"] for p in untraced]),
        "norm_points_per_s": median([p["points"] / p["norm_point_s"] for p in untraced]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
    }


def unscaled(untraced) -> dict:
    """The same medians without scaling to the host's speed (not metrics)."""
    return {
        "cpu_s": median([p["cpu_s"] for p in untraced]),
        "build_cpu_s": median([p["build_cpu_s"] for p in untraced]),
        "points_per_cpu_s": median([p["points"] / p["point_cpu_s"] for p in untraced]),
        "wall_s": median([p["wall_s"] for p in untraced]),
        "ref_s": median([p["ref_s"] for p in untraced]),
    }


def per_layer(traced, untraced) -> tuple[dict, dict, bool]:
    values = {}
    for name in metrics.STRUCTURAL:
        values[name] = traced[0]["layers"].get(name)
    repeat = all(
        p["layers"].get(name) == values[name] for p in traced for name in metrics.STRUCTURAL
    )
    for name, unit, _ in metrics.PER_LAYER:
        if unit == "s" and name in traced[0]["layers"]:
            values[name] = median([p["layers"][name] for p in traced])
    values["trace.norm_cpu_s"] = median([p["norm_cpu_s"] for p in traced])
    values["trace.overhead_s"] = values["trace.norm_cpu_s"] - median(
        [p["norm_cpu_s"] for p in untraced]
    )
    trace_only = {
        name: median([p["trace_only"][name] for p in traced]) for name in traced[0]["trace_only"]
    }
    return values, trace_only, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pulsecomp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small configuration for tests")
    args = parser.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "pulsecomp" / "__init__.py", HERE / "reference.json")
        if not p.is_file()
    ]
    if missing:
        print(f"error: not a pulsecomp checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        probes, passes = run_passes(args, out_dir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    attempted = sum(p["check"]["attempted"] for p in passes)
    failed = sum(p["check"]["failed"] for p in passes)
    problems = [
        {k: p["check"][k] for k in ("failures", "slope_failures", "failed_commands")}
        for p in passes
        if p["check"]["failed"] or p["check"]["slope_failures"] or p["check"]["failed_commands"]
    ]
    e2e = end_to_end(probes, untraced)
    values, units = e2e, {name: unit for name, unit, _ in metrics.END_TO_END}
    trace_only, repeat = {}, True
    if args.trace:
        values, trace_only, repeat = per_layer(traced, untraced)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    correct = not problems and repeat

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "end_to_end": e2e,
        "unscaled": unscaled(untraced),
        "per_layer": values if args.trace else None,
        "trace_only": trace_only,
        "structural_counts_repeat": repeat,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "slopes": [p["check"]["slopes"] for p in passes],
        "csv_digest_mismatches": sorted({m for p in passes for m in p["csv_digest_mismatches"]}),
        "setup_probes": [p["setup_s"] for p in probes],
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "check")} for p in passes],
    }
    (HERE / "out" / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        spans = [{"pass": i, "spans": p["spans"]} for i, p in enumerate(passes) if p["traced"]]
        (HERE / "out" / f"trace_{tag}.json").write_text(json.dumps(spans, indent=1) + "\n")

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in record["unscaled"].items():
        print(f"{args.workload} {name} = {value:.6g} (result file only, not a metric)")
    for name, value in trace_only.items():
        print(f"{args.workload} {name} = {value:.6g} s (result file only)")
    frac = failed / attempted if attempted else 1.0
    print(f"{args.workload} failed_frac = {frac:.6g} ({failed} of {attempted} points)")
    for problem in problems[:3]:
        print(f"problem: {json.dumps(problem)[:1000]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
