"""Regenerate ``reference.json``: the infidelity of every input a seed can
select, and the SHA-256 of every figure CSV.

Run from the repository root (takes about two minutes):

    python3 perfbench/record.py

Re-record only when a change is meant to alter results, and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

ALL = list(range(len(wl.EPS_POOL)))


def full_inputs(workload: str) -> dict:
    if workload == "chain":
        curves = [{"n": n, "signs": s, "eps": ALL} for n in (2, 3) for s in wl.SIGN_SEEDS]
        inputs = {"curves": curves}
    elif workload == "encoded":
        inputs = {"curves": [{"name": name, "eps": ALL} for name in wl.ENCODED_CURVES]}
    else:
        configs = [{"sequence": "pulse", "mode": "law", "eps2": 0.0, "eps": ALL}]
        for kind in wl.GRID_SEQUENCES[1:]:
            configs.append({"sequence": kind, "mode": "law", "eps2": 0.0, "eps": ALL})
            configs += [
                {"sequence": kind, "mode": "fixed", "eps2": e2, "eps": ALL} for e2 in wl.EPS2_POOL
            ]
        inputs = {"configs": configs}
    inputs.update(workload=workload, seed=0, commands=False, figure_seed=0)
    return inputs


def record_points(workload: str, scratch: Path) -> dict:
    inputs = full_inputs(workload)
    wl.write_configs(inputs, scratch)
    log = wl.run_pass(inputs, tracer.Recorder(trace=False), scratch)
    table: dict[str, list] = {}
    for p in log.points:
        if "value" not in p:
            raise RuntimeError(f"{workload} point failed: {p}")
        table.setdefault(p["curve"], [None] * len(wl.EPS_POOL))[p["idx"]] = p["value"]
    return table


def record_digests(scratch: Path) -> dict:
    runs = [(f"chain/seed{s}", "chain", s) for s in wl.FIGURE_SEEDS]
    runs += [(fig, fig, 0) for fig in ("wj", "grid", "xy", "heisenberg")]
    out = {}
    for key, fig, seed in runs:
        fig_dir = scratch / key.replace("/", "_")
        log = wl.PassLog()
        rc = wl.run_cli(
            tracer.Recorder(trace=False),
            "record",
            ["--seed", str(seed), "figure", fig, "--out", str(fig_dir)],
            log,
        )
        if rc != 0:
            raise RuntimeError(f"figure {fig} failed: {log.commands}")
        out[key] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(fig_dir.glob("*.csv"))
        }
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        scratch = Path(tmp)
        reference = {
            "points": {w: record_points(w, scratch) for w in ("encoded", "grid", "chain")},
            "digests": record_digests(scratch),
        }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
