"""One pass of one workload in a fresh process; ``run.py`` starts it.

Prints one JSON line.  ``ready`` is the monotonic clock after the imports
and the seeded inputs are done, so the parent can take set-up time from the
moment it started this process.  With ``--setup-only`` the child stops
there.  Otherwise it times the pass in stages with ``speed.StageClock``,
which runs a reference loop between stages to follow the host's speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def run(workload: str, seed: int, out_dir: Path, trace: bool, setup_only: bool, tiny: bool) -> dict:
    import metrics
    import speed
    import tracer
    import workloads

    inputs = workloads.make_inputs(workload, seed, tiny)
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads.write_configs(inputs, out_dir)
    result = {"ready": time.monotonic()}
    if setup_only:
        return result
    speed.reference_loop(speed.REPS // 10)  # warm-up
    recorder = tracer.Recorder(trace=trace)
    log = workloads.PassLog()
    stages = speed.StageClock(recorder, log)
    log.checkpoint = stages.checkpoint
    recorder.install()
    try:
        stages.checkpoint()
        workloads.run_pass(inputs, recorder, out_dir, log)
        stages.checkpoint()
    finally:
        recorder.uninstall()
    result.update(stages.totals())
    result.update(
        points=len(log.points),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    reference = workloads.load_reference()
    result["check"] = workloads.check_points(inputs, log, reference)
    csv = workloads.figure_digests(inputs, out_dir, reference)
    result["csv_digest_mismatches"] = csv["csv_digest_mismatches"]
    if trace:
        layers = metrics.layer_values(recorder, tracer.dag_stats(recorder.roots), csv)
        result.update(layers=layers["values"], trace_only=layers["trace_only"])
        result["spans"] = recorder.span_table()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for CLI outputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    result = run(
        args.workload, args.seed, Path(args.out), bool(args.trace), args.setup_only, args.tiny
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
