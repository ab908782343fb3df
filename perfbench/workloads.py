"""Seeded inputs, one pass of each workload, and the output checks.

Every error magnitude is drawn from one fixed lattice, ``EPS_POOL``
(48 points per decade on [1e-4, 1e-1)), and every sign pattern, fixed
second error and figure seed from a small fixed pool.  The seed picks which
pool entries a run uses, stratified so that each quarter decade gets the
same number of points: point cost depends on the error magnitude (the
``subspace_fidelity`` branch, the slope regime), and stratification keeps
the work of a pass the same from seed to seed.  Because inputs come from
fixed pools, ``reference.json`` holds the infidelity of every input a seed
can select, so each point of every seed is checked.

Workloads (closed loop, one client, one pass per child process):

* chain: ``wj_chain`` at n = 2 and 3 built from scratch, swept with
  random-sign errors; construction and compile dominate.
* encoded: three-spin code sequences scored with ``subspace_fidelity``;
  the metric dominates.
* grid: ``pulsecomp sweep --config`` in-process; every point is a new error
  assignment, so the compile cache mostly misses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import pulsecomp as pc
from pulsecomp import cli

from tracer import CLOCK

THETA = math.pi / 4.0
BINS = 12
PER_BIN = 12
EPS_POOL = np.geomspace(1e-4, 1e-1, BINS * PER_BIN + 1)[: BINS * PER_BIN]
SIGN_SEEDS = tuple(range(8))
FIGURE_SEEDS = tuple(range(4))
EPS2_POOL = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
GRID_SEQUENCES = ("pulse", "bb1_w", "bb1_j", "bb1_wj")

# Slope laws and windows of the acceptance suite: uncorrected sequences
# scale as eps^2 and corrected ones as eps^6.
CHAIN_WINDOW = (1e-4, 1e-2)
ENCODED_WINDOW = (1e-3, 1e-1)
GRID_WINDOW = (1e-4, 1e-2)
SLOPE_TOL = {2: 0.1, 6: 0.2}

# A point passes when it is within this relative distance of its reference.
RTOL = 1e-6

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ENCODED_CURVES = {
    # name: (sequence builder, plain builder for the ideal, code, law)
    "p3": (lambda: pc.p3_sequence(THETA), lambda: pc.p3_sequence(THETA), "xy3", 2),
    "p3_bb1": (lambda: pc.p3_bb1(THETA), lambda: pc.p3_sequence(THETA), "xy3", 6),
    "heis_z": (
        lambda: pc.heisenberg_logical("z", THETA),
        lambda: pc.heisenberg_logical("z", THETA),
        "heisenberg3",
        2,
    ),
    "heis_z_bb1": (
        lambda: pc.heisenberg_logical("z", THETA, corrected=True),
        lambda: pc.heisenberg_logical("z", THETA),
        "heisenberg3",
        6,
    ),
    "heis_x": (
        lambda: pc.heisenberg_logical("x", THETA),
        lambda: pc.heisenberg_logical("x", THETA),
        "heisenberg3",
        2,
    ),
    "heis_x_bb1": (
        lambda: pc.heisenberg_logical("x", THETA, corrected=True),
        lambda: pc.heisenberg_logical("x", THETA),
        "heisenberg3",
        6,
    ),
}

FIGURES = {"chain": ("chain",), "encoded": ("xy", "heisenberg"), "grid": ("grid", "wj")}


# --- inputs ------------------------------------------------------------------


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def _stratified(rng, per_bin: int, bins=range(BINS)) -> list[int]:
    picks = []
    for b in bins:
        picks.extend(int(i) + b * PER_BIN for i in rng.choice(PER_BIN, per_bin, replace=False))
    return sorted(picks)


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything a pass needs, derived from the seed alone.

    ``tiny`` is the small configuration of the benchmark's own test: chain
    at n = 2 only, a few points per curve, no figures.
    """
    rng = _rng(seed, workload)
    figure_seed = int(rng.choice(FIGURE_SEEDS))
    if workload == "chain":
        curves = [
            {"n": 2, "signs": int(rng.choice(SIGN_SEEDS)), "eps": _stratified(rng, 1 if tiny else 2)},
        ]
        if not tiny:
            curves.append({"n": 3, "signs": int(rng.choice(SIGN_SEEDS)), "eps": _stratified(rng, 1)})
        inputs = {"curves": curves}
    elif workload == "encoded":
        bins = range(4, BINS) if tiny else range(BINS)
        inputs = {
            "curves": [
                {"name": name, "eps": _stratified(rng, 1 if tiny else 2, bins)}
                for name in ENCODED_CURVES
            ]
        }
    elif workload == "grid":
        configs = []
        for kind in GRID_SEQUENCES:
            # The first config of each sequence follows a slope law; the
            # others hold the second error at a seeded nonzero value.
            modes = ["law"] + ([] if tiny else ["fixed", "fixed"])
            for mode in modes:
                eps2 = 0.0 if mode == "law" or kind == "pulse" else float(rng.choice(EPS2_POOL))
                configs.append(
                    {
                        "sequence": kind,
                        "mode": mode,
                        "eps2": eps2,
                        "eps": _stratified(rng, 1 if tiny else 8),
                    }
                )
        inputs = {"configs": configs}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inputs.update(workload=workload, seed=seed, commands=not tiny, figure_seed=figure_seed)
    return inputs


def grid_key(cfg: dict) -> str:
    if cfg["sequence"] == "pulse":
        return "pulse"
    if cfg["mode"] == "law":
        return f"{cfg['sequence']}/law"
    return f"{cfg['sequence']}/eps2={cfg['eps2']!r}"


def grid_config(cfg: dict, csv_path: Path) -> dict:
    """A ``pulsecomp sweep`` config: ZZ error swept, X1 (and Y1) held."""
    kind = cfg["sequence"]
    controls = [["ZZ", "0.5*ZZ"], ["X1", "0.5*XI"], ["Y1", "0.5*YI"]]
    labels = {"pulse": ["ZZ"], "bb1_w": ["ZZ", "X1"], "bb1_j": ["ZZ", "X1"]}.get(
        kind, ["ZZ", "X1", "Y1"]
    )
    if kind == "pulse":
        errors = {"vary": ["ZZ"]}
    elif kind == "bb1_w" and cfg["mode"] == "law":
        errors = {"vary": ["ZZ", "X1"]}  # the shared error bb1_w corrects
    else:
        held = [l for l in labels if l != "ZZ"]
        errors = {"vary": ["ZZ"], "fixed": {l: cfg["eps2"] for l in held}}
        if kind == "bb1_wj":
            errors["groups"] = [["X1", "Y1"]]
    return {
        "n_qubits": 2,
        "controls": controls,
        "sequence": {"type": kind, "theta": "pi/4", "controls": labels},
        "grid": [float(EPS_POOL[i]) for i in cfg["eps"]],
        "errors": errors,
        "output": str(csv_path),
    }


def law_of(workload: str, curve: dict):
    """The slope law a curve follows, or None when its regime is mixed."""
    if workload == "chain":
        return 6
    if workload == "encoded":
        return ENCODED_CURVES[curve["name"]][3]
    if curve["sequence"] == "pulse":
        return 2
    return 6 if curve["mode"] == "law" else None


def write_configs(inputs: dict, out_dir: Path) -> None:
    """Write the grid workload's sweep configs (part of set-up)."""
    for k, cfg in enumerate(inputs.get("configs", ())):
        cfg["config_path"] = str(out_dir / f"sweep_{k}.json")
        cfg["csv_path"] = str(out_dir / f"sweep_{k}.csv")
        body = grid_config(cfg, Path(cfg["csv_path"]))
        Path(cfg["config_path"]).write_text(json.dumps(body), encoding="utf-8")


# --- one pass ----------------------------------------------------------------


class PassLog:
    """What a pass produced: points, point CPU time, command exit codes.

    ``checkpoint`` is called between the stages of a pass (before the CLI
    commands, and on chain after each build); the child sets it to measure
    the host's speed there.
    """

    def __init__(self):
        self.points: list[dict] = []  # curve, idx, value or error
        self.point_cpu_s = 0.0
        self.commands: list[dict] = []
        self.checkpoint = lambda: None


def run_cli(recorder, span_name: str, argv: list[str], log: PassLog) -> int:
    out, err = io.StringIO(), io.StringIO()
    with recorder.span(span_name):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    log.commands.append({"span": span_name, "rc": rc, "stderr": err.getvalue()[-500:]})
    return rc


def _figures(inputs, recorder, out_dir: Path, log: PassLog) -> None:
    if not inputs["commands"]:
        return
    log.checkpoint()
    for fig in FIGURES[inputs["workload"]]:
        fig_dir = out_dir / f"figure_{fig}"
        run_cli(
            recorder,
            f"cli.figure:{fig}",
            ["--seed", str(inputs["figure_seed"]), "figure", fig, "--out", str(fig_dir)],
            log,
        )


def _chain_pass(inputs, recorder, out_dir, log):
    clock = CLOCK
    for cid, curve in enumerate(inputs["curves"]):
        n = curve["n"]
        key = f"n{n}/signs{curve['signs']}"
        seq = pc.wj_chain(n, THETA)
        target = pc.evolve([(THETA, 0.0, pc.Hamiltonian.single(0.5, "I" * (n - 1) + "X"))])
        labels = pc.chain_labels(n)
        cache = pc.CompileCache()
        log.checkpoint()  # the build and the points are separate stages
        for idx in curve["eps"]:
            point = {"curve": key, "cid": cid, "idx": idx}
            try:
                errs = pc.random_sign_assignment(
                    curve["signs"], labels, float(EPS_POOL[idx]), correlated_pair=("X1", "Y1")
                )
                t = clock()
                try:
                    u = pc.compile_sequence(seq, errs, cache)
                    point["value"] = pc.fidelity(target, u).infidelity
                finally:
                    log.point_cpu_s += clock() - t
            except Exception as exc:  # a point that raises is a failed point
                point["error"] = f"{type(exc).__name__}: {exc}"
            log.points.append(point)
    _figures(inputs, recorder, out_dir, log)


def _encoded_pass(inputs, recorder, out_dir, log):
    clock = CLOCK
    codes = {"xy3": pc.xy3_encoding().code, "heisenberg3": pc.heisenberg3_encoding().code}
    for cid, curve in enumerate(inputs["curves"]):
        build, build_plain, code_name, _law = ENCODED_CURVES[curve["name"]]
        seq, plain = build(), build_plain()
        label = next(iter(plain.labels))
        ideal = pc.compile_sequence(plain, pc.ErrorAssignment.zero([label]))
        code = codes[code_name]
        cache = pc.CompileCache()
        for idx in curve["eps"]:
            point = {"curve": curve["name"], "cid": cid, "idx": idx}
            errs = pc.ErrorAssignment.uniform([label], float(EPS_POOL[idx]))
            t = clock()
            try:
                u = pc.compile_sequence(seq, errs, cache)
                point["value"] = pc.subspace_fidelity(ideal, u, code).infidelity
            except Exception as exc:  # a point that raises is a failed point
                point["error"] = f"{type(exc).__name__}: {exc}"
            log.point_cpu_s += clock() - t
            log.points.append(point)
    _figures(inputs, recorder, out_dir, log)


def _grid_pass(inputs, recorder, out_dir, log):
    clock = CLOCK
    for cid, cfg in enumerate(inputs["configs"]):
        t = clock()
        rc = run_cli(
            recorder,
            "cli.sweep",
            ["--seed", str(inputs["figure_seed"]), "sweep", "--config", cfg["config_path"]],
            log,
        )
        log.point_cpu_s += clock() - t
        rows = _read_csv(cfg["csv_path"]) if rc == 0 else []
        key = grid_key(cfg)
        for k, idx in enumerate(cfg["eps"]):
            point = {"curve": key, "cid": cid, "idx": idx}
            if k < len(rows) and rows[k][0] == float(EPS_POOL[idx]):
                point["value"] = rows[k][1]
            else:
                point["error"] = f"sweep exit code {rc}, row {k} missing or out of order"
            log.points.append(point)
    _figures(inputs, recorder, out_dir, log)
    if inputs["commands"]:
        run_cli(recorder, "cli.verify", ["verify"], log)


def _read_csv(path) -> list[tuple[float, float]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    out = []
    for line in lines:
        fields = line.split(",")
        out.append((float(fields[0]), float(fields[2])))
    return out


PASSES = {"chain": _chain_pass, "encoded": _encoded_pass, "grid": _grid_pass}


def run_pass(inputs: dict, recorder, out_dir: Path, log: PassLog | None = None) -> PassLog:
    log = PassLog() if log is None else log
    PASSES[inputs["workload"]](inputs, recorder, out_dir, log)
    return log


# --- output checks -------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_points(inputs: dict, log: PassLog, reference: dict) -> dict:
    """Compare every point with its reference; fit each curve's slope.

    A point fails if it raised, has no reference, or differs from its
    reference by more than ``RTOL`` relative.  A curve fails if its fitted
    slope over the acceptance window misses the law (2 or 6) by more than
    the acceptance tolerance.
    """
    ref = reference["points"][inputs["workload"]]
    failures = []
    by_curve: dict[int, list] = {}
    for p in log.points:
        expect = ref.get(p["curve"], [None] * len(EPS_POOL))[p["idx"]]
        got = p.get("value")
        if got is None or not math.isfinite(got):
            failures.append({**p, "why": p.get("error", "no finite value")})
            continue
        by_curve.setdefault(p["cid"], []).append((float(EPS_POOL[p["idx"]]), got))
        if expect is None:
            failures.append({**p, "why": "no reference for this input"})
        elif abs(got - expect) > RTOL * abs(expect):
            failures.append({**p, "why": f"reference {expect!r}"})
    curves = inputs.get("curves") or inputs.get("configs")
    window = {"chain": CHAIN_WINDOW, "encoded": ENCODED_WINDOW, "grid": GRID_WINDOW}[
        inputs["workload"]
    ]
    slope_failures = []
    slopes = []
    for cid, curve in enumerate(curves):
        law = law_of(inputs["workload"], curve)
        pts = [(e, v) for e, v in by_curve.get(cid, []) if window[0] <= e <= window[1]]
        if law is None or len(pts) < 4:
            continue
        fit = pc.fit_slope([e for e, _ in pts], [v for _, v in pts], window)
        slopes.append(fit.exponent)
        if abs(fit.exponent - law) > SLOPE_TOL[law]:
            slope_failures.append({"cid": cid, "slope": fit.exponent, "law": law})
    failed_commands = [c for c in log.commands if c["rc"] != 0]
    return {
        "attempted": len(log.points),
        "failed": len(failures),
        "failures": failures[:20],
        "slopes": slopes,
        "slope_failures": slope_failures,
        "failed_commands": failed_commands,
    }


def figure_digests(inputs: dict, out_dir: Path, reference: dict) -> dict:
    """Bytes of the figure CSVs and how many differ from this commit's."""
    digests = reference["digests"]
    total_bytes = 0
    mismatches = []
    for fig in FIGURES[inputs["workload"]] if inputs["commands"] else ():
        key = f"chain/seed{inputs['figure_seed']}" if fig == "chain" else fig
        expect = digests.get(key, {})
        for path in sorted((out_dir / f"figure_{fig}").glob("*.csv")):
            data = path.read_bytes()
            total_bytes += len(data)
            if expect.get(path.name) != hashlib.sha256(data).hexdigest():
                mismatches.append(f"{fig}/{path.name}")
    return {"csv_bytes": total_bytes, "csv_digest_mismatches": mismatches}
