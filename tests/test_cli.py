"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pulsecomp
from pulsecomp import cli, fit_slope
from pulsecomp.cli import UsageError, main, parse_angle


def run_cli(*argv):
    return main(list(argv))


def load_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    eps = np.array([float(r["eps1"]) for r in rows])
    infid = np.array([float(r["infidelity"]) for r in rows])
    return rows, eps, infid


class TestParseAngle:
    def test_forms(self):
        assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
        assert parse_angle("3*pi/2") == pytest.approx(1.5 * math.pi)
        assert parse_angle("-pi") == pytest.approx(-math.pi)
        assert parse_angle("-3/2*pi") == pytest.approx(-1.5 * math.pi)
        assert parse_angle("0.25") == 0.25
        assert parse_angle(2) == 2.0

    def test_bad_literals(self):
        for bad in ("pie", "pi/0", "two*pi", "1..5", "nan", "inf", True, False):
            with pytest.raises(UsageError):
                parse_angle(bad)


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    def test_filter_selects_subset(self, capsys):
        assert run_cli("verify", "--filter", "toggling") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 1
        assert "toggling" in out

    def test_unknown_filter(self):
        assert run_cli("verify", "--filter", "nonexistent") == 2

    def test_fault_injection(self, capsys, monkeypatch):
        broken = dict(cli.VERIFY_CHECKS)
        broken["toggling"] = lambda: (False, "injected fault")
        monkeypatch.setattr(cli, "VERIFY_CHECKS", broken)
        assert run_cli("verify") == 1
        out = capsys.readouterr().out
        assert "[FAIL] toggling" in out


class TestExchangeCheck:
    """The Heisenberg commutator is compared with a permutation built apart from the couplings."""

    def test_wrong_qubits_fail(self, monkeypatch):
        real = cli.heisenberg_coupling
        # g23 taken on qubits 1 and 3: its commutator with g12 is the reverse cycle's
        monkeypatch.setattr(
            cli, "heisenberg_coupling", lambda i, j: real(1, 3) if (i, j) == (2, 3) else real(i, j)
        )
        ok, message = cli._check_exchange_conjugation()
        assert not ok
        assert float(message.split()[-4]) > 1e-12


class TestJonesCheck:
    """The conjugation check compiles its 100 draws as one stack."""

    def test_wrong_partner_fails(self, monkeypatch):
        real = cli.unit_su2_partner
        monkeypatch.setattr(cli, "unit_su2_partner", lambda h1, h2: -1.0 * real(h1, h2))
        ok, message = cli._check_jones()
        assert not ok
        assert message.startswith("conjugated-tilt deviation ")
        assert float(message.split()[2]) > 1e-12

    def test_stack_matches_one_point_compiles(self):
        seq, points = cli._jones_draws()
        stack, _ = pulsecomp.compile_stack(seq, points)
        assert stack.shape == (100, 4, 4)
        for conj, errors in zip(stack, points):
            theta = math.pi / 2 * (1.0 + errors.values["a"])
            phi = math.pi * (1.0 + errors.values["b"])
            one = pulsecomp.PulseSequence(
                (
                    pulsecomp.Pulse.single("b", -phi, cli.H_X1),
                    pulsecomp.Pulse.single("a", theta, cli.H_ZZ),
                    pulsecomp.Pulse.single("b", phi, cli.H_X1),
                )
            )
            u = pulsecomp.compile_sequence(one, pulsecomp.ErrorAssignment.zero(["a", "b"]))
            assert u.matrix.tobytes() == conj.tobytes()

    def test_adds_at_most_three_synthesis_plans(self):
        # a fresh interpreter, whose plan cache holds only what imports made
        code = (
            "from pulsecomp import cli, unitary\n"
            "before = unitary._synthesis.cache_info().currsize\n"
            "assert cli._check_jones()[0]\n"
            "print(unitary._synthesis.cache_info().currsize - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pulsecomp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        # (H_X1,), (H_ZZ,) and (H_ZZ, h3)
        assert int(proc.stdout) <= 3


class TestFigureXy:
    def test_slopes_two_and_six(self, tmp_path):
        out = tmp_path / "xy"
        assert run_cli("figure", "xy", "--out", str(out)) == 0
        meta = json.loads((out / "xy_metadata.json").read_text())
        assert set(meta["files"]) == {"p3_uncorrected.csv", "p3_bb1w.csv"}
        _, eps, unc = load_csv(out / "p3_uncorrected.csv")
        assert fit_slope(eps, unc).exponent == pytest.approx(2.0, abs=0.1)
        _, eps, cor = load_csv(out / "p3_bb1w.csv")
        assert fit_slope(eps, cor).exponent == pytest.approx(6.0, abs=0.2)

    def test_byte_stable(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("figure", "xy", "--out", str(a))
        run_cli("figure", "xy", "--out", str(b))
        assert (a / "p3_bb1w.csv").read_bytes() == (b / "p3_bb1w.csv").read_bytes()


class TestFigureWj:
    def test_outputs_and_metadata(self, tmp_path):
        out = tmp_path / "wj"
        assert run_cli("figure", "wj", "--out", str(out)) == 0
        assert (out / "bb1_wj.csv").exists()
        assert (out / "uncorrected.csv").exists()
        meta = json.loads((out / "wj_metadata.json").read_text())
        assert "out of scope" in meta["notes"]
        # corrected curve beats uncorrected at small coupling error
        _, eps, wj = load_csv(out / "bb1_wj.csv")
        _, _, unc = load_csv(out / "uncorrected.csv")
        assert wj[0] < unc[0] / 1e6


class TestFigureGrid:
    def test_simultaneous_beats_conjugated_at_equal_errors(self, tmp_path):
        out = tmp_path / "grid"
        assert run_cli("figure", "grid", "--out", str(out)) == 0
        for name in ("bb1_w", "bb1_j", "bb1_wj"):
            assert (out / f"{name}.csv").exists()
        rows_w, _, _ = load_csv(out / "bb1_w.csv")
        rows_j, _, _ = load_csv(out / "bb1_j.csv")
        diag_w = [r for r in rows_w if r["eps1"] == r["eps2"]]
        diag_j = [r for r in rows_j if r["eps1"] == r["eps2"]]
        assert len(diag_w) == 9
        for rw, rj in zip(diag_w, diag_j):
            assert float(rw["infidelity"]) <= float(rj["infidelity"])

    def test_sidecar_records_each_stack(self, tmp_path):
        out = tmp_path / "grid"
        assert run_cli("figure", "grid", "--out", str(out)) == 0
        meta = json.loads((out / "grid_metadata.json").read_text())
        assert list(meta["stacks"]) == ["bb1_w", "bb1_j", "bb1_wj"]
        for stack in meta["stacks"].values():
            assert stack["points"] == 81
            assert 0.0 <= stack["unitarity_defect"] <= 1e-10


class TestFigureChain:
    def test_curves_approach_reference(self, tmp_path):
        out = tmp_path / "chain"
        assert run_cli("--seed", "1", "figure", "chain", "--out", str(out)) == 0
        _, _, ref = load_csv(out / "bb1_w_reference.csv")
        for n in (2, 3):
            _, _, chain = load_csv(out / f"chain_n{n}.csv")
            assert chain[0] < 10 * ref[0]
        meta = json.loads((out / "chain_metadata.json").read_text())
        assert meta["seed"] == 1

    def test_seed_recorded_in_rows(self, tmp_path):
        out = tmp_path / "chain"
        run_cli("--seed", "5", "figure", "chain", "--out", str(out))
        rows, _, _ = load_csv(out / "chain_n2.csv")
        assert all(r["seed"] == "5" for r in rows)
        assert all(set(r["signs"]) <= {"+", "-"} and r["signs"] for r in rows)


class TestSweepCommand:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "n_qubits": 2,
            "controls": [["ZZ", "0.5*ZZ"], ["X1", "0.5*XI"]],
            "sequence": {"type": "bb1_j", "theta": "pi/4", "controls": ["ZZ", "X1"]},
            "errors": {"vary": "ZZ", "fixed": {"X1": 0.0}},
            "grid": {"lo": 1e-4, "hi": 1e-2, "points": 9},
            "output": str(tmp_path / "out.csv"),
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_happy_path_prints_slope(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert run_cli("sweep", "--config", str(cfg)) == 0
        out = capsys.readouterr().out
        assert "slope fit: exponent 6.0" in out
        rows, _, _ = load_csv(tmp_path / "out.csv")
        assert len(rows) == 9

    def test_malformed_expression(self, tmp_path, capsys):
        cfg = self._config(tmp_path, controls=[["ZZ", "0.5*ZQ"], ["X1", "0.5*XI"]])
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "'Q'" in capsys.readouterr().err

    def test_single_point_grid_needs_fit_disabled(self, tmp_path, capsys):
        cfg = self._config(tmp_path, grid=[1e-3])
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert ">=4" in capsys.readouterr().err
        cfg = self._config(tmp_path, grid=[1e-3], fit=False)
        assert run_cli("sweep", "--config", str(cfg)) == 0

    def test_fit_below_floor_reports_error_and_keeps_csv(self, tmp_path, capsys):
        # bb1_w cancels both errors, so at most one point is above INFIDELITY_FLOOR
        cfg = self._config(
            tmp_path,
            sequence={"type": "bb1_w", "theta": "pi/4", "controls": ["ZZ", "X1"]},
            errors={"vary": ["ZZ", "X1"]},
            grid=[1e-9, 2e-9, 4e-9, 8e-9],
        )
        assert run_cli("sweep", "--config", str(cfg)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: slope fit: need >= 4 points")
        assert "slope fit: exponent" not in captured.out
        rows, eps, _ = load_csv(tmp_path / "out.csv")
        assert len(rows) == 4 and eps.tolist() == [1e-9, 2e-9, 4e-9, 8e-9]

    def test_unresolved_labels(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path,
            sequence={"type": "bb1_j", "controls": ["ZZ", "MISSING"]},
        )
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert "MISSING" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "absent.json")) == 2

    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert run_cli("sweep", "--config", str(path)) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "malform,key",
        [
            (lambda c: c.update(controls=[{"label": "ZZ"}]), "hamiltonian"),
            (lambda c: c.update(grid={"lo": 1e-4, "hi": 1e-2}), "points"),
            (lambda c: [c], "must be a JSON object"),
            (lambda c: c.update(errors={"random_signs": 3}), "random_signs"),
            (lambda c: c.update(controls=5), "controls"),
            (lambda c: c.update(controls=[["ZZ", 5], ["X1", "0.5*XI"]]), "hamiltonian"),
            (lambda c: c.update(errors={"groups": 3}), "groups"),
            (lambda c: c.update(errors={"fixed": [1]}), "fixed"),
            (lambda c: c["sequence"].update(controls=5), "sequence.controls"),
            (lambda c: c.update(grid=[[1e-3]]), "grid point"),
            (lambda c: c["grid"].update(lo=[1]), "grid.lo"),
            (lambda c: c["errors"].update(vary=5), "errors.vary"),
            (lambda c: c["errors"]["fixed"].update(X1=[1]), "errors.fixed.X1"),
            (lambda c: c.update(sequence={"type": "wj_chain", "chain_n": [2]}), "chain_n"),
            (
                lambda c: c.update(errors={"random_signs": {"correlated_pair": 5}}),
                "correlated_pair",
            ),
            (lambda c: c.update(controls=[[["ZZ"], "0.5*ZZ"]]), "label"),
            (lambda c: c["sequence"].update(type=["bb1_j"]), "sequence type"),
            (lambda c: c.update(output=5), "output"),
            (lambda c: c["grid"].update(points=4.7), "grid.points"),
            (lambda c: c.update(sequence={"type": "wj_chain", "chain_n": 2.7}), "chain_n"),
            (lambda c: c.update(errors={"random_signs": {"seed": 1.5}}), "random_signs.seed"),
            (lambda c: c["grid"].update(hi=True), "grid.hi"),
            (lambda c: c["errors"]["fixed"].update(X1=False), "errors.fixed.X1"),
            (lambda c: c.update(n_qubits="2"), "n_qubits"),
            (lambda c: c.update(n_qubits=2.5), "n_qubits"),
            (lambda c: c.update(n_qubits=0), "n_qubits"),
            (lambda c: c["grid"].update(points=-3), "grid.points"),
            (lambda c: c["grid"].update(points=0), "grid.points"),
            (lambda c: c["grid"].update(lo=0), "grid.lo"),
            (lambda c: c["grid"].update(lo=math.nan), "grid.lo"),
            (lambda c: c["grid"].update(hi=math.inf), "grid.hi"),
            (lambda c: c.update(fit="no"), "fit"),
            (lambda c: c["sequence"].update(theta=True), "theta"),
            (lambda c: c["sequence"].update(theta=10**400), "theta"),
            (lambda c: c.update(errors={"random_signs": {"seed": -1}}), "random_signs.seed"),
            (lambda c: c.update(errors={"random_signs": {"seed": 2**128}}), "random_signs.seed"),
        ],
        ids=[
            "control-without-hamiltonian",
            "grid-without-points",
            "list",
            "bad-random-signs",
            "controls-not-a-list",
            "non-string-hamiltonian",
            "bad-groups",
            "bad-fixed",
            "sequence-controls-not-a-list",
            "nested-grid-point",
            "non-numeric-grid-lo",
            "vary-not-a-list",
            "non-numeric-fixed-error",
            "non-numeric-chain-n",
            "pair-not-a-list",
            "non-string-label",
            "unhashable-sequence-type",
            "non-string-output",
            "fractional-grid-points",
            "fractional-chain-n",
            "fractional-random-seed",
            "boolean-grid-hi",
            "boolean-fixed-error",
            "string-n-qubits",
            "fractional-n-qubits",
            "zero-n-qubits",
            "negative-grid-points",
            "zero-grid-points",
            "zero-grid-lo",
            "nan-grid-lo",
            "infinite-grid-hi",
            "string-fit",
            "boolean-theta",
            "theta-past-float-range",
            "negative-random-seed",
            "random-seed-past-philox-keys",
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, malform, key):
        path = self._config(tmp_path)
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps(malform(cfg) or cfg))
        assert run_cli("sweep", "--config", str(path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "errors,what,label",
        [
            ({"fixed": {"x1": 0.01}}, "errors.fixed", "x1"),
            ({"vary": ["ZZ", "Y1"]}, "errors.vary", "Y1"),
            ({"vary": "ZZ", "fixed": {"X1": 0.0}, "groups": [["X1", "Q"]]}, "errors.groups", "Q"),
            (
                {"random_signs": {"correlated_pair": ["ZZ", "Q"]}},
                "errors.random_signs.correlated_pair",
                "Q",
            ),
            ({"random_signs": {}, "groups": [["Q"]]}, "errors.groups", "Q"),
        ],
        ids=["fixed", "vary", "groups", "correlated-pair", "random-signs-groups"],
    )
    def test_unknown_error_label_exits_two(self, tmp_path, capsys, errors, what, label):
        cfg = self._config(
            tmp_path, sequence={"type": "bb1_w", "theta": "pi/4", "controls": ["ZZ", "X1"]},
            errors=errors,
        )
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"error: {what} names label {label!r}, which the sequence does not have "
            "(its labels: X1, ZZ)\n"
        )
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "pair", [["X1"], ["X1", "X1"], ["X1", "Y1", "ZZ12"]], ids=["one", "twice", "three"]
    )
    def test_correlated_pair_not_a_pair_exits_two(self, tmp_path, capsys, pair):
        cfg = self._config(
            tmp_path, sequence={"type": "wj_chain", "chain_n": 2, "theta": "pi/4"},
            errors={"random_signs": {"seed": 0, "correlated_pair": pair}},
        )
        assert run_cli("sweep", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"error: errors.random_signs.correlated_pair {pair} is not two distinct labels\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_random_sign_model(self, tmp_path):
        cfg = self._config(
            tmp_path,
            errors={"random_signs": {"seed": 9}},
            grid={"lo": 1e-4, "hi": 1e-2, "points": 5},
        )
        assert run_cli("sweep", "--config", str(cfg)) == 0
        rows, _, _ = load_csv(tmp_path / "out.csv")
        assert all(r["signs"] for r in rows)
        # the seed column names the config seed that drew the signs
        assert all(r["seed"] == "9" for r in rows)

    def test_seed_column_empty_without_random_signs(self, tmp_path):
        assert run_cli("--seed", "4", "sweep", "--config", str(self._config(tmp_path))) == 0
        rows, _, _ = load_csv(tmp_path / "out.csv")
        assert all(r["seed"] == "" and r["signs"] == "" for r in rows)

    def test_usage_error_then_sweep_matches_lone_run(self, tmp_path):
        cfg = self._config(tmp_path, errors={"random_signs": {"seed": 9}})
        with pytest.raises(SystemExit) as exc:
            run_cli("--seed", "-1", "sweep", "--config", str(cfg))
        assert exc.value.code == 2
        assert run_cli("--seed", "3", "sweep", "--config", str(cfg)) == 0
        after_error = (tmp_path / "out.csv").read_bytes()
        # a lone run: a fresh process, whose parser has parsed nothing before
        env = dict(os.environ, PYTHONPATH=str(Path(pulsecomp.__file__).parents[1]))
        lone = "import sys; from pulsecomp.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", lone, "--seed", "3", "sweep", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.csv").read_bytes() == after_error

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        cfg = self._config(tmp_path, output=str(out))
        assert run_cli("sweep", "--config", str(cfg)) == 1
        assert f"error: cannot write {out}" in capsys.readouterr().err
        assert not out.exists()


class TestUsage:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_unknown_figure_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("figure", "bogus", "--out", "/tmp/x")
        assert exc.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "past-philox-keys"])
    def test_seed_outside_philox_keys(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            run_cli("--seed", seed, "figure", "chain", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_bad_threads(self):
        # There is no --threads option.
        with pytest.raises(SystemExit) as exc:
            run_cli("--threads", "1", "verify")
        assert exc.value.code == 2
