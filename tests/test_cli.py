"""End-to-end tests for the command-line interface."""

import csv
import json
import math

import numpy as np
import pytest

from pulsecomp import fit_slope
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
        import pulsecomp.cli as cli

        broken = dict(cli.VERIFY_CHECKS)
        broken["toggling"] = lambda: (False, "injected fault")
        monkeypatch.setattr(cli, "VERIFY_CHECKS", broken)
        assert run_cli("verify") == 1
        out = capsys.readouterr().out
        assert "[FAIL] toggling" in out


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

    def test_bad_threads(self):
        # There is no --threads option.
        with pytest.raises(SystemExit) as exc:
            run_cli("--threads", "1", "verify")
        assert exc.value.code == 2
