"""Command-line surface: exit codes, output schemas, determinism."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swanson
from swanson.cli import DEFAULT_TOLS, main
from conftest import FEASIBLE_TRIPLES, subprocess_env

FEASIBLE = ["--omega", "0.0375710788598238",
            "--alpha", "-2.4421921617411186",
            "--beta", "0.8317834733059061"]


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolve:
    def test_forward_reference(self, capsys):
        code, out, _ = run_main(["solve", "--mode", "forward", "--omega-bar",
                                 "1", "--rho-q", "1", "--d", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["mu"] == "-2.5"
        assert doc["params"]["lambda"] == "-2"
        assert doc["params"]["omega_hat"] == "2.5"
        assert doc["params"]["gamma"] == "2.5"

    def test_inverse_residual_block(self, capsys):
        code, out, _ = run_main(["solve", "--mode", "inverse"] + FEASIBLE,
                                capsys)
        assert code == 0
        doc = json.loads(out)
        assert float(doc["residuals"]["rational_quad"]) < 1e-9
        assert float(doc["residuals"]["rational_cubic"]) < 1e-9
        assert doc["feasible_4X"] is True

    def test_flagship_inverse_is_infeasible(self, capsys):
        code, _, err = run_main(["solve", "--mode", "inverse", "--omega", "2",
                                 "--alpha", "0.5", "--beta", "0.1"], capsys)
        assert code == 2
        assert "infeasible" in err

    def test_equal_couplings_config_error(self, capsys):
        code, _, err = run_main(["solve", "--mode", "inverse", "--omega", "2",
                                 "--alpha", "0.3", "--beta", "0.3"], capsys)
        assert code == 1
        assert "alpha" in err

    def test_unknown_flag(self, capsys):
        assert run_main(["solve", "--frobnicate"], capsys)[0] == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mode": "forward", "omega_bar": 1.0,
                                   "rho_q": 1.0, "d": 2.0}))
        code, out, _ = run_main(["solve", "--config", str(cfg), "--d", "1"],
                                capsys)
        assert code == 0
        assert json.loads(out)["params"]["mu"] == "-2.5"  # flag wins

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mode": "forward", "bogus": 1}))
        assert run_main(["solve", "--config", str(cfg)], capsys)[0] == 1

    @pytest.mark.parametrize("args", [
        ["spectrum", "--config", "{tmp}/n_max_string.json"],
        ["spectrum", "--grids", "100,300"],
        ["spectrum", "--n-max", "50", "--grids", "20,40"],
        ["solve", "--out", "{tmp}/missing/dir/x"],
        ["solve", "--omega-bar", "inf"],
        ["solve", "--config", "{tmp}/list.json"],
        ["verify", "--config", "{tmp}/tols_list.json", "--tol", "parity=1"],
        ["verify", "--tol", "parity=nan"],
        ["verify", "--tol", "parity=-1"],
        ["solve", "--config", "{tmp}/method_name.json"],
    ])
    def test_bad_input_is_one_config_error_line(self, args, tmp_path, capsys):
        for name, text in (("n_max_string", '{"n_max": "3"}'),
                           ("list", "[1, 2]"),
                           ("tols_list", '{"tols": [1]}'),
                           ("method_name", '{"validate": 1}')):
            (tmp_path / f"{name}.json").write_text(text)
        args = [a.format(tmp=tmp_path) for a in args]
        code, out, err = run_main(args, capsys)
        assert code == 1
        assert out == "" and "Traceback" not in err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestSpectrum:
    def test_reference_rows(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--n-max", "2", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("n,E_analytic,")
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        for r, want in zip(rows, (35.0, 45.0, 55.0)):
            assert float(r[1]) == want
            assert abs(float(r[2]) - want) <= 1e-6 * want  # plus-side FD
            assert abs(float(r[3]) - want) <= 1e-6 * want  # minus-side FD

    def test_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["spectrum", "--n-max", "0", "--format", "csv",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestWavefunctions:
    def test_reference_samples(self, tmp_path):
        out = tmp_path / "wf.csv"
        code = main(["wavefunctions", "--side", "plus", "--n-list", "0",
                     "--z-grid", "0.5,1.0,1.5", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        row_z1 = lines[2].split(",")
        assert abs(float(row_z1[2]) - 1.1047) < 1e-3

    def test_minus_first_excited_has_a_node(self, tmp_path):
        out = tmp_path / "wf.csv"
        zs = ",".join(str(0.1 + 0.05 * i) for i in range(60))
        assert main(["wavefunctions", "--side", "minus", "--n-list", "1",
                     "--z-grid", zs, "--format", "csv", "--out", str(out)]) == 0
        vals = [float(l.split(",")[2])
                for l in out.read_text().splitlines()[1:]]
        crossings = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
        assert crossings == 1

    def test_state_200_is_finite(self, tmp_path):
        out = tmp_path / "wf.csv"
        assert main(["wavefunctions", "--side", "minus", "--n-list", "200",
                     "--z-grid", "0.5,1.0,3.0,9.0", "--format", "csv",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(math.isfinite(float(v)) for r in rows for v in r[2:])

    def test_empty_state_list(self, tmp_path, capsys):
        out = tmp_path / "wf.csv"
        code, _, _ = run_main(["wavefunctions", "--n-list", "", "--format",
                               "csv", "--out", str(out)], capsys)
        assert code == 0
        assert out.read_text().splitlines() == ["n,z,value,derivative"]

    def test_nonpositive_grid_points_skipped_with_warning(self, tmp_path,
                                                          capsys):
        out = tmp_path / "wf.csv"
        code, _, err = run_main(["wavefunctions", "--n-list", "0",
                                 "--z-grid=-1.0,1.0", "--format", "csv",
                                 "--out", str(out)], capsys)
        assert code == 0
        assert "skipped 1" in err
        assert len(out.read_text().splitlines()) == 2


class TestVerify:
    def test_forward_reference_all_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(e["status"] == "PASS" for e in doc["identities"])
        assert all(e["status"] == "REPORTED" for e in doc["errata"])

    def test_errata_section_contents(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--out", str(out)])
        doc = json.loads(out.read_text())
        ids = {e["id"] for e in doc["errata"]}
        assert {"partner_general_form", "matched_plus_form",
                "expanded_plus_form", "transformed_minus_printed",
                "ladder_printed_form", "normalization_integral_printed",
                "psi_norm_measure"} <= ids

    def test_inverse_adds_constraint_block(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--mode", "inverse"] + FEASIBLE
                    + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert "constraint_residuals" in doc
        ids = {e["id"] for e in doc["errata"]}
        assert {"rational_ansatz_minus", "intertwiner_printed",
                "gauge_constant_fit"} <= ids

    def test_tolerance_override_forces_failure(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "--tol", "factorization_minus=1e-30",
                     "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        failed = [e for e in doc["identities"] if e["status"] == "FAIL"]
        assert [e["id"] for e in failed] == ["factorization_minus"]

    def test_nonconvergent_oracle_keeps_the_report(self, tmp_path):
        # the FD oracle stops at observed order 1.47 on this triple
        om, al, be = FEASIBLE_TRIPLES[4]
        out = tmp_path / "verify.json"
        code = main(["verify", "--mode", "inverse", "--omega", repr(om),
                     "--alpha", repr(al), "--beta", repr(be),
                     "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert [e["id"] for e in doc["identities"]] == list(DEFAULT_TOLS)
        by_id = {e["id"]: e for e in doc["identities"]}
        for name in ("fd_spectrum_plus", "isospectrality"):
            assert by_id[name]["status"] == "FAIL"
            assert by_id[name]["residual"] == "inf"
            assert "order" in by_id[name]["note"]

    def test_bad_tolerance_syntax(self, capsys):
        assert run_main(["verify", "--tol", "oops"], capsys)[0] == 1

    def test_unknown_tolerance_id_flag(self, capsys):
        code, out, err = run_main(["verify", "--tol", "nosuch=1"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "nosuch" in err

    @pytest.mark.parametrize("tols", [{"nosuch": 1}, 5,
                                      {"isospectrality": "x"},
                                      {"parity": math.nan}, {"parity": -1},
                                      {"parity": True}])
    def test_bad_tolerances_in_config(self, tols, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tols": tols}))
        code, out, err = run_main(["verify", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_known_tolerance_id_from_config(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tols": {"factorization_plus": 1e-30}}))
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        doc = json.loads(out.read_text())
        failed = [e["id"] for e in doc["identities"] if e["status"] == "FAIL"]
        assert failed == ["factorization_plus"]
        assert set(e["id"] for e in doc["identities"]) <= set(DEFAULT_TOLS)


class TestSweep:
    def test_monotone_ground_level(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--param", "rho_q", "--range", "0.5:2.0",
                     "--steps", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        e0 = [float(l.split(",")[1]) for l in lines[1:]]
        assert e0 == sorted(e0) and len(set(e0)) == 4

    def test_failed_step_recorded_in_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--param", "rho_q", "--range", "0.0:1.0",
                     "--steps", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[-1] != "ok"  # rho_q = 0 row errored
        assert lines[2].split(",")[-1] == "ok"

    def test_bad_range_syntax(self, capsys):
        assert run_main(["sweep", "--param", "d", "--range", "1-2",
                         "--steps", "2"], capsys)[0] == 1


class TestDeterminism:
    def test_verify_and_spectrum_byte_identical(self, tmp_path):
        pairs = []
        for tag in ("a", "b"):
            v = tmp_path / f"verify_{tag}.json"
            s = tmp_path / f"spectrum_{tag}.csv"
            assert main(["verify", "--out", str(v)]) == 0
            assert main(["spectrum", "--n-max", "2", "--format", "csv",
                         "--out", str(s)]) == 0
            pairs.append((v.read_bytes(), s.read_bytes()))
        assert pairs[0] == pairs[1]

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swanson.cli", "solve", "--mode", "forward",
             "--omega-bar", "1", "--rho-q", "1", "--d", "1"],
            capture_output=True, text=True, env=subprocess_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["params"]["gamma"] == "2.5"


class TestVersion:
    def test_pyproject_reads_package_version(self):
        # a regex rather than tomllib, which Python 3.10 lacks
        text = (Path(__file__).resolve().parents[1]
                / "pyproject.toml").read_text()
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert re.search(r'^dynamic\s*=\s*\[\s*"version"\s*\]', project, re.M)
        assert not re.search(r"^version\s*=", project, re.M)
        dynamic = text.split("[tool.setuptools.dynamic]", 1)[1]
        assert re.search(
            r'^version\s*=\s*\{\s*attr\s*=\s*"swanson.__version__"\s*\}',
            dynamic, re.M)
        assert re.fullmatch(r"\d+\.\d+\.\d+", swanson.__version__)

    def test_verify_report_names_package_version(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["environment"]["package"] == f"swanson {swanson.__version__}"
