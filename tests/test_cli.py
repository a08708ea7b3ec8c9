"""Command-line surface: exit codes, output schemas, determinism."""

import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swanson
from swanson import verify
from swanson.cli import DEFAULT_TOLS, main
from swanson.verify import fmt as verify_fmt
from conftest import FEASIBLE_TRIPLES, phi_minus, phi_plus, subprocess_env

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

    def test_an_overflowing_cubic_names_itself_and_omega_bar(self, capsys):
        # omega_bar = 1e-155: the cubic's coefficients over its leading one
        # overflow, and the one stderr line says so rather than numpy's
        code, out, err = run_main(["solve", "--mode", "inverse", "--omega",
                                   "1.0", "--alpha", "1.0", "--beta",
                                   "-1e-155"], capsys)
        assert (code, out) == (3, "")
        assert err == ("numeric failure: FloatingPointError: the cubic "
                       "4 omega_bar d^3 + (a2 - 2 a1) d - 2 a1 for d has "
                       "non-finite companion coefficients at omega_bar = "
                       "1e-155\n")

    def test_a_root_whose_cube_overflows_names_the_cubic_and_d(self,
                                                                capsys):
        # omega_bar = 1e-150: the root d is about 7e149, and the Newton
        # polish's d^3 leaves the float range
        code, out, err = run_main(["solve", "--mode", "inverse", "--omega",
                                   "1.0", "--alpha", "1.0", "--beta",
                                   "-1e-150"], capsys)
        assert (code, out) == (3, "")
        assert err == ("numeric failure: OverflowError: the cubic "
                       "4 omega_bar d^3 + (a2 - 2 a1) d - 2 a1 for d "
                       "overflows at its root d = 7.07107e+149, omega_bar "
                       "= 1e-150\n")

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

    @pytest.mark.parametrize("command, fmt", [
        ("solve", "csv"), ("verify", "csv"), ("sweep", "json")])
    def test_config_format_is_checked_against_the_command(
            self, command, fmt, tmp_path, capsys):
        # refused as the --format flag is refused
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": fmt}))
        code, out, err = run_main([command, "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err == f"config error: {command} writes " \
            f"{'csv' if command == 'sweep' else 'json'}, not '{fmt}'\n"

    def test_config_format_the_command_writes(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        code, out, _ = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("n,E_analytic,")

    def test_the_fd_box_is_not_configurable(self, tmp_path, capsys):
        # the box comes from the potential: no z_min/z_max flag or field
        for flag in ("--z-min", "--z-max"):
            assert run_main(["spectrum", flag, "1e-3"], capsys)[0] == 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"z_min": 1e-3}))
        code, _, err = run_main(["spectrum", "--config", str(cfg)], capsys)
        assert code == 1
        assert err == "config error: unknown config field 'z_min'\n"

    def test_the_gauge_constant_is_not_configurable(self, tmp_path, capsys):
        # verify fits the gauge constant; no delta flag or field sets it
        code, _, err = run_main(["verify", "--delta", "5"], capsys)
        assert code == 1
        assert err.startswith("config error: unrecognized arguments: --delta")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delta": 5.0}))
        code, _, err = run_main(["solve", "--config", str(cfg)], capsys)
        assert code == 1
        assert err == "config error: unknown config field 'delta'\n"

    @pytest.mark.parametrize("args", [
        ["spectrum", "--config", "{tmp}/n_max_string.json"],
        # the grids of the old FD oracle are gone, and the mesh solves at
        # most 250 levels
        ["spectrum", "--grids", "100,300"],
        ["spectrum", "--config", "{tmp}/grids.json"],
        ["spectrum", "--n-max", "250"],
        ["spectrum", "--n-max", "1000000000"],
        ["solve", "--out", "{tmp}/missing/dir/x"],
        ["solve", "--omega-bar", "inf"],
        ["solve", "--config", "{tmp}/list.json"],
        ["verify", "--config", "{tmp}/tols_list.json", "--tol",
         "transform_shift_plus=1"],
        ["verify", "--tol", "transform_shift_plus=nan"],
        ["verify", "--tol", "transform_shift_plus=-1"],
        ["solve", "--config", "{tmp}/method_name.json"],
        # --format takes only what the command writes
        ["solve", "--format", "csv"],
        ["verify", "--format", "csv"],
        ["sweep", "--format", "json"],
    ])
    def test_bad_input_is_one_config_error_line(self, args, tmp_path, capsys):
        for name, text in (("n_max_string", '{"n_max": "3"}'),
                           ("list", "[1, 2]"),
                           ("tols_list", '{"tols": [1]}'),
                           ("method_name", '{"validate": 1}'),
                           ("grids", '{"grids": [500, 1000]}')):
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
            assert abs(float(r[2]) - want) <= 1e-6 * want  # plus-side mesh
            assert abs(float(r[3]) - want) <= 1e-6 * want  # minus-side mesh

    def test_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["spectrum", "--n-max", "0", "--format", "csv",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_the_largest_accepted_n_max_reaches_the_mesh(self, monkeypatch,
                                                         capsys):
        # n_max = 249 asks the mesh for its 250 levels
        from swanson import numeric

        asked = []

        def levels(V, k, solve=numeric.mesh_levels):
            asked.append(k)
            return solve(V, k)

        monkeypatch.setattr(numeric, "mesh_levels", levels)
        code, out, err = run_main(["spectrum", "--n-max", "249"], capsys)
        assert (code, err) == (0, "")
        assert asked == [250, 250] and len(json.loads(out)) == 250


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
        # a grid point is skipped once, whatever the number of states
        code, _, err = run_main(["wavefunctions", "--n-list", "0,1,2",
                                 "--z-grid=-1,0,1", "--format", "csv",
                                 "--out", str(out)], capsys)
        assert code == 0
        assert err == "warning: skipped 2 non-positive grid points\n"
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_grid_rows_equal_one_point_runs(self, side, capsys):
        zs = ["0.05", "0.7", "1.3", "2.9"]
        argv = ["wavefunctions", "--side", side, "--n-list", "3,0,17",
                "--format", "csv", "--omega-bar", "0.7", "--d", "1.9"]
        code, grid, _ = run_main(argv + ["--z-grid", ",".join(zs)], capsys)
        assert code == 0
        one = []  # one[i][k]: the row of the k-th state at zs[i]
        for z in zs:
            code, out, _ = run_main(argv + ["--z-grid", z], capsys)
            assert code == 0
            one.append(out.splitlines()[1:])
        assert grid.splitlines()[1:] == [
            one[i][k] for k in range(3) for i in range(len(zs))]

    @pytest.mark.parametrize("side", ["plus", "minus"])
    def test_rows_equal_the_order_two_state(self, side, capsys):
        # the rows read the value and first derivative of order-1 jets; each
        # equals the order-2 jet's bit for bit, and a state fails exactly
        # where the order-2 jet leaves the float range too
        import numpy as np
        from swanson.params import solve_forward

        zs = [1e-300, 1e-30, 1e-3, 0.31, 1.0, 1.7, 10.0, 1e8, 1e300]
        compared = 0
        for point in [(1.0, 1.0, 1.0), (0.2, 3.0, 0.2), (4.0, 0.1, 3.0),
                      (1.0, 1e-30, 1 / 1.5), (1.0, 1.0, 1e150 / 2.5)]:
            fp = solve_forward(*point)
            flags = [f for name, v in zip(("--omega-bar", "--rho-q", "--d"),
                                          point) for f in (name, repr(v))]
            for n in (0, 1, 5, 17, 40):
                for z in (zs[3:7], *([v] for v in zs)):
                    code, out, _ = run_main(
                        ["wavefunctions", "--side", side, "--n-list", str(n),
                         "--z-grid", ",".join(map(repr, z)), *flags], capsys)
                    j = (phi_plus(fp, n, np.array(z), 2)
                         if side == "plus" else phi_minus(
                             fp, n, np.array(z), "normalized", 2))
                    v, dv = j.value, j.derivative(1)
                    finite = np.isfinite(v).all() and np.isfinite(dv).all()
                    assert code == (0 if finite else 3)
                    if finite:
                        compared += 1
                        assert [(r["value"], r["derivative"])
                                for r in json.loads(out)] == [
                            (verify_fmt(a), verify_fmt(b))
                            for a, b in zip(v.tolist(), dv.tolist())]
        assert compared >= 100

    @pytest.mark.parametrize("side, z_grid, message", [
        # each point's own first error: at the subnormal z, w = p/z is
        # inf, which only the minus side reads; the plus state and its
        # derivative are finite there (0), and at 1e300 (t = inf) every
        # state leaves the float range
        ("minus", "5e-324,1e300,1",
         "OverflowError: state 0 leaves the float range at z = 5e-324"),
        ("plus", "5e-324,1e300,1",
         "OverflowError: state 0 leaves the float range at z = 1e+300"),
        ("minus", "1e-300,1e300,3",
         "OverflowError: state 0 leaves the float range at z = 1e-300"),
        ("minus", "1e300,3,5e-324",
         "OverflowError: state 0 leaves the float range at z = 1e+300"),
    ])
    def test_error_is_the_first_failing_point(self, side, z_grid, message,
                                              capsys):
        code, out, err = run_main(["wavefunctions", "--side", side,
                                   "--n-list", "0,3", "--omega-bar", "0.01",
                                   "--z-grid", z_grid], capsys)
        assert (code, out) == (3, "")
        assert err == f"numeric failure: {message}\n"


def _reference_csv(rows, header) -> str:
    """A table as ``csv.writer`` writes it with ``fmt`` on each float cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [verify_fmt(v) if isinstance(v, float) else str(v) for v in row]
        for row in [header, *rows])
    return buf.getvalue()


class TestTableBytes:
    # spectrum and wavefunctions write their csv tables with one %-template
    # a row; each table is byte for byte what csv.writer writes with fmt on
    # each cell, on the very rows the command emits

    def _tables(self, argvs, monkeypatch, capsys) -> list:
        from swanson import cli

        seen, emit = [], cli._emit_rows

        def record(cfg, rows, header):
            seen.append((list(rows), header))
            emit(cfg, seen[-1][0], header)

        monkeypatch.setattr(cli, "_emit_rows", record)
        cells = []
        for argv in argvs:
            code, out, _ = run_main(argv + ["--format", "csv"], capsys)
            assert code == 0
            assert out == _reference_csv(*seen[-1])
            cells += [v for row in seen[-1][0] for v in row[1:]]
        return cells

    def test_spectrum_table(self, monkeypatch, capsys):
        cells = self._tables([["spectrum", "--n-max", "200"],
                              ["spectrum", "--n-max", "3", "--omega-bar",
                               "0.2", "--rho-q", "0.1", "--d", "3"]],
                             monkeypatch, capsys)
        assert len(cells) == 4 * 205

    def test_wavefunctions_table(self, monkeypatch, capsys):
        grid = ["--z-grid", "1e-30,1e-3,0.31,1,1.7,10,25"]
        argvs = [["wavefunctions", "--side", side, "--n-list", ns] + grid
                 + point for side in ("plus", "minus")
                 for ns, point in (("0,1,2,5,17,40,120,200", []),
                                   ("0,1", ["--d", repr(1e150 / 2.5)]),
                                   ("3,2,2", ["--omega-bar", "6.68e-34",
                                              "--rho-q", "6.77e-52",
                                              "--d", "3.21e-121"]))]
        cells = self._tables(argvs, monkeypatch, capsys)
        # the states underflow to zero of both signs on these grids
        assert {math.copysign(1.0, v) for v in cells if v == 0} == {-1.0,
                                                                    1.0}

    def test_row_template_on_special_values(self, capsys):
        import numpy as np
        from swanson.cli import RunConfig, _emit_rows

        values = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, math.inf,
                  -math.inf, math.nan, 1 / 3, np.float64(-0.0),
                  np.float64(2.5e-310), np.float64(math.nan),
                  np.float64(-math.inf), np.float64(1 / 7)]
        rows = [(n, v, -v, v * 0.5) for n, v in enumerate(values)]
        header = ["n", "a", "b", "c"]
        _emit_rows(RunConfig(format="csv"), rows, header)
        out = capsys.readouterr().out
        assert out == _reference_csv(rows, header)
        assert out.splitlines()[2] == "1,-0,0,-0"
        assert out.splitlines()[9] == "8,nan,nan,nan"


class TestVerify:
    def test_forward_reference_all_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(e["status"] == "PASS" for e in doc["identities"])
        assert all(e["status"] == "REPORTED" for e in doc["errata"])

    @pytest.mark.parametrize("r, omega_hat", [
        (10.0, 1e100), (100.0, 1e30), (1000.0, 1.0)])
    def test_large_gamma_points_print_a_full_document(self, r, omega_hat,
                                                      capsys):
        # the plus-side norm or z^(gamma - 1/2) alone leaves the float
        # range here; the states form them inside one exp
        code, out, err = run_main([
            "verify", "--omega-bar", "1", "--rho-q", repr(r),
            "--d", repr(omega_hat / (1.5 + r)), "--n-max", "2"], capsys)
        assert code in (0, 3) and err == ""
        doc = json.loads(out)
        assert sorted(e["id"] for e in doc["identities"] + doc["errata"]) \
            == sorted(name for row in verify.ROWS if not row.inverse_only
                      for name in row.names)

    def test_errata_section_contents(self, tmp_path):
        out = tmp_path / "verify.json"
        main(["verify", "--out", str(out)])
        doc = json.loads(out.read_text())
        ids = {e["id"] for e in doc["errata"]}
        assert {"partner_general_form", "matched_plus_form",
                "expanded_plus_form", "transformed_minus_printed",
                "ladder_printed_form", "normalization_integral_printed"} <= ids

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

    def test_nonconvergent_oracle_keeps_the_report(self, tmp_path,
                                                   monkeypatch):
        from swanson import numeric
        from swanson.errors import NonConvergent

        def levels(*args):
            raise NonConvergent("the 46-node mesh's levels differ from its "
                                "leading 23-row block's by 0.07, above "
                                "0.025")

        monkeypatch.setattr(numeric, "mesh_levels", levels)
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
            assert "23-row block" in by_id[name]["note"]

    def test_bad_tolerance_syntax(self, capsys):
        assert run_main(["verify", "--tol", "oops"], capsys)[0] == 1

    # rows that hold by construction or follow from others are not rows,
    # so their ids are unknown
    @pytest.mark.parametrize("name", ["nosuch", "shape_invariance", "parity",
                                      "z_factorization_minus",
                                      "intertwining_up"])
    def test_unknown_tolerance_id_flag(self, name, capsys):
        code, out, err = run_main(["verify", "--tol", f"{name}=1e-3"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"config error: unknown tolerance id {name!r}\n"

    @pytest.mark.parametrize("tols", [{"nosuch": 1}, 5,
                                      {"isospectrality": "x"},
                                      {"transform_shift_plus": math.nan},
                                      {"transform_shift_plus": -1},
                                      {"transform_shift_plus": True}])
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

    @pytest.mark.parametrize("message", [
        "the 46-node mesh's levels differ from its leading 23-row block's by "
        "0.07, above 0.025",
        'quadrature on [0, 1] did not "stabilize"'])
    def test_failed_row_names_stage_type_and_message(self, message,
                                                     monkeypatch, capsys):
        from swanson import numeric
        from swanson.errors import NonConvergent
        argv = ["sweep", "--param", "rho_q", "--range", "0.5:1.0",
                "--steps", "2"]
        code, ok_out, _ = run_main(argv, capsys)
        assert code == 0

        def fail(*args):
            raise NonConvergent(message)

        monkeypatch.setattr(numeric, "mesh_levels", fail)
        code, out, _ = run_main(argv, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert ([r[-1] for r in rows[1:]]
                == [f"mesh: NonConvergent: {message}"] * 2)
        assert all(len(r) == 9 for r in rows)
        # rows without a comma or a quote are written as bare cells
        for line in ok_out.splitlines():
            assert '"' not in line and len(line.split(",")) == 9
        assert out.splitlines()[0] == ok_out.splitlines()[0]

    def test_overflowing_row_names_the_quantity_and_the_point(self, capsys):
        code, out, _ = run_main(["sweep", "--param", "d", "--range",
                                 "1:1e200", "--steps", "2"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[-1] for r in rows[1:]] == [
            "ok", "mesh: OverflowError: w^2 in the canonical plus potential "
            "overflows at z = 1"]

    def test_failed_solve_is_one_quoted_cell(self, capsys):
        code, out, _ = run_main(["sweep", "--param", "rho_q", "--range",
                                 "0.0:1.0", "--steps", "2"], capsys)
        assert code == 0
        first = out.splitlines()[1]
        assert first == ("0,nan,nan,nan,nan,nan,nan,nan,\"solve: ValueError: "
                         "solve_forward needs omega_bar, rho_q, d all > 0\"")


class TestNegativeValues:
    # a negative value written with an exponent, or a range that starts
    # below zero, is read as a value, the same as in the --flag=value form
    @pytest.mark.parametrize("spaced, joined, code", [
        (["solve", "--mode", "inverse", "--omega", "1", "--alpha", "-2.5e-3",
          "--beta", "0.1"],
         ["solve", "--mode", "inverse", "--omega", "1", "--alpha=-2.5e-3",
          "--beta", "0.1"], 2),
        (["sweep", "--range", "-1:2", "--steps", "2"],
         ["sweep", "--range=-1:2", "--steps", "2"], 0),
        (["solve", "--mode", "inverse", "--omega", "1", "--alpha", "-inf",
          "--beta", "0.1"],
         ["solve", "--mode", "inverse", "--omega", "1", "--alpha=-inf",
          "--beta", "0.1"], 1),
        (["solve", "--mode", "inverse", "--omega", "1", "--alpha", "0.2",
          "--beta", "-NaN"],
         ["solve", "--mode", "inverse", "--omega", "1", "--alpha", "0.2",
          "--beta=-NaN"], 1),
    ])
    def test_spaced_form_matches_joined_form(self, spaced, joined, code,
                                             capsys):
        got = run_main(spaced, capsys)
        assert got == run_main(joined, capsys)
        assert got[0] == code
        assert "expected one argument" not in got[2]

    def test_negative_non_number_reaches_the_value_check(self, capsys):
        _, _, err = run_main(["solve", "--mode", "inverse", "--omega", "1",
                              "--alpha", "-inf", "--beta", "0.1"], capsys)
        assert err == ("config error: alpha must be a finite number or null, "
                       "got -inf\n")


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

    def test_shared_parser_keeps_no_state_between_calls(self, capsys):
        # one parser serves every main() call of the process
        wave = ["wavefunctions", "--n-list", "0,2", "--z-grid", "0.4,1.1"]
        calls = [["verify", "--tol", "transform_shift_plus=0.5", "--tol",
                  "fd_spectrum_plus=1e-3"],
                 ["verify"],
                 wave + ["--side", "minus", "--format", "csv"],
                 wave,
                 ["solve", "--mode", "inverse", *FEASIBLE]]
        first = [run_main(argv, capsys) for argv in calls]
        again = [run_main(argv, capsys) for argv in reversed(calls)]
        assert first == again[::-1]
        tols = [{e["id"]: e["tolerance"]
                 for e in json.loads(out)["identities"]}
                for _, out, _ in first[:2]]
        assert (tols[0]["transform_shift_plus"],
                tols[0]["fd_spectrum_plus"]) == ("0.5", "0.001")
        assert (tols[1]["transform_shift_plus"],
                tols[1]["fd_spectrum_plus"]) == (
            verify_fmt(DEFAULT_TOLS["transform_shift_plus"]),
            verify_fmt(DEFAULT_TOLS["fd_spectrum_plus"]))
        assert first[2][1].startswith("n,z,value,derivative\n")
        assert json.loads(first[3][1])[0]["value"] != json.loads(
            run_main(wave + ["--side", "minus"], capsys)[1])[0]["value"]
        assert json.loads(first[4][1])["mode"] == "inverse"

    def test_parser_is_built_on_the_first_call_not_at_import(self):
        probe = ("import swanson.cli as c\n"
                 "before = c._parser.cache_info().currsize\n"
                 "c.main(['solve'])\n"
                 "c.main(['solve'])\n"
                 "print(before, c._parser.cache_info().currsize,"
                 " c._parser.cache_info().misses)\n")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout.split()[-3:] == ["0", "1", "1"]

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
