"""The check table of ``swanson verify``: ids, tolerances and the runner."""

import ast
import json
import warnings
from collections import Counter
from pathlib import Path

from swanson import numeric, verify
from swanson.potentials import w_of_z_jet
from swanson.cli import DEFAULT_TOLS, main
from swanson.errors import NonConvergent

IDS = [name for row in verify.ROWS for name in row.names]
FORWARD_IDS = [name for row in verify.ROWS if not row.inverse_only
               for name in row.names]

# the published tolerances; a change here is a change of what verify claims
PUBLISHED_TOLS = {
    "factorization_minus": 1e-10, "factorization_plus": 1e-10,
    "intertwining_down": 1e-9, "intertwining_up": 1e-9,
    "z_factorization_minus": 1e-10, "z_factorization_plus": 1e-10,
    "potential_matched_minus": 1e-10, "potential_expanded_minus": 1e-10,
    "potential_reduced_minus": 1e-10, "potential_reduced_plus": 1e-10,
    "potential_transformed_plus": 1e-10, "transform_shift_minus": 1e-10,
    "transform_shift_plus": 1e-10, "shape_invariance": 1e-10,
    "parity": 1e-10, "omega_hat_mu_identity": 1e-12,
    "omega_hat_gamma_identity": 1e-12, "eigen_residual_plus": 1e-8,
    "eigen_residual_minus": 1e-8, "ladder_closed_vs_operator": 1e-9,
    "ladder_up_consistency": 1e-8, "normalization_diagonal": 1e-8,
    "orthogonality_weighted": 1e-8, "fd_spectrum_plus": 1e-5,
    "isospectrality": 1e-5, "transformed_minus_residual_profile": 1e-9,
    "similarity_first_order": 1e-10, "partner_similarity": 1e-9,
    "metric_intertwining": 1e-9,
}

# the rows whose residual comes from numeric.quad_halfline
INTEGRATING = {"normalization_diagonal", "orthogonality_weighted",
               "normalization_integral_printed", "psi_norm_measure"}


def test_ids_are_unique_across_identities_and_errata():
    assert len(IDS) == len(set(IDS))


def test_default_tols_are_the_identity_rows_in_order():
    rows = [(name, row.tol) for row in verify.ROWS if row.tol is not None
            for name in row.names]
    assert list(DEFAULT_TOLS.items()) == rows
    assert list(DEFAULT_TOLS.items()) == list(PUBLISHED_TOLS.items())


def test_each_id_is_written_once_in_the_package():
    src = Path(verify.__file__).parent
    literals = Counter(
        node.value for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {name: literals[name] for name in IDS} == dict.fromkeys(IDS, 1)


def test_nonconvergent_quadrature_marks_exactly_the_rows_that_integrate(
        monkeypatch, tmp_path):
    def diverges(f, decay_rate, tol=1e-11):
        raise NonConvergent("forced")

    monkeypatch.setattr(numeric, "quad_halfline", diverges)
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    entries = doc["identities"] + doc["errata"]
    assert [e["id"] for e in entries] == FORWARD_IDS
    assert {e["id"] for e in entries if e["residual"] == "inf"} == INTEGRATING
    for e in entries:
        if e["id"] in INTEGRATING:
            assert e["note"] == "numeric non-convergence: forced"
            assert e["status"] in ("FAIL", "REPORTED")
        elif e["id"] in DEFAULT_TOLS:
            assert e["status"] == "PASS" and "note" not in e
    failed = [e["id"] for e in doc["identities"] if e["status"] == "FAIL"]
    assert set(failed) == INTEGRATING & set(DEFAULT_TOLS)


def test_arithmetic_error_is_recorded_like_nonconvergence(monkeypatch,
                                                         tmp_path):
    def overflows(f, decay_rate, tol=1e-11):
        raise OverflowError("forced")

    monkeypatch.setattr(numeric, "quad_halfline", overflows)
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    entries = doc["identities"] + doc["errata"]
    assert [e["id"] for e in entries] == FORWARD_IDS
    assert {e["id"]: e["note"] for e in entries if e["residual"] == "inf"} \
        == dict.fromkeys(INTEGRATING, "numeric failure: OverflowError: forced")


def test_extreme_parameters_give_the_whole_document_and_no_warnings(
        tmp_path):
    out = tmp_path / "verify.json"
    argv = ["verify", "--omega-bar", "6.679567213444102e-34",
            "--rho-q", "6.774429997209272e-52",
            "--d", "3.2088327224676075e-121", "--grids", "40,80",
            "--n-max", "1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    doc = json.loads(out.read_text())
    entries = doc["identities"] + doc["errata"]
    assert [e["id"] for e in entries] == FORWARD_IDS
    assert [e["id"] for e in doc["errata"] if e["residual"] == "inf"] \
        == ["normalization_integral_printed"]


def test_sweep_residual_is_the_larger_factorization_residual(tmp_path):
    point = ["--omega-bar", "1.7", "--rho-q", "0.8", "--d", "2.2",
             "--grids", "250,500"]
    sweep, report = tmp_path / "sweep.csv", tmp_path / "verify.json"
    assert main(["sweep", "--param", "d", "--range", "2.2:2.2", "--steps",
                 "1", "--out", str(sweep)] + point) == 0
    main(["verify", "--out", str(report)] + point)
    header, row = [line.split(",")
                   for line in sweep.read_text().splitlines()]
    by_id = {e["id"]: float(e["residual"])
             for e in json.loads(report.read_text())["identities"]}
    larger = max(by_id["factorization_minus"], by_id["factorization_plus"])
    assert float(row[header.index("max_identity_residual")]) == larger
    assert larger > 0


def test_shared_order_one_w_has_the_order_zero_value(fp_star):
    # the battery reads w's value off the order-1 jet it shares between checks
    for z in verify.SAMPLE_Z + [1e-3, 7.5, 16.0]:
        assert (w_of_z_jet(z, fp_star, 1).value.hex()
                == w_of_z_jet(z, fp_star, 0).value.hex())
