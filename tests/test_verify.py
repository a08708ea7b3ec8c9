"""The check table of ``swanson verify``: ids, tolerances and the runner."""

import ast
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from swanson import numeric, spectrum, verify
from swanson.jets import Jet
from swanson.cli import DEFAULT_TOLS, main
from swanson.errors import NonConvergent
from conftest import phi_minus, phi_plus, random_forward_sets

IDS = [name for row in verify.ROWS for name in row.names]
FORWARD_IDS = [name for row in verify.ROWS if not row.inverse_only
               for name in row.names]

# the published tolerances; a change here is a change of what verify claims
PUBLISHED_TOLS = {
    "factorization_minus": 1e-10, "factorization_plus": 1e-10,
    "potential_matched_minus": 1e-10, "potential_expanded_minus": 1e-10,
    "potential_reduced_minus": 1e-10, "potential_reduced_plus": 1e-10,
    "potential_transformed_plus": 1e-10, "transform_shift_minus": 1e-10,
    "transform_shift_plus": 1e-10,
    "eigen_residual_plus": 1e-8, "eigen_residual_minus": 1e-8,
    "ladder_closed_vs_operator": 1e-9, "orthonormality_plus": 1e-8,
    "fd_spectrum_plus": 1e-5, "isospectrality": 1e-5,
    "transformed_minus_residual_profile": 1e-9,
    "partner_similarity": 1e-9,
    "metric_intertwining": 1e-9,
}

# the rows whose residual comes from numeric.quad_halfline
INTEGRATING = {"orthonormality_plus", "normalization_integral_printed"}
# the mesh oracle's rows, whose note states the mesh size and observed error
MESH = {"fd_spectrum_plus", "isospectrality"}


def test_ids_are_unique_across_identities_and_errata():
    assert len(IDS) == len(set(IDS))


def test_default_tols_are_the_identity_rows_in_order():
    rows = [(name, row.tol) for row in verify.ROWS if row.tol is not None
            for name in row.names]
    assert list(DEFAULT_TOLS.items()) == rows
    assert list(DEFAULT_TOLS.items()) == list(PUBLISHED_TOLS.items())


def test_no_identity_row_reads_zero_everywhere(inverse_sets):
    # a row that holds by construction reads 0 at every point and measures
    # nothing: each forward row is nonzero at some corner of the box, each
    # inverse-only row at some frozen triple
    import itertools
    from swanson.cli import RunConfig
    from swanson.params import solve_forward

    def nonzero(runs):
        return {e["id"] for fp, mp in runs
                for e in verify.run(RunConfig(), fp, mp)[0]
                if float(e["residual"]) != 0}

    corners = itertools.product((0.2, 1.0, 4.0), (0.1, 1.0, 3.0),
                                (0.2, 1.0, 3.0))
    inverse = {name for row in verify.ROWS if row.inverse_only
               and row.tol is not None for name in row.names}
    assert set(DEFAULT_TOLS) - inverse - nonzero(
        (solve_forward(*p), None) for p in corners) == set()
    assert inverse - nonzero((fp, mp) for mp, fp, _ in inverse_sets) == set()


def test_each_id_is_written_once_in_the_package():
    src = Path(verify.__file__).parent
    literals = Counter(
        node.value for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str))
    assert {name: literals[name] for name in IDS} == dict.fromkeys(IDS, 1)


def test_nonconvergent_quadrature_marks_exactly_the_rows_that_integrate(
        monkeypatch, tmp_path):
    def diverges(f, decay_rate, alpha, degree):
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
            assert e["status"] == "PASS"
            assert (e["note"].startswith("mesh of 120 nodes")
                    if e["id"] in MESH else "note" not in e)
    failed = [e["id"] for e in doc["identities"] if e["status"] == "FAIL"]
    assert set(failed) == INTEGRATING & set(DEFAULT_TOLS)


def test_arithmetic_error_is_recorded_like_nonconvergence(monkeypatch,
                                                         tmp_path):
    def overflows(f, decay_rate, alpha, degree):
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
            "--d", "3.2088327224676075e-121", "--n-max", "1",
            "--out", str(out)]
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
    point = ["--omega-bar", "1.7", "--rho-q", "0.8", "--d", "2.2"]
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


def test_the_gram_row_is_exact():
    # in t = omega_hat z^2 each product phi_m phi_n dz is t^(gamma-1) e^-t dt
    # times a polynomial of degree 2(N_STATES - 1), which the Gauss-Laguerre
    # rule takes exactly: the whole Gram matrix reads rounding
    from swanson.params import solve_forward

    for fp in random_forward_sets(3, seed=21) + [
            solve_forward(1.0, 100.0, 1.0 / 101.5)]:
        r = type("Run", (), {"fp": fp})()
        assert verify._orthonormality(r) <= 1e-12


def test_the_gram_row_sees_an_off_diagonal_overlap(monkeypatch, fp_star):
    # phi_1 + eps phi_0 in place of phi_1 keeps its norm to O(eps^2) but
    # overlaps phi_0 by eps; the row reads the whole ladder from one call
    plain = spectrum.phi_plus_jet

    def mixed(fp, n, z, order):
        rows = [c.copy() for c in plain(fp, n, z, order).coeffs]
        for c in rows:
            c[1] += 1e-6 * c[0]
        return Jet(tuple(rows))

    monkeypatch.setattr(spectrum, "phi_plus_jet", mixed)
    r = type("Run", (), {"fp": fp_star})()
    assert verify._orthonormality(r) == pytest.approx(1e-6, rel=1e-6)


def test_the_integrating_rows_pass_where_the_states_live_far_out(capsys):
    # at r = rho_q / sqrt(omega_bar) = 100 the states carry their mass near
    # t = gamma = 101.5, beyond a window fixed in omega_hat alone
    assert main(["verify", "--omega-bar", "1", "--rho-q", "100",
                 "--d", "0.009852216748768473", "--n-max", "2"]) == 3
    rows = {e["id"]: e for e in json.loads(capsys.readouterr().out)[
        "identities"]}
    assert rows["orthonormality_plus"]["status"] == "PASS"
    assert float(rows["orthonormality_plus"]["residual"]) <= 1e-12


def test_rows_scaled_by_vanishing_states_say_so(capsys):
    # at omega_hat = 1e6 every state underflows at SAMPLE_Z: the rows that
    # divide by max|phi| read NaN and FAIL, and their note gives the reason
    assert main(["verify", "--omega-bar", "1", "--rho-q", "1",
                 "--d", "4e5", "--n-max", "2"]) == 3
    rows = {e["id"]: e for e in json.loads(capsys.readouterr().out)[
        "identities"]}
    noted = {name for name, e in rows.items() if "note" in e} - MESH
    assert noted == {"eigen_residual_plus", "eigen_residual_minus"}
    for name in noted:
        assert (rows[name]["residual"], rows[name]["status"],
                rows[name]["note"]) == (
            "nan", "FAIL", "the closed-form states vanish at every sample "
            "point")


def test_a_refused_plus_mesh_fails_only_its_own_row(monkeypatch):
    # each side's solve belongs to its own row: the minus levels are still
    # matched when the plus mesh fails its error gate, and each side is
    # solved once for its row and its note
    from swanson.cli import RunConfig
    from swanson.params import solve_forward

    fp = solve_forward(1.0, 1.0, 1.0)
    exact = spectrum.energies_plus(fp, 2)
    calls = []

    def levels(V, k):
        calls.append(k)
        if len(calls) == 1:
            raise NonConvergent("error gate")
        return exact[:k], 1e-9

    monkeypatch.setattr(numeric, "mesh_levels", levels)
    rows = {e["id"]: e for e in verify.run(RunConfig(), fp)[0]}
    assert calls == [3, 3]
    assert (rows["fd_spectrum_plus"]["residual"],
            rows["fd_spectrum_plus"]["status"],
            rows["fd_spectrum_plus"]["note"]) == (
        "inf", "FAIL", "numeric non-convergence: error gate")
    assert (rows["isospectrality"]["residual"],
            rows["isospectrality"]["status"],
            rows["isospectrality"]["note"]) == (
        "0", "PASS", "mesh of 120 nodes, observed error 1.0000000000000001e-09")


def _pointwise_state_rows(fp) -> dict:
    """The residuals of the rows that read the states, each state evaluated
    at one z at a time."""
    from swanson.potentials import Form, Side, eval_potential_z

    zs, n_states = verify.SAMPLE_Z, verify.N_STATES
    energies = spectrum.energies_plus(fp, n_states - 1)
    v = {side: [eval_potential_z(side, Form.CANONICAL, z, fp) for z in zs]
         for side in Side}
    states = {side: [[
        phi_plus(fp, n, z, 2) if side is Side.PLUS
        else phi_minus(fp, n, z, "operator", 2) for z in zs]
        for n in range(n_states)] for side in Side}

    def eigen(side):
        worst = 0.0
        for en, jets in zip(energies, states[side]):
            scale = max(abs(j.value) for j in jets)
            for j, vz in zip(jets, v[side]):
                res = -j.derivative(2) + (vz - en) * j.value
                worst = max(worst, abs(res) / (abs(en) * scale))
        return worst

    return {
        "eigen_residual_plus": eigen(Side.PLUS),
        "eigen_residual_minus": eigen(Side.MINUS),
        "ladder_closed_vs_operator": numeric.max_rel_gap(
            (phi_minus(fp, n, z, "closed").value, j.value)
            for n, jets in enumerate(states[Side.MINUS])
            for z, j in zip(zs[:8], jets)),
    }


def test_state_rows_equal_a_point_by_point_evaluation(inverse_sets):
    # the battery builds each state on all of SAMPLE_Z in one call
    from swanson.cli import RunConfig

    rows = {row.ids: row for row in verify.ROWS}
    for fp in random_forward_sets(4, seed=60) + [inverse_sets[0][1]]:
        r = verify._Run(RunConfig(), fp, None)
        want = _pointwise_state_rows(fp)
        assert {name: rows[name].fn(r).hex() for name in want} == {
            name: res.hex() for name, res in want.items()}


def test_a_run_builds_each_ladder_and_h_sample_once(monkeypatch, fp_star):
    # every state call of a forward run is over the whole ladder
    # n < N_STATES: the plus ladder, the plus states the operator minus
    # ladder differentiates, the Gram row's values, the minus ladder and the
    # closed minus row's values; h+- is evaluated once at SAMPLE_X however
    # many rows read it, and once at x(SAMPLE_Z)
    import inspect
    from swanson.cli import RunConfig
    from swanson.potentials import Form

    calls = Counter()

    def counted(module, name, key):
        fn = getattr(module, name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            k = key(bound.arguments)
            if k is not None:
                calls[k] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def at(x):
        return "x" if np.array_equal(x, verify.SAMPLE_X) else "x(z)"

    counted(spectrum, "phi_plus_jet", lambda a: ("plus", a["n"], a["order"]))
    counted(spectrum, "phi_minus_jet",
            lambda a: ("minus", a["n"], a["method"], a["order"]))
    counted(verify, "eval_potential", lambda a: (
        a["side"].value, at(a["x"]))
        if a["form"] is Form.OPERATOR_PRODUCT else None)
    verify.run(RunConfig(), fp_star)
    ladder = range(verify.N_STATES)
    assert calls == {
        ("plus", ladder, 2): 1, ("plus", ladder, 3): 1, ("plus", ladder, 0): 1,
        ("minus", ladder, "operator", 2): 1, ("minus", ladder, "closed", 0): 1,
        **{(side, x): 1 for side in ("minus", "plus") for x in ("x", "x(z)")}}


@pytest.mark.parametrize("rho_q, d", [("1e-08", "6.666666622222223e+149"),
                                      ("1e-30", "6.666666666666666e+149")])
def test_nan_coefficient_pairs_fail_their_rows(rho_q, d, capsys):
    # at omega_hat = 1e150 some of the state values and of the minus-state
    # pairs are NaN; a max that kept its first argument read them as
    # residual 0 and PASS
    assert main(["verify", "--omega-bar", "1", "--rho-q", rho_q, "--d", d,
                 "--n-max", "2"]) == 3
    rows = {e["id"]: e for e in json.loads(capsys.readouterr().out)[
        "identities"]}
    for name in ("eigen_residual_plus", "eigen_residual_minus",
                 "ladder_closed_vs_operator"):
        assert (rows[name]["residual"], rows[name]["status"]) == ("nan",
                                                                  "FAIL")


def test_spurious_minus_level_fails_isospectrality_by_its_error(monkeypatch):
    # the levels are paired with the ladder index by index, so a level below
    # E0 shifts every rung: the ground state is off by half
    from swanson.cli import RunConfig
    from swanson.params import solve_forward

    fp = solve_forward(1.0, 1.0, 1.0)
    exact = spectrum.energies_plus(fp, 3)
    sides = []

    def levels(V, k):
        sides.append("plus" if not sides else "minus")
        if sides[-1] == "plus":
            return exact[:k], 0.0
        return [exact[0] / 2] + exact[:k - 1], 0.0

    monkeypatch.setattr(numeric, "mesh_levels", levels)
    rows = {e["id"]: e for e in verify.run(RunConfig(), fp)[0]}
    assert sides == ["plus", "minus"]
    assert rows["fd_spectrum_plus"]["status"] == "PASS"
    iso = rows["isospectrality"]
    assert iso["status"] == "FAIL"
    assert iso["note"] == "mesh of 120 nodes, observed error 0"
    assert float(iso["residual"]) == 0.5


_GAP_CASES = {
    # (point, the tested side's levels from the ladder E, the row's gap)
    "identical": ((1.0, 1.0, 1.0), lambda E: E[:3], 0.0),
    "shifted": ((1.0, 1.0, 1.0), lambda E: [E[0], 1.05 * E[1], E[2]], 0.05),
    # every level relative to its own |E_n|, also far below one
    "far-below-one": ((0.01, 0.01, 0.01),
                      lambda E: [E[0], E[1], (1 + 2e-5) * E[2]], 2e-5),
    # a level below E0 shifts every rung: the ground state is off by half
    "spurious-low": ((1.0, 1.0, 1.0), lambda E: [E[0] / 2] + E[:2], 0.5),
}


@pytest.mark.parametrize("case", sorted(_GAP_CASES))
@pytest.mark.parametrize("row, side", [("fd_spectrum_plus", 0),
                                       ("isospectrality", 1)])
def test_mesh_rows_pair_the_levels_with_the_ladder_index_by_index(
        monkeypatch, row, side, case):
    from swanson.cli import RunConfig
    from swanson.params import solve_forward

    point, tested, gap = _GAP_CASES[case]
    fp = solve_forward(*point)
    exact = spectrum.energies_plus(fp, 2)
    calls = []

    def levels(V, k):
        calls.append(k)
        return (tested(exact) if len(calls) - 1 == side else exact[:k]), 0.0

    monkeypatch.setattr(numeric, "mesh_levels", levels)
    rows = {e["id"]: e for e in verify.run(RunConfig(), fp)[0]}
    assert calls == [3, 3]
    assert float(rows[row]["residual"]) == pytest.approx(gap, rel=1e-9)
    assert rows[row]["status"] == ("PASS" if gap <= 1e-5 else "FAIL")
    other = ("isospectrality", "fd_spectrum_plus")[side]
    assert (rows[other]["residual"], rows[other]["status"]) == ("0", "PASS")


def test_every_row_evaluates_its_sample_points_in_one_call(monkeypatch,
                                                           inverse_sets):
    # every potential form a row reads takes all of SAMPLE_X or SAMPLE_Z
    from swanson.cli import RunConfig

    seen = []
    for name in ("eval_potential", "eval_potential_z"):
        def spy(side, form, x, *args, fn=getattr(verify, name)):
            seen.append((form, x.tolist() if isinstance(x, np.ndarray)
                         else x))
            return fn(side, form, x, *args)

        monkeypatch.setattr(verify, name, spy)
    # the mesh oracle scans V one point at a time by design; it is left out
    monkeypatch.setattr(verify, "numeric_levels",
                        lambda fp, side, k: (spectrum.energies_plus(
                            fp, k - 1), 0.0))
    mp, fp, _ = inverse_sets[0]
    verify.run(RunConfig(), fp, mp)
    grids = (verify.SAMPLE_X, verify.SAMPLE_Z,
             [-1.0 / (math.sqrt(fp.omega_bar) * z) for z in verify.SAMPLE_Z])
    assert len(seen) > 10
    assert all(x in grids for _, x in seen)
