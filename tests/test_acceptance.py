"""Acceptance gate: every headline claim of the library, each at its stated
tolerance, printed as one pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criterion 6's printed diagonal normalization is a strict expected
failure for the excited levels: the printed closed form keeps only the
leading term of the exact finite sum (see the errata entries emitted by the
``verify`` command)."""

import json
import math
import time

import numpy as np
import pytest

from swanson import diffop
from swanson.diffop import build, compose, conjugate, infer_delta, residual
from swanson.numeric import mesh_levels, quad_halfline
from swanson.params import (ModelParams, derive_constants, solve_forward,
                            solve_inverse)
from swanson.potentials import (Form, Side, b1_jet, c1_jet, dlog_rho_jet,
                                eval_potential_z)
from swanson.spectrum import energies_plus, j_integral
from swanson.specialfn import kummer
from conftest import (FEASIBLE_TRIPLES, SAMPLE_X, SAMPLE_Z, j_one,
                      laguerre_one, phi_minus, phi_plus, random_forward_sets)
from reference import pochhammer


def report(label: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def fp_ref():
    return solve_forward(1.0, 1.0, 1.0)


def test_criterion_01_spectrum_reproduction(fp_ref):
    start = time.perf_counter()
    E = energies_plus(fp_ref, 2)
    assert E == pytest.approx([35.0, 45.0, 55.0], rel=1e-14)
    V = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_ref)
    levels = mesh_levels(V, 3).levels
    worst = max(abs(levels[n] - E[n]) / E[n] for n in range(3))
    elapsed = time.perf_counter() - start
    report("criterion 1 (half-line spectrum vs the Galerkin mesh in "
           "t = s z^2)",
           worst <= 1e-6 and elapsed < 5.0,
           f"max rel error {worst:.3e} (tol 1e-6), runtime {elapsed:.2f}s "
           "(limit 5s)")


def test_criterion_02_isospectral_partner(fp_ref):
    E = energies_plus(fp_ref, 3)
    V = lambda z: eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp_ref)
    levels = mesh_levels(V, 4).levels
    # paired index by index: a spurious level below E0 shifts every rung
    worst = max(abs(levels[n] - E[n]) / E[n] for n in range(4))
    report("criterion 2 (isospectral partner, no spurious low state)",
           worst <= 1e-6, f"max rel error {worst:.3e} (tol 1e-6)")


def test_criterion_03_operator_identities():
    start = time.perf_counter()
    sets = random_forward_sets(25, seed=77)
    sets += [solve_inverse(ModelParams(*t))[0] for t in FEASIBLE_TRIPLES]
    worst = 0.0
    for fp in sets:
        A, Ad = build("A", fp), build("A_dag", fp)
        hm, hp = build("h_minus", fp), build("h_plus", fp)
        worst = max(
            worst,
            residual(hm, compose(Ad, A), SAMPLE_X),
            residual(hp, compose(A, Ad), SAMPLE_X),
            residual(compose(hm, Ad), compose(Ad, hp), SAMPLE_X),
            residual(compose(hp, A), compose(A, hm), SAMPLE_X),
        )
    # the metric-conjugated intertwiner chain needs inverse-mode couplings
    for triple in FEASIBLE_TRIPLES:
        mp = ModelParams(*triple)
        fp, _ = solve_inverse(mp)
        e1 = build("eta1_constructed", fp, mp)
        Hm, Hp = build("H_minus", fp, mp), build("H_plus", fp, mp)
        worst = max(worst,
                    residual(compose(e1, Hm), compose(Hp, e1), SAMPLE_X))
    elapsed = time.perf_counter() - start
    report("criterion 3 (factorization and intertwining identities)",
           worst <= 1e-9 and elapsed < 2.0,
           f"max coefficient residual {worst:.3e} (tol 1e-9) over 30 "
           f"parameter sets x 20 points, runtime {elapsed:.2f}s (limit 2s)")


def test_criterion_04_similarity_gauge(monkeypatch):
    worst_first = 0.0
    worst_partner = 0.0
    worst_delta = 0.0
    for triple in FEASIBLE_TRIPLES:
        mp = ModelParams(*triple)
        fp, _ = solve_inverse(mp)
        dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
        hm, hp = build("h_minus", fp), build("h_plus", fp)
        conj = conjugate(build("H_minus", fp, mp), dlr, +1)
        for x in SAMPLE_X:
            want = hm.at(x, 0)[1].value
            got = conj.at(x, 0)[1].value
            worst_first = max(worst_first,
                              abs(got - want) / max(1.0, abs(want)))
        worst_partner = max(
            worst_partner,
            residual(conjugate(hp, dlr, -1), build("H_plus", fp, mp),
                     SAMPLE_X))
        # round-trip an injected gauge constant through the fit, in place
        # of the general potential it fits
        delta0, ob = 0.37, mp.omega_bar

        def target(side, form, x, fp, mp):
            b1 = b1_jet(x, fp, mp, 1)
            return (c1_jet(x, fp, mp, 0, delta=delta0).value
                    + b1.value ** 2 / (4 * ob * x**4)
                    - b1.derivative(1) / 2)

        monkeypatch.setattr(diffop, "eval_potential", target)
        delta, _ = infer_delta(mp, fp, SAMPLE_X)
        worst_delta = max(worst_delta, abs(delta - delta0))
    ok = worst_first <= 1e-10 and worst_partner <= 1e-9 and worst_delta <= 1e-8
    report("criterion 4 (metric similarity gauge)", ok,
           f"first-order excess {worst_first:.3e} (tol 1e-10), partner "
           f"agreement {worst_partner:.3e} (tol 1e-9), gauge-constant "
           f"round trip {worst_delta:.3e} (tol 1e-8)")


def test_criterion_05_wavefunction_residuals(fp_ref):
    E = energies_plus(fp_ref, 5)
    worst_schrodinger = 0.0
    for n in range(6):
        for side, wf in ((Side.PLUS,
                          lambda n, z: phi_plus(fp_ref, n, z, 2)),
                         (Side.MINUS,
                          lambda n, z: phi_minus(fp_ref, n, z,
                                                     "operator", 2))):
            scale = max(abs(wf(n, z).value) for z in SAMPLE_Z)
            for z in SAMPLE_Z:
                j = wf(n, z)
                v = eval_potential_z(side, Form.CANONICAL, z, fp_ref)
                res = -j.derivative(2) + (v - E[n]) * j.value
                worst_schrodinger = max(worst_schrodinger,
                                        abs(res) / (abs(E[n]) * scale))
    worst_closed = 0.0
    for n in range(6):
        for z in SAMPLE_Z:
            a = phi_minus(fp_ref, n, z, "operator").value
            b = phi_minus(fp_ref, n, z, "closed").value
            worst_closed = max(worst_closed, abs(a - b) / max(1.0, abs(a)))
    ok = worst_schrodinger <= 1e-8 and worst_closed <= 1e-9
    report("criterion 5 (eigenfunction residuals, closed vs operator form)",
           ok,
           f"Schrodinger residual {worst_schrodinger:.3e} (tol 1e-8), "
           f"closed-form agreement {worst_closed:.3e} (tol 1e-9)")


def test_criterion_06_normalization_attainable_parts(fp_ref):
    worst_norm = 0.0
    for n in range(6):
        nrm = quad_halfline(
            lambda z: phi_plus(fp_ref, n, z, 0).value ** 2,
            fp_ref.omega_hat, fp_ref.gamma - 1, 2 * n)
        worst_norm = max(worst_norm, abs(nrm - 1.0))
    g, oh = fp_ref.gamma, fp_ref.omega_hat
    ground_closed = j_one(fp_ref, 0, "closed")
    ground_exact = math.gamma(g + 1) / (2 * oh ** (g + 1))
    ground_quad = j_one(fp_ref, 0, "quadrature")
    ok = (worst_norm <= 1e-8
          and abs(ground_closed - ground_exact) <= 1e-12 * ground_exact
          and abs(ground_quad - ground_closed) <= 1e-8 * ground_closed)
    report("criterion 6 (unit norms; ground-state weighted integral)", ok,
           f"norm deviation {worst_norm:.3e} (tol 1e-8), ground-state "
           f"closed form vs quadrature "
           f"{abs(ground_quad - ground_closed) / ground_closed:.3e} "
           "(tol 1e-8)")


@pytest.mark.parametrize("n", [
    pytest.param(n, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the printed diagonal closed form keeps only the leading "
               "term of the exact finite sum and is wrong for every "
               "excited level (gap 5/9 already at n=1); the exact "
               "diagonal form does match quadrature"))
    for n in range(1, 6)
])
def test_criterion_06_printed_diagonal_excited_levels(n, fp_ref):
    q, closed = (j_integral(fp_ref, range(n, n + 1), method)[0]
                 for method in ("quadrature", "closed"))
    ok = abs(q - closed) <= 1e-8 * abs(q)
    print(f"\n[{'PASS' if ok else 'XFAIL'}] criterion 6 (printed diagonal, "
          f"n={n}): rel gap {abs(q - closed) / abs(q):.3e} (tol 1e-8)")
    assert ok


def test_criterion_07_special_function_identities():
    rng = np.random.default_rng(20260826)
    cases = [(int(rng.integers(0, 13)), float(rng.uniform(-0.9, 8.0)),
              float(rng.uniform(0.0, 20.0))) for _ in range(1000)]
    start = time.perf_counter()
    worst = 0.0
    for n, beta, t in cases:
        pref = pochhammer(beta + 1, n) / math.factorial(n)
        lhs = laguerre_one(n, beta, t)
        rhs = pref * kummer(n, beta + 1, t)
        cond = sum(abs(pref * pochhammer(-n, k) * t**k
                       / (pochhammer(beta + 1, k) * math.factorial(k)))
                   for k in range(n + 1))
        worst = max(worst, abs(lhs - rhs) / max(1.0, cond))
        if n >= 1:
            # d/dt L_n^beta from the Kummer series on a jet
            from swanson.jets import Jet
            d = pref * kummer(n, beta + 1, Jet.variable(t, 1)).derivative(1)
            worst = max(worst, abs(d + laguerre_one(n - 1, beta + 1, t))
                        / max(1.0, cond))
            w = laguerre_one(n - 1, beta, t) + laguerre_one(n, beta - 1, t)
            worst = max(worst, abs(lhs - w) / max(1.0, cond))
    for k in range(1, 8):
        for n in range(0, k + 1):
            want = (-1) ** n * math.factorial(k) / math.factorial(k - n)
            worst = max(worst, abs(pochhammer(float(-k), n) - want)
                        / max(1.0, abs(want)))
        worst = max(worst, abs(pochhammer(float(-k), k + 1)))
    elapsed = time.perf_counter() - start
    report("criterion 7 (polynomial identity property suites)",
           worst <= 1e-10 and elapsed < 1.0,
           f"max scaled deviation {worst:.3e} (tol 1e-10) over 1000 seeded "
           f"cases, runtime {elapsed:.3f}s (limit 1s)")


def test_criterion_08_constraint_solver():
    from swanson.params import _positive_cubic_roots, c_negative_branch, \
        check_constraints
    mp = ModelParams(2.0, 0.5, 0.1)
    dc = derive_constants(mp)
    roots = _positive_cubic_roots(dc.omega_bar, dc.a1, dc.a2)
    d = roots[0]
    c = c_negative_branch(dc, d)
    probe = solve_forward(dc.omega_bar, 1.0, d)
    rep = check_constraints(probe, dc, c, d)
    worst_fwd = 0.0
    rng = np.random.default_rng(9)
    for _ in range(100):
        fp = solve_forward(float(rng.uniform(0.05, 9.0)),
                           float(rng.uniform(0.05, 5.0)),
                           float(rng.uniform(0.05, 5.0)))
        sw = math.sqrt(fp.omega_bar)
        worst_fwd = max(
            worst_fwd,
            abs(fp.omega_hat - abs(fp.mu) * sw) / fp.omega_hat,
            abs(fp.omega_hat - fp.d * fp.omega_bar * fp.gamma) / fp.omega_hat)
    ok = (abs(d - 1.1946) <= 2e-3
          and rep.res_rational_quad < 1e-9
          and rep.res_rational_cubic < 1e-9
          and worst_fwd <= 1e-12)
    report("criterion 8 (cubic root, back-substitution, forward identities)",
           ok,
           f"d = {d:.6f} (target 1.1946 +- 2e-3), rational residuals "
           f"{rep.res_rational_quad:.2e}/{rep.res_rational_cubic:.2e} "
           f"(tol 1e-9), forward identity deviation {worst_fwd:.3e} "
           "(tol 1e-12)")


def test_criterion_09_errata_reported(tmp_path):
    from swanson.cli import main
    out = tmp_path / "verify.json"
    code = main(["verify", "--out", str(out)])
    doc = json.loads(out.read_text())
    ids = {e["id"]: float(e["residual"]) for e in doc["errata"]}
    required = ["partner_general_form", "matched_plus_form",
                "transformed_minus_printed", "ladder_printed_form"]
    nonzero = all(ids.get(k, 0.0) > 1e-6 for k in required)
    statuses_ok = all(e["status"] == "REPORTED" for e in doc["errata"])
    # the half-line minus residual must match its rational profile
    fp = solve_forward(1.0, 1.0, 1.0)
    d, ob = fp.d, fp.omega_bar
    worst_profile = 0.0
    for z in SAMPLE_Z:
        printed = eval_potential_z(Side.MINUS, Form.TRANSFORMED, z, fp)
        canon = eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)
        profile = 4 * d**2 * ob**2 * z**2 / (1 + d * ob * z**2) ** 2
        worst_profile = max(worst_profile, abs((printed - canon) - profile))
    ok = code == 0 and nonzero and statuses_ok and worst_profile <= 1e-9
    report("criterion 9 (suspect printed forms reported, never asserted)",
           ok,
           f"verify exit {code}, {len(doc['errata'])} reported residuals, "
           f"half-line minus residual-profile match {worst_profile:.3e} "
           "(tol 1e-9)")


def test_criterion_10_deterministic_output(tmp_path):
    from swanson.cli import main
    blobs = []
    for tag in ("first", "second"):
        v = tmp_path / f"verify_{tag}.json"
        s = tmp_path / f"spectrum_{tag}.csv"
        assert main(["verify", "--out", str(v)]) == 0
        assert main(["spectrum", "--n-max", "2", "--format", "csv",
                     "--out", str(s)]) == 0
        blobs.append(v.read_bytes() + s.read_bytes())
    ok = blobs[0] == blobs[1]
    report("criterion 10 (byte-identical repeated runs)", ok,
           f"verify+spectrum outputs identical across two runs: {ok}")
