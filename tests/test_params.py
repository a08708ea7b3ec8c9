"""Parameter derivation and the forward / inverse matching solvers."""

import math

import numpy as np
import pytest

from swanson.errors import Infeasible4X
from swanson.params import (ModelParams, check_constraints, derive_constants,
                            solve_forward, solve_inverse)
from conftest import FEASIBLE_TRIPLES


def bisect_cubic(omega_bar, a1, a2, lo, hi, tol=1e-10):
    """Independent oracle: plain bisection on the cubic for d."""
    def f(d):
        return 4 * omega_bar * d**3 + (a2 - 2 * a1) * d - 2 * a1

    assert f(lo) * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestModelParams:
    def test_omega_bar_computed(self):
        p = ModelParams(2.0, 0.5, 0.1)
        assert p.omega_bar == pytest.approx(1.4, rel=1e-15)

    def test_equal_couplings_rejected(self):
        with pytest.raises(ValueError, match="alpha != beta"):
            ModelParams(1.0, 0.3, 0.3)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="omega - alpha - beta"):
            ModelParams(1.0, 0.8, 0.3)


class TestDerivedConstants:
    def test_flagship_linear_constants(self):
        dc = derive_constants(ModelParams(2.0, 0.5, 0.1))
        assert dc.omega_bar == pytest.approx(1.4)
        assert dc.a2 == pytest.approx(2.0)
        assert dc.a3 == pytest.approx(0.3)
        assert dc.a5 == pytest.approx(1.0)

    def test_flagship_quadratic_constant(self):
        dc = derive_constants(ModelParams(2.0, 0.5, 0.1))
        assert dc.a1 == pytest.approx(0.16 / 1.4 + 1.4 + 1.2, rel=1e-14)
        assert dc.a1 == pytest.approx(2.714286, rel=1e-6)

    def test_a4_formula(self):
        p = ModelParams(3.0, -0.4, 0.9)
        dc = derive_constants(p)
        expected = 0.25 * ((p.alpha - p.beta) ** 2 / p.omega_bar
                           + 2 * (p.alpha + p.beta))
        assert dc.a4 == pytest.approx(expected, rel=1e-14)


class TestSolveForward:
    def test_reference_set(self):
        fp = solve_forward(1.0, 1.0, 1.0)
        assert fp.mu == pytest.approx(-2.5)
        assert fp.lam == pytest.approx(-2.0)
        assert fp.omega_hat == pytest.approx(2.5)
        assert fp.gamma == pytest.approx(2.5)
        assert fp.c is None

    def test_deeper_well(self):
        fp = solve_forward(1.0, 1.0, 2.0)
        assert fp.lam == pytest.approx(-4.0)
        assert fp.mu == pytest.approx(-5.0)
        assert fp.omega_hat == pytest.approx(5.0)
        assert fp.gamma == pytest.approx(2.5)

    def test_stiffer_scale(self):
        fp = solve_forward(4.0, 2.0, 1.0)
        assert fp.lam == pytest.approx(-4.0)
        assert fp.mu == pytest.approx(-5.0)
        assert fp.omega_hat == pytest.approx(10.0)
        assert fp.gamma == pytest.approx(2.5)

    def test_rejects_nonpositive_inputs(self):
        for bad in [(0.0, 1, 1), (1, -1, 1), (1, 1, 0)]:
            with pytest.raises(ValueError):
                solve_forward(*bad)

    def test_frequency_identities_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ob = float(rng.uniform(0.05, 9.0))
            rq = float(rng.uniform(0.05, 5.0))
            d = float(rng.uniform(0.05, 5.0))
            fp = solve_forward(ob, rq, d)
            sw = math.sqrt(ob)
            assert abs(fp.omega_hat - abs(fp.mu) * sw) <= 1e-12 * fp.omega_hat
            assert abs(fp.omega_hat - d * ob * fp.gamma) <= 1e-12 * fp.omega_hat

    def test_idempotent_rebuild(self):
        fp = solve_forward(1.7, 0.9, 2.3)
        fp2 = solve_forward(fp.omega_bar, fp.rho_q, fp.d)
        assert (fp2.mu, fp2.lam, fp2.omega_hat, fp2.gamma) == \
               (fp.mu, fp.lam, fp.omega_hat, fp.gamma)


class TestSolveInverse:
    def test_flagship_cubic_root(self):
        # independent bisection oracle on the cubic for d
        dc = derive_constants(ModelParams(2.0, 0.5, 0.1))
        d_oracle = bisect_cubic(1.4, dc.a1, dc.a2, 1.0, 1.3)
        assert d_oracle == pytest.approx(1.1946, abs=2e-3)
        # the cubic as printed: 5.6 d^3 - 3.428571 d - 5.428571 = 0
        assert 4 * 1.4 == pytest.approx(5.6)
        assert 2 * dc.a1 - dc.a2 == pytest.approx(3.428571, rel=1e-6)
        assert 2 * dc.a1 == pytest.approx(5.428571, rel=1e-6)

    def test_flagship_rational_residuals_close(self):
        # the rational-part relations close after back-substitution even
        # though the full matching problem is infeasible for this triple
        from swanson.params import _positive_cubic_roots, c_negative_branch
        mp = ModelParams(2.0, 0.5, 0.1)
        dc = derive_constants(mp)
        roots = _positive_cubic_roots(dc.omega_bar, dc.a1, dc.a2)
        assert len(roots) == 1
        d = roots[0]
        assert d == pytest.approx(1.1946, abs=2e-3)
        c = c_negative_branch(dc, d)
        assert c < 0 and abs(c) > 1
        fp_probe = solve_forward(dc.omega_bar, 1.0, d)  # rho_q placeholder
        report = check_constraints(fp_probe, dc, c, d)
        assert report.res_rational_quad < 1e-9
        assert report.res_rational_cubic < 1e-9

    def test_flagship_is_infeasible_for_rho(self):
        # the constant X fails the positivity bound needed for a real rho_q
        with pytest.raises(Infeasible4X):
            solve_inverse(ModelParams(2.0, 0.5, 0.1))

    @pytest.mark.parametrize("triple", FEASIBLE_TRIPLES)
    def test_feasible_triples_close_rational_relations(self, triple):
        mp = ModelParams(*triple)
        fp, report = solve_inverse(mp)
        assert fp.rho_q > 0
        assert fp.c < 0 and abs(fp.c) > 1
        assert report.feasible_4X
        assert report.res_rational_quad < 1e-9 * max(1.0, abs(report.X))
        assert report.res_rational_cubic < 1e-9 * max(1.0, abs(report.X))

    @pytest.mark.parametrize("triple", FEASIBLE_TRIPLES)
    def test_the_cubic_is_solved_once(self, triple, monkeypatch):
        # the report reuses the roots the solve found, and reads as a
        # report that solves the cubic again
        from swanson import params
        calls = []
        solve = params._positive_cubic_roots

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(params, "_positive_cubic_roots", counted)
        fp, report = solve_inverse(ModelParams(*triple))
        assert len(calls) == 1
        dc = derive_constants(ModelParams(*triple))
        assert report == check_constraints(fp, dc, fp.c, fp.d)
        assert len(calls) == 2

    def test_residual_definitions(self, inverse_sets):
        mp, fp, report = inverse_sets[0]
        dc = derive_constants(mp)
        assert report.res_mu_strength == pytest.approx(abs(dc.a1 - fp.mu**2))

    def test_cubic_back_substitution(self, inverse_sets):
        for mp, fp, _ in inverse_sets:
            dc = derive_constants(mp)
            d = fp.d
            res = abs(4 * dc.omega_bar * d**3 + (dc.a2 - 2 * dc.a1) * d
                      - 2 * dc.a1)
            assert res < 1e-10 * max(1.0, abs(2 * dc.a1))


class TestCheckConstraints:
    def test_forward_mode_leaves_residuals(self, fp_star):
        # an arbitrary coupling triple does not satisfy the matching system
        dc = derive_constants(ModelParams(2.0, 0.5, 0.1))
        report = check_constraints(fp_star, dc, -2.0, fp_star.d)
        assert report.res_mu_strength > 1e-3

    def test_mu_strength_restatement(self, fp_star):
        dc = derive_constants(ModelParams(2.0, 0.5, 0.1))
        report = check_constraints(fp_star, dc, -2.0, fp_star.d)
        d, rq, sw = fp_star.d, fp_star.rho_q, math.sqrt(fp_star.omega_bar)
        expected = abs(dc.a1 - (d**2 / 4) * (2 * rq + 3 * sw) ** 2)
        assert report.res_mu_strength == pytest.approx(expected, rel=1e-13)


class TestMonotonicity:
    def test_ground_energy_grows_with_coupling(self):
        from swanson.spectrum import energies_plus
        e_prev = -math.inf
        for rq in np.linspace(0.2, 3.0, 12):
            fp = solve_forward(1.0, float(rq), 1.0)
            e0 = energies_plus(fp, 0)[0]
            assert e0 > e_prev
            e_prev = e0
