"""Kummer and Laguerre polynomials, and the identities connecting them,
checked against independent closed forms and jets; the reference Pochhammer
symbol the identities use."""

import math
import time

import numpy as np
import pytest

from swanson.jets import Jet
from swanson.specialfn import kummer
from conftest import laguerre_one
from reference import pochhammer


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0
        assert pochhammer(-12.0, 0) == 1.0

    def test_small_rising_product(self):
        assert pochhammer(2.5, 2) == pytest.approx(8.75, rel=1e-15)

    def test_truncation_at_negative_integers(self):
        # (-k)_n = (-1)^n k!/(k-n)! for n <= k, and 0 beyond
        assert pochhammer(-3.0, 5) == 0.0
        for k in range(1, 7):
            for n in range(0, k + 1):
                expected = (-1) ** n * math.factorial(k) / math.factorial(k - n)
                assert pochhammer(float(-k), n) == pytest.approx(expected)
            assert pochhammer(float(-k), k + 1) == 0.0

    def test_gamma_quotient_agreement(self):
        for s in (0.4, 1.3, 2.5, 7.1):
            for n in (1, 3, 6):
                quotient = math.gamma(s + n) / math.gamma(s)
                assert pochhammer(s, n) == pytest.approx(quotient, rel=1e-12)


class TestKummer:
    def test_degree_zero_is_one(self):
        assert kummer(0, 2.5, 17.3) == 1.0

    def test_degree_one_root(self):
        assert kummer(1, 2.5, 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_degree_two_frozen_value(self):
        expected = 1 - 2 / 2.5 + (2 * 1) / (2.5 * 3.5 * 2) * 1
        assert kummer(2, 2.5, 1.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.3142857142857143, rel=1e-12)

    def test_value_at_origin(self):
        for n in range(8):
            assert kummer(n, 1.7, 0.0) == 1.0

    def test_polynomial_degree(self):
        # leading coefficient of the degree-n polynomial is nonzero
        n, g = 4, 2.2
        ys = np.linspace(0.0, 4.0, n + 2)
        vals = [kummer(n, g, float(y)) for y in ys]
        lead = np.polyfit(ys, vals, n)[0]
        assert abs(lead) > 1e-6
        # and a fit of degree n reproduces the samples (it is a polynomial)
        fitted = np.polyval(np.polyfit(ys, vals, n), ys)
        assert np.allclose(fitted, vals, rtol=1e-9, atol=1e-12)

    def test_accepts_jets(self):
        y = Jet.variable(1.3, 2)
        j = kummer(3, 2.5, y)
        h = 1e-6
        approx = (kummer(3, 2.5, 1.3 + h) - kummer(3, 2.5, 1.3 - h)) / (2 * h)
        assert j.derivative(1) == pytest.approx(approx, rel=1e-8)


class TestLaguerre:
    def test_degree_zero_and_one(self):
        assert laguerre_one(0, 0.7, 5.0) == 1.0
        assert laguerre_one(1, 0.7, 5.0) == pytest.approx(0.7 + 1 - 5.0,
                                                          rel=1e-15)

    def test_cross_check_with_kummer(self):
        n, beta, t = 3, 1.5, 2.0
        expected = pochhammer(beta + 1, n) / math.factorial(n) * kummer(n, beta + 1, t)
        assert laguerre_one(n, beta, t) == pytest.approx(expected, rel=1e-13)

    def test_array_argument_equals_pointwise(self):
        t = np.random.default_rng(8).uniform(0.0, 40.0, size=50)
        for n in (0, 1, 2, 7, 40):
            for beta in (-0.5, 0.3, 2.75):
                got = laguerre_one(n, beta, t)
                assert [v.hex() for v in got.tolist()] == [
                    laguerre_one(n, beta, v).hex() for v in t.tolist()]


def _jet_arithmetic_laguerre(n, beta, t):
    """L_n^beta(t) by the three-term recurrence run in Jet arithmetic: the
    derivatives the states' Laguerre ladders are checked against."""
    prev, cur = 1.0 + 0.0 * t, beta + 1.0 - t
    if n == 0:
        return prev
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1 + beta - t) * cur
                          - (k - 1 + beta) * prev) / k
    return cur


SEEDED_CASES = []
_rng = np.random.default_rng(20260826)
for _ in range(1000):
    SEEDED_CASES.append((int(_rng.integers(0, 13)),
                         float(_rng.uniform(-0.9, 8.0)),
                         float(_rng.uniform(0.0, 20.0))))


class TestPropertySuites:
    def test_kummer_laguerre_identity_randomized(self):
        for n, beta, t in SEEDED_CASES:
            lhs = laguerre_one(n, beta, t)
            pref = pochhammer(beta + 1, n) / math.factorial(n)
            rhs = pref * kummer(n, beta + 1, t)
            # scale by the summation condition (sum of term magnitudes):
            # the alternating series cancels heavily at large t
            cond = sum(abs(pref * pochhammer(-n, k) * t**k
                           / (pochhammer(beta + 1, k) * math.factorial(k)))
                       for k in range(n + 1))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, cond)

    def test_derivative_lowers_degree_and_raises_parameter(self):
        # d/dt L_n^beta(t) = -L_{n-1}^{beta+1}(t), via jet differentiation
        for n, beta, t in SEEDED_CASES[:300]:
            if n == 0:
                continue
            lhs = _jet_arithmetic_laguerre(
                n, beta, Jet.variable(t, 1)).derivative(1)
            rhs = -laguerre_one(n - 1, beta + 1, t)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_parameter_recurrence(self):
        # L_n^beta = L_{n-1}^beta + L_n^(beta-1)
        for n, beta, t in SEEDED_CASES[:300]:
            if n == 0:
                continue
            lhs = laguerre_one(n, beta, t)
            rhs = laguerre_one(n - 1, beta, t) + laguerre_one(n, beta - 1, t)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_thousand_cases_run_fast(self):
        start = time.perf_counter()
        for n, beta, t in SEEDED_CASES:
            laguerre_one(n, beta, t)
        assert time.perf_counter() - start < 1.0

