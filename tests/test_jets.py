"""Truncated-Taylor (jet) arithmetic against central finite differences."""

import math

import numpy as np
import pytest

from swanson.jets import Jet, elementwise
from conftest import pointwise_hex, random_box_points


def fd_derivative(f, x, k, h=1e-5):
    """Central finite difference of order k with one Richardson refinement."""
    def d1(g, x, h):
        return (g(x + h) - g(x - h)) / (2 * h)

    if k == 1:
        coarse = d1(f, x, 2 * h)
        fine = d1(f, x, h)
        return (4 * fine - coarse) / 3
    if k == 2:
        h = 1e-4  # roundoff in the second difference scales as eps/h^2
        def second(h):
            return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
        return (4 * second(h) - second(2 * h)) / 3
    if k == 3:
        h = 2e-3  # third differences need a wider stencil to stay stable
        def third(h):
            return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                    - f(x - 2 * h)) / (2 * h**3)
        return (4 * third(h) - third(2 * h)) / 3
    raise ValueError(k)


class TestConstruction:
    def test_variable_value_and_slope(self):
        j = Jet.variable(3.0, 4)
        assert j.value == 3.0
        assert j.derivative(1) == 1.0
        assert j.derivative(2) == 0.0

    def test_const_has_no_derivatives(self):
        j = Jet.const(7.5, 3)
        assert j.value == 7.5
        assert all(j.derivative(k) == 0.0 for k in (1, 2, 3))

    def test_derivative_extracts_k_factorial_times_coefficient(self):
        j = Jet((1.0, 2.0, 3.0, 4.0))
        assert j.derivative(2) == 3.0 * 2
        assert j.derivative(3) == 4.0 * 6


class TestArithmeticVsFiniteDifferences:
    POINTS = [0.7, -1.3, 2.1]

    @pytest.mark.parametrize("x", POINTS)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_product_quotient_chain(self, x, k):
        def f(t):
            return (t**2 + 1) * math.exp(-t / 2) / (t**2 + 3)

        j = ((Jet.variable(x, 4) ** 2 + 1) * (Jet.variable(x, 4) * -0.5).exp()
             / (Jet.variable(x, 4) ** 2 + 3))
        approx = fd_derivative(f, x, k)
        assert j.derivative(k) == pytest.approx(approx, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("x", [0.5, 1.7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_real_power_and_log(self, x, k):
        def f(t):
            return t**2.5 * math.log(t + 2)

        xj = Jet.variable(x, 4)
        j = xj.power(2.5) * (xj + 2).log()
        approx = fd_derivative(f, x, k)
        assert j.derivative(k) == pytest.approx(approx, rel=1e-7, abs=1e-7)

    def test_sqrt_matches_half_power(self):
        xj = Jet.variable(2.3, 4)
        a = (xj**2 + 1).sqrt()
        b = (xj**2 + 1).power(0.5)
        for kk in range(5):
            assert a.coeffs[kk] == pytest.approx(b.coeffs[kk], rel=1e-14)


class TestAlgebraicExactness:
    def test_division_inverts_multiplication(self):
        a = Jet((2.0, -1.0, 0.5, 0.25))
        b = Jet((3.0, 0.7, -0.2, 0.1))
        c = (a * b) / b
        for k in range(4):
            assert c.coeffs[k] == pytest.approx(a.coeffs[k], rel=1e-14)

    def test_exp_log_round_trip(self):
        a = Jet((1.5, 0.3, -0.2, 0.05))
        b = a.exp().log()
        for k in range(4):
            assert b.coeffs[k] == pytest.approx(a.coeffs[k], rel=1e-13)

    def test_integer_power_matches_repeated_product(self):
        xj = Jet.variable(1.3, 4)
        base = xj**2 + 0.5
        assert (base**3).coeffs == pytest.approx((base * base * base).coeffs)

    def test_shift_is_the_jet_of_the_derivative(self):
        # f = x^4: jet of f'' at x has value 12 x^2
        x = 1.7
        j = Jet.variable(x, 4) ** 4
        d2 = j.shift(2)
        assert d2.value == pytest.approx(12 * x**2, rel=1e-14)
        assert d2.derivative(1) == pytest.approx(24 * x, rel=1e-14)

    def test_scalar_mixing(self):
        j = 2.0 * Jet.variable(1.0, 2) + 1.0
        assert j.value == 3.0
        assert j.derivative(1) == 2.0

    def test_scalar_coefficients_stay_floats(self):
        # array coefficients are for grids; one point never becomes numpy
        xj = Jet.variable(1.3, 4)
        c = Jet.const(2, 4)
        jets = [xj + c, 1 - xj, -xj, xj * xj, 3 * xj, xj / c, 2 / xj,
                (xj / (xj**2 + 1)).shift(1), xj**-2, xj.exp(), xj.log(),
                xj.power(1.5)]
        for j in jets:
            assert all(type(k) is float for k in j.coeffs)

    def test_array_coefficients_are_the_pointwise_ones(self):
        pts = [0.7, -1.3, 2.1]
        f = lambda t: (t**2 + 1) / (3 * t - 0.5) - 2.0 / t
        grid = f(Jet.variable(np.array(pts), 3))
        for i, x in enumerate(pts):
            one = f(Jet.variable(x, 3))
            assert ([np.broadcast_to(k, len(pts)).tolist()[i].hex()
                     for k in grid.coeffs] == [k.hex() for k in one.coeffs])

    def test_array_division_leaves_its_operands_alone(self):
        a = Jet((np.array([1.0, 2.0]), np.array([3.0, 4.0])))
        a / Jet.variable(np.array([0.5, 1.5]), 1)
        assert [c.tolist() for c in a.coeffs] == [[1.0, 2.0], [3.0, 4.0]]

    def test_array_division_by_a_zero_element_is_rejected(self):
        from swanson.errors import DomainError
        with pytest.raises(DomainError):
            1.0 / Jet.variable(np.array([1.0, 0.0]), 2)

    def test_power_rejects_nonpositive_base(self):
        from swanson.errors import DomainError
        with pytest.raises(DomainError):
            Jet.variable(-1.0, 2).power(0.5)


class TestArrayElementaryFunctions:
    """exp, log and real powers of a jet with array coefficients equal the
    one-point jets element by element, bit for bit."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_exp_log_power_equal_the_pointwise_jets(self, order):
        zs = random_box_points(40, seed=order)
        fns = (lambda j: j.exp(), lambda j: j.log(),
               lambda j: j.power(2.7), lambda j: j.power(-0.35),
               lambda j: (j * j - 3.0 * j).exp(), lambda j: j.sqrt())
        for f in fns:
            grid = f(Jet.variable(zs, order))
            assert pointwise_hex(grid, len(zs)) == [
                pointwise_hex(f(Jet.variable(z, order)), 1)[0]
                for z in zs.tolist()]

    def test_array_constants_mix_as_floats_do(self):
        zs = random_box_points(12, seed=9)
        c = np.linspace(-2.0, 3.0, len(zs))
        fns = (lambda j, k: j + k, lambda j, k: k + j, lambda j, k: k - j,
               lambda j, k: j - k, lambda j, k: k * j, lambda j, k: j * k,
               lambda j, k: j / k, lambda j, k: k / j)
        for f in fns:
            grid = f(Jet.variable(zs, 3), c)
            assert isinstance(grid, Jet)
            assert pointwise_hex(grid, len(zs)) == [
                pointwise_hex(f(Jet.variable(z, 3), k), 1)[0]
                for z, k in zip(zs.tolist(), c.tolist())]

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_log_and_power_reject_any_nonpositive_element(self, bad):
        from swanson.errors import DomainError
        xj = Jet.variable(np.array([1.0, bad, 2.0]), 2)
        for f in (Jet.log, lambda j: j.power(1.5), Jet.sqrt):
            with pytest.raises(DomainError):
                f(xj)


class TestElementwise:
    def test_float_stays_a_float(self):
        got = elementwise(math.exp, 1.5)
        assert type(got) is float and got == math.exp(1.5)

    def test_each_element_as_a_python_float(self):
        x = np.array([0.3, 1.7, 2.9, 1e200])
        with pytest.raises(OverflowError):
            elementwise(lambda v: v ** 2, x)
        got = elementwise(lambda v: v ** 2, x[:3])
        assert [v.hex() for v in got.tolist()] == [
            (v ** 2).hex() for v in x[:3].tolist()]

    def test_a_grid_of_any_shape_keeps_its_shape(self):
        # the states' ladders are (degrees, points) grids
        x = np.random.default_rng(3).uniform(-40.0, 40.0, size=(6, 20))
        got = elementwise(math.exp, x)
        assert got.shape == x.shape
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            [math.exp(v).hex() for v in row] for row in x.tolist()]
