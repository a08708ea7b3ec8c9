"""Closed-form spectra and eigenfunctions of the half-line oscillator pair."""

import itertools
import math
import types

import numpy as np
import pytest

from swanson import params
from swanson.errors import DomainError
from swanson.numeric import quad_halfline
from swanson.params import solve_forward
from swanson.specialfn import laguerre
from swanson.potentials import Form, Side, eval_potential_z, w_of_z_jet
from swanson.spectrum import (energies_plus, j_integral, phi_minus_jet,
                              phi_plus_jet)
from conftest import (SAMPLE_Z, j_one, phi_minus, phi_plus, pointwise_hex,
                      random_box_points, random_forward_sets, row)
from reference import (GKPotential, energy_shift, gk_eigenvalues, gk_of,
                       j_diagonal_exact)


class TestHalflineOscillator:
    """The reference half-line oscillator A/z^2 + B z^2, and the plus-side
    states as its eigenfunctions."""

    def test_pure_quadratic_gives_odd_harmonic_levels(self):
        gk = GKPotential(A=0.0, B=1.0)
        assert gk_eigenvalues(gk, 2) == pytest.approx([3.0, 7.0, 11.0])

    def test_perfect_square_barrier(self):
        gk = GKPotential(A=2.0, B=1.0)
        assert gk.gamma_gk == pytest.approx(2.5)
        assert gk_eigenvalues(gk, 1) == pytest.approx([5.0, 9.0])

    def test_reference_ladder_base(self):
        gk = GKPotential(A=2.0, B=6.25)
        assert gk_eigenvalues(gk, 0)[0] == pytest.approx(12.5)

    def test_invalid_strengths_rejected(self):
        with pytest.raises(ValueError):
            GKPotential(A=-0.1, B=1.0)
        with pytest.raises(ValueError):
            GKPotential(A=1.0, B=0.0)

    def test_wavefunction_leading_power(self, fp_star):
        # value ~ z^(gamma - 1/2) as z -> 0
        r = (phi_plus(fp_star, 0, 1e-4).value
             / phi_plus(fp_star, 0, 2e-4).value)
        assert fp_star.gamma == pytest.approx(2.5)
        assert r == pytest.approx(0.5 ** (fp_star.gamma - 0.5), rel=1e-3)

    def test_harmonic_ground_state_shape(self, fp_star):
        # the ground state is z^(gamma - 1/2) exp(-oh z^2 / 2) up to its norm
        g, oh = fp_star.gamma, fp_star.omega_hat
        v1 = phi_plus(fp_star, 0, 1.0).value
        v2 = phi_plus(fp_star, 0, 2.0).value
        assert v2 / v1 == pytest.approx(2 ** (g - 0.5) * math.exp(-1.5 * oh),
                                        rel=1e-12)

    def test_eigen_residual(self):
        # the plus-side ground state solves the reference oscillator at its
        # own ground level, with no shift
        for fp in random_forward_sets(4, seed=5):
            gk = gk_of(fp)
            eps0 = gk_eigenvalues(gk, 0)[0]
            for z in SAMPLE_Z:
                j = phi_plus(fp, 0, z, order=2)
                res = (-j.derivative(2)
                       + (gk.A / z**2 + gk.B * z**2 - eps0) * j.value)
                assert abs(res) <= 1e-9 * max(1.0, abs(eps0 * j.value))

    def test_nonpositive_point_rejected(self, fp_star):
        with pytest.raises(DomainError):
            phi_plus(fp_star, 0, 0.0)


class TestEnergyLadder:
    def test_reference_energies(self, fp_star):
        E = energies_plus(fp_star, 2)
        assert E == pytest.approx([35.0, 45.0, 55.0], rel=1e-14)

    def test_reference_spacing(self, fp_star):
        E = energies_plus(fp_star, 5)
        for a, b in zip(E, E[1:]):
            assert b - a == pytest.approx(4 * fp_star.omega_hat, rel=1e-13)
        assert 4 * fp_star.omega_hat == pytest.approx(10.0)

    def test_ladder_decomposes_into_barrier_ladder_plus_shift(self, fp_star):
        gk = gk_of(fp_star)
        assert gk.A == pytest.approx(2.0)
        assert gk.B == pytest.approx(6.25)
        shift = energy_shift(fp_star)
        assert shift == pytest.approx(22.5)
        assert energies_plus(fp_star, 0)[0] == pytest.approx(12.5 + 22.5)

    def test_decomposition_randomized(self):
        for fp in random_forward_sets(10, seed=3):
            gk = gk_of(fp)
            shift = energy_shift(fp)
            for n in range(4):
                lhs = energies_plus(fp, n)[n]
                rhs = gk_eigenvalues(gk, n)[n] + shift
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positivity(self):
        for fp in random_forward_sets(10, seed=4):
            assert all(e > 0 for e in energies_plus(fp, 5))


class TestPlusEigenfunctions:
    def test_reference_point_value(self, fp_star):
        c0 = math.sqrt(2 * 2.5**2.5 / math.gamma(2.5))
        assert c0 == pytest.approx(3.8556, rel=1e-4)
        assert phi_plus(fp_star, 0, 1.0).value == pytest.approx(
            c0 * math.exp(-1.25), rel=1e-12)
        assert phi_plus(fp_star, 0, 1.0).value == pytest.approx(1.1047,
                                                                rel=1e-4)

    def test_unit_norm_ground_state(self, fp_star):
        nrm = quad_halfline(
            lambda z: phi_plus(fp_star, 0, z, 0).value ** 2,
            fp_star.omega_hat, fp_star.gamma - 1, 0)
        assert nrm == pytest.approx(1.0, abs=1e-10)

    def test_first_excited_node_location(self, fp_star):
        # the degree-1 polynomial factor vanishes at z = sqrt(gamma/omega_hat)
        z0 = math.sqrt(fp_star.gamma / fp_star.omega_hat)
        assert z0 == pytest.approx(1.0)
        assert phi_plus(fp_star, 1, z0).value == pytest.approx(0.0, abs=1e-12)

    def test_node_counts(self, fp_star):
        zs = np.linspace(0.05, 4.0, 800)
        for n in range(4):
            vals = [phi_plus(fp_star, n, float(z)).value for z in zs]
            crossings = sum(1 for a, b in zip(vals, vals[1:]) if a * b < 0)
            assert crossings == n

    @pytest.mark.parametrize("n", range(6))
    def test_eigen_residual(self, n, fp_star):
        E = energies_plus(fp_star, n)[n]
        scale = max(abs(phi_plus(fp_star, n, z, 0).value) for z in SAMPLE_Z)
        for z in SAMPLE_Z:
            j = phi_plus(fp_star, n, z, 2)
            v = eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_star)
            res = -j.derivative(2) + (v - E) * j.value
            assert abs(res) <= 1e-8 * abs(E) * scale

    def test_unit_norm_excited_states(self, fp_star):
        for n in range(1, 6):
            nrm = quad_halfline(
                lambda z: phi_plus(fp_star, n, z, 0).value ** 2,
                fp_star.omega_hat, fp_star.gamma - 1, 2 * n)
            assert nrm == pytest.approx(1.0, abs=1e-8)


class TestMinusEigenfunctions:
    def test_reference_ladder_application(self, fp_star):
        # lowering partner state at the reference point: (w(1)+1)*phi0 = 6*phi0
        got = phi_minus(fp_star, 0, 1.0, "operator").value
        phi0 = phi_plus(fp_star, 0, 1.0).value
        assert got == pytest.approx(6.0 * phi0, rel=1e-12)
        assert got == pytest.approx(6.628, rel=1e-3)

    @pytest.mark.parametrize("n", range(6))
    def test_closed_form_equals_operator_form(self, n, fp_star):
        for z in SAMPLE_Z:
            a = phi_minus(fp_star, n, z, "operator").value
            b = phi_minus(fp_star, n, z, "closed").value
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_closed_form_across_parameters(self):
        for fp in random_forward_sets(6, seed=9):
            for n in range(4):
                for z in SAMPLE_Z[::4]:
                    a = phi_minus(fp, n, z, "operator").value
                    b = phi_minus(fp, n, z, "closed").value
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("n", range(6))
    def test_eigen_residual(self, n, fp_star):
        E = energies_plus(fp_star, n)[n]
        scale = max(abs(phi_minus(fp_star, n, z, "operator", 0).value)
                    for z in SAMPLE_Z)
        for z in SAMPLE_Z:
            j = phi_minus(fp_star, n, z, "operator", 2)
            v = eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp_star)
            res = -j.derivative(2) + (v - E) * j.value
            assert abs(res) <= 1e-8 * abs(E) * scale

    @pytest.mark.parametrize("n", range(6))
    def test_raising_back_reproduces_plus_state(self, n, fp_star):
        # (d/dz + w) applied to the normalized minus state returns
        # sqrt(E_n) times the plus state
        E = energies_plus(fp_star, n)[n]
        scale = max(abs(phi_plus(fp_star, n, z, 0).value) for z in SAMPLE_Z)
        for z in SAMPLE_Z:
            lower = phi_minus(fp_star, n, z, "normalized", order=1)
            w = w_of_z_jet(z, fp_star, 0).value
            raised = w * lower.value + lower.derivative(1)
            target = math.sqrt(E) * phi_plus(fp_star, n, z, 0).value
            assert abs(raised - target) <= 1e-8 * math.sqrt(E) * scale

    def test_normalized_state_has_unit_norm(self, fp_star):
        # in t the square is t^gamma e^-t times a polynomial over
        # (t + gamma)^2, smooth on t >= 0: 31 nodes take it to 1e-11
        for n in range(3):
            nrm = quad_halfline(
                lambda zs: np.array([
                    phi_minus(fp_star, n, z, "normalized", 0).value ** 2
                    for z in zs.tolist()]),
                fp_star.omega_hat, fp_star.gamma, 60)
            assert nrm == pytest.approx(1.0, abs=1e-8)


class TestX1Bracket:
    """The closed minus state in the form of the X1 exceptional Laguerre
    polynomial, proved with sympy at symbolic gamma and t."""

    @pytest.mark.parametrize("n", range(7))
    def test_printed_bracket_is_the_x1_bracket(self, n):
        sp = pytest.importorskip("sympy")
        g, t = sp.symbols("gamma t")

        def lag(k, a):
            return sp.expand_func(sp.assoc_laguerre(k, a, t)) if k >= 0 else 0

        printed = ((g + n + 1) * lag(n, g - 1) - (n + 1) * lag(n + 1, g - 1)
                   + g * lag(n, g))
        x1 = (t + g + 1) * lag(n, g) - lag(n - 1, g)
        assert sp.expand(printed - x1) == 0

    def test_printed_prefactor_is_omega_hat_over_t_plus_gamma(self,
                                                              monkeypatch):
        # d omega_bar gamma = omega_hat from solve_forward's own formulas,
        # so 1/(z^2 + 1/(d omega_bar)) = omega_hat/(t + gamma)
        sp = pytest.importorskip("sympy")
        ob, rq, d, z = sp.symbols("omega_bar rho_q d z", positive=True)
        monkeypatch.setattr(params, "math", types.SimpleNamespace(
            sqrt=sp.sqrt))
        fp = params.solve_forward(ob, rq, d)
        assert sp.simplify(d * ob * fp.gamma - fp.omega_hat) == 0
        t = fp.omega_hat * z**2
        assert sp.simplify(1 / (z**2 + 1 / (d * ob))
                           - fp.omega_hat / (t + fp.gamma)) == 0


class TestScaleInvariance:
    """omega_hat^(-1/4) phi(sqrt(t/omega_hat)) depends on t and gamma only:
    across 300 decades of omega_hat the log-form states agree to the
    rounding of the exponent's cancelling terms, about gamma |log omega_hat|
    ulps."""

    T = np.array([0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0])
    OMEGA_HAT = (1e-150, 1e-100, 1e-30, 1e-6, 1.0, 1e6, 1e30, 1e100, 1e150)

    @classmethod
    def _scaled(cls, r, oh, name, n):
        """fp at (r, oh) and omega_hat^(-1/4) phi_n at z = sqrt(T/omega_hat)."""
        fp = solve_forward(1.0, r, oh / (1.5 + r))
        z = np.sqrt(cls.T / fp.omega_hat)
        if name == "plus":
            v = phi_plus(fp, n, z, 0).value
        elif name == "closed":
            v = (phi_minus(fp, n, z, "closed", 0).value
                 / math.sqrt(energies_plus(fp, n)[n]))
        else:
            v = phi_minus(fp, n, z, "normalized", 0).value
        return fp, v * fp.omega_hat ** -0.25

    @pytest.mark.parametrize("name", ["plus", "closed", "normalized"])
    @pytest.mark.parametrize("r", [1e-8, 1.0, 100.0])
    def test_dimensionless_states_agree(self, r, name):
        for n in (0, 3, 10):
            _, ref = self._scaled(r, 1.0, name, n)
            for oh in self.OMEGA_HAT:
                fp, got = self._scaled(r, oh, name, n)
                tol = 16 * np.finfo(float).eps * (
                    1 + fp.gamma * abs(math.log(fp.omega_hat)))
                assert np.max(abs(got - ref)) <= tol * np.max(abs(ref)), oh


class TestValueOnlyStates:
    """Order-0 states (the quadratures need values only) must give the
    higher-order jet's value bit for bit, at every n the CLI reaches and
    far into the Gaussian tail."""

    def test_order_zero_equals_jet_value(self):
        rng = np.random.default_rng(4)
        for fp in random_forward_sets(8, seed=11):
            for _ in range(60):
                n = int(rng.integers(0, 41))
                z = float(10 ** rng.uniform(-4, 1.2))
                a, b = phi_plus(fp, n, z, 0), phi_plus(fp, n, z, 2)
                assert a.order == 0
                assert a.value.hex() == b.value.hex()

    def test_order_zero_keeps_domain_check(self, fp_star):
        with pytest.raises(DomainError):
            phi_plus(fp_star, 0, 0.0, 0)
        with pytest.raises(DomainError):
            phi_plus(fp_star, 0, np.array([0.5, 0.0, 1.0]), 0)

    def test_node_arrays_equal_pointwise_values(self):
        # the quadratures pass all their nodes at once
        rng = np.random.default_rng(5)
        for fp in random_forward_sets(4, seed=12):
            zs = np.sort(10 ** rng.uniform(-4, 1.2, size=64))
            for n in (0, 1, 5, 17, 40):
                grid = phi_plus(fp, n, zs, 0)
                assert grid.order == 0
                assert [v.hex() for v in grid.value.tolist()] == [
                    phi_plus(fp, n, z, 0).value.hex()
                    for z in zs.tolist()]


# each state as a function of (fp, degrees, z, order)
STATES = {
    "phi_plus": phi_plus_jet,
    **{f"phi_minus_{method}": (
        lambda m: lambda fp, n, z, order: phi_minus_jet(fp, n, z, m, order))(
            method) for method in ("operator", "normalized", "closed")},
}


def _one(name):
    """The state ``name`` of one degree n, as a function of (fp, n, z,
    order)."""
    return lambda fp, n, z, order: row(STATES[name](fp, range(n, n + 1), z,
                                                     order))


class TestArrayStates:
    """A state on a grid of z is one jet with array coefficients, each
    element bit for bit the one-point jet's, at every order the callers
    use."""

    @pytest.mark.parametrize("name", sorted(STATES))
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_grid_equals_pointwise_jets(self, name, order):
        state = _one(name)
        rng = np.random.default_rng(order)
        zs = random_box_points(24, seed=40 + order)
        for fp in random_forward_sets(3, seed=50 + order):
            for n in [0, 40, *rng.integers(1, 40, size=2).tolist()]:
                grid = state(fp, n, zs, order)
                assert grid.order == order
                assert pointwise_hex(grid, len(zs)) == [
                    pointwise_hex(state(fp, n, z, order), 1)[0]
                    for z in zs.tolist()]

    @pytest.mark.parametrize("name", sorted(STATES))
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_any_nonpositive_point_is_rejected(self, name, bad, fp_star):
        with pytest.raises(DomainError):
            _one(name)(fp_star, 2, np.array([0.5, bad, 1.0]), 2)

    @pytest.mark.parametrize("name", sorted(STATES))
    def test_out_of_range_points_are_flagged_as_one_point_runs_flag_them(
            self, name, fp_star):
        # numpy warnings are errors in this suite; Python floats leave the
        # float range in silence, and so must a grid.  At 1e154 and 1e300,
        # t = omega_hat z^2 is inf and no coefficient is the state's value;
        # the grid has the one-point runs' bits wherever those are finite
        # and is out of range where they are, so that ``wavefunctions``
        # names the same first failing point
        def in_range(rows):
            return [[h if math.isfinite(float.fromhex(h)) else "out"
                     for h in row] for row in rows]

        zs = np.array([1e-300, 1e154, 1e300, 3.0])
        state = _one(name)
        one = in_range(pointwise_hex(state(fp_star, 2, z, 2), 1)[0]
                       for z in zs.tolist())
        assert in_range(pointwise_hex(state(fp_star, 2, zs, 2),
                                      len(zs))) == one
        assert one[1] == one[2] == ["out"] * 3 and "out" not in one[3]


class TestLadders:
    """A range of degrees gives the whole ladder as one jet, each row bit
    for bit the one-row ladder range(k, k + 1)'s, also where t or 1/z
    leaves the float range (1e300 and 1e-200): a row of degree k below the
    jet's order takes zero at the orders above k, which its own pass never
    runs."""

    ZS = np.array(SAMPLE_Z + [1e-200, 1e300])

    @pytest.mark.parametrize("degrees", [range(6), range(41), range(3, 9)],
                             ids=str)
    @pytest.mark.parametrize("name, order", [
        *(("phi_plus", order) for order in range(4)),
        ("phi_minus_operator", 2), ("phi_minus_closed", 2),
        ("phi_minus_normalized", 1)])
    def test_rows_equal_one_degree_calls(self, name, order, degrees):
        state = STATES[name]
        for fp in [solve_forward(1.0, 1.0, 1.0),
                   *random_forward_sets(2, seed=61)]:
            ladder = state(fp, degrees, self.ZS, order)
            assert [np.shape(c) for c in ladder.coeffs] == [
                (len(degrees), len(self.ZS))] * (order + 1)
            for i, k in enumerate(degrees):
                one = state(fp, range(k, k + 1), self.ZS, order)
                assert [np.shape(c) for c in one.coeffs] == [
                    (1, len(self.ZS))] * (order + 1)
                assert [[v.hex() for v in c[i].tolist()]
                        for c in ladder.coeffs] == [
                    [v.hex() for v in c[0].tolist()] for c in one.coeffs]

    def test_the_extreme_points_are_out_of_range(self, fp_star):
        # the points above pin the padding where coefficients are inf or
        # NaN: at 1e300 t is inf, at 1e-200 the powers of 1/z overflow
        ladder = phi_plus_jet(fp_star, range(6), self.ZS, 3)
        assert not np.isfinite(ladder.coeffs[0][:, -1]).any()
        assert not np.isfinite(ladder.coeffs[3][:, -2]).all()

    def test_a_scalar_point_gives_one_entry_per_degree(self, fp_star):
        ladder = phi_plus_jet(fp_star, range(4), 1.3, 2)
        assert [c.shape for c in ladder.coeffs] == [(4,)] * 3
        assert [ladder.value[n].hex() for n in range(4)] == [
            phi_plus(fp_star, n, 1.3, 2).value.hex() for n in range(4)]


class TestDegrees:
    """The closed forms take a range of degrees only: an int degree, an
    empty range, a negative start or a step other than 1 is the one
    ValueError of ``specialfn.check_degrees``."""

    CALLS = {
        "laguerre": lambda fp, n: laguerre(n, 0.5, 1.0),
        **{name: (lambda f: lambda fp, n: f(fp, n, 1.0, 1))(state)
           for name, state in STATES.items()},
        **{f"j_integral_{method}": (
            lambda m: lambda fp, n: j_integral(fp, n, m))(method)
           for method in ("quadrature", "closed")},
    }

    @pytest.mark.parametrize("n", [3, range(0), range(-1, 2), range(0, 4, 2)],
                             ids=repr)
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_anything_but_a_range_of_degrees_is_refused(self, name, n,
                                                        fp_star):
        with pytest.raises(ValueError, match="^degrees must be a nonempty "
                           "range n >= 0 with step 1, not "):
            self.CALLS[name](fp_star, n)


def _state_grid(fp, n):
    """64 points from near 0 to a few decay lengths past the turning point
    of level n, where omega_hat z^2 ~ 4n + 2 gamma."""
    z_max = math.sqrt((4 * n + 2 * fp.gamma + 12) / fp.omega_hat)
    return [z_max * k / 64 for k in range(1, 65)]


def _reference_states(fp, side, n, zs):
    """(value, derivative) of the normalized state at each z, from the
    Kummer closed form C_n z^(g-1/2) exp(-t/2) 1F1(-n; g; t), t = oh z^2, in
    mpmath.  The working precision covers the series' cancellation, about
    t/2 digits once the Gaussian weight is applied.  The minus side is
    (w phi - phi') / sqrt(E_n)."""
    mpmath = pytest.importorskip("mpmath")
    t_max = fp.omega_hat * max(zs) ** 2
    with mpmath.workdps(40 + int(0.5 * t_max)):
        g, oh = mpmath.mpf(fp.gamma), mpmath.mpf(fp.omega_hat)
        dob = mpmath.mpf(fp.d) * mpmath.mpf(fp.omega_bar)
        h = g - mpmath.mpf(0.5)
        cn = (-1) ** n * mpmath.sqrt(2 * oh ** g * mpmath.rf(g, n)
                                     / (mpmath.factorial(n) * mpmath.gamma(g)))
        coeffs = [mpmath.mpf(1)]
        for k in range(n):
            coeffs.append(coeffs[-1] * (k - n) / ((g + k) * (k + 1)))
        root_e = mpmath.sqrt(energies_plus(fp, n)[n])
        out = []
        for zf in zs:
            z = mpmath.mpf(zf)
            t = oh * z * z
            # M(t), M'(t), M''(t) by one Horner pass
            m0, m1, m2 = coeffs[n], mpmath.mpf(0), mpmath.mpf(0)
            for k in range(n - 1, -1, -1):
                m2, m1, m0 = m2 * t + 2 * m1, m1 * t + m0, m0 * t + coeffs[k]
            pre = cn * z ** h * mpmath.exp(-t / 2)
            lg, dlg = h / z - oh * z, -h / (z * z) - oh  # (log pre)', (..)''
            tz = 2 * oh * z                              # dt/dz
            phi = pre * m0
            dphi = pre * (lg * m0 + tz * m1)
            if side == "plus":
                out.append((float(phi), float(dphi)))
                continue
            ddphi = pre * ((dlg + lg * lg) * m0 + 2 * lg * tz * m1
                           + tz * tz * m2 + 2 * oh * m1)
            q = 1 + dob * z * z
            w = oh * z + h / z + 2 * dob * z / q
            dw = oh - h / (z * z) + 2 * dob * (1 - dob * z * z) / (q * q)
            out.append((float((w * phi - dphi) / root_e),
                        float((dw * phi + w * dphi - ddphi) / root_e)))
    return out


class TestHighExcitedStates:
    """The states well past the range where the alternating Kummer sum
    cancels (n ~ 25), against the closed form in extended precision."""

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("n", [25, 40, 200])
    def test_against_extended_precision_closed_form(self, n, side, fp_star):
        for fp in (fp_star, *random_forward_sets(2, seed=17)):
            zs = _state_grid(fp, n)
            ref = _reference_states(fp, side, n, zs)
            jets = [phi_plus(fp, n, z) if side == "plus"
                    else phi_minus(fp, n, z, "normalized") for z in zs]
            got = [(j.value, j.derivative(1)) for j in jets]
            for col, name in enumerate(("value", "derivative")):
                scale = max(abs(r[col]) for r in ref)
                err = max(abs(g[col] - r[col]) for g, r in zip(got, ref))
                assert err <= 1e-10 * scale, (fp, name, err / scale)


# the 27 corners of the box omega_bar in {0.2, 1, 4}, rho_q in {0.1, 1, 3},
# d in {0.2, 1, 3}
BOX_CORNERS = list(itertools.product((0.2, 1.0, 4.0), (0.1, 1.0, 3.0),
                                     (0.2, 1.0, 3.0)))


class TestNormalizationIntegrals:
    def test_ground_state_closed_form(self, fp_star):
        g, oh = fp_star.gamma, fp_star.omega_hat
        expected = math.gamma(g + 1) / (2 * oh ** (g + 1))
        assert j_one(fp_star, 0, "closed") == pytest.approx(
            expected, rel=1e-13)
        assert j_one(fp_star, 0, "quadrature") == pytest.approx(
            expected, rel=1e-10)

    @pytest.mark.parametrize("n", [0] + [
        pytest.param(n, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="printed diagonal closed form keeps only the leading term "
                   "of the exact finite sum; wrong for every excited level"))
        for n in range(1, 6)
    ])
    def test_printed_diagonal_matches_quadrature(self, n, fp_star):
        """The printed diagonal closed form is exact at the ground state and
        provably wrong beyond it (relative gap 5/9 already at n=1); the
        excited cases are strict expected failures so any behavior change is
        flagged."""
        q, closed = (j_integral(fp_star, range(n, n + 1), method)[0]
                     for method in ("quadrature", "closed"))
        assert abs(q - closed) <= 1e-8 * abs(q)

    @pytest.mark.parametrize("n", range(6))
    def test_exact_diagonal_matches_quadrature(self, n, fp_star):
        q = j_one(fp_star, n, "quadrature")
        exact = j_diagonal_exact(fp_star, n)
        assert abs(q - exact) <= 1e-10 * abs(q)

    def test_one_recurrence_per_integral(self, monkeypatch, fp_star):
        # one degree builds its state once and squares it; a longer range
        # takes every degree from one recurrence and one rule
        from swanson import numeric, spectrum

        plain, calls = spectrum.laguerre, []
        rule, rules = numeric.quad_halfline, []

        def counted(n, beta, t):
            calls.append(n)
            return plain(n, beta, t)

        def counted_rule(*args):
            rules.append(args[1:])
            return rule(*args)

        monkeypatch.setattr(spectrum, "laguerre", counted)
        monkeypatch.setattr(numeric, "quad_halfline", counted_rule)
        j_one(fp_star, 3, "quadrature")
        assert calls == [range(3, 4)]
        assert len(j_integral(fp_star, range(1, 6), "quadrature")) == 5
        assert calls[1:] == [range(1, 6)]
        g, oh = fp_star.gamma, fp_star.omega_hat
        assert rules == [(oh, g, 6), (oh, g, 10)]

    @pytest.mark.parametrize("point", BOX_CORNERS)
    def test_a_range_is_the_per_degree_integrals(self, point):
        # "closed" is the same arithmetic per degree; "quadrature" shares
        # the top degree's rule, exact for every degree below it too
        fp = solve_forward(*point)
        degrees = range(1, 6)
        closed = j_integral(fp, degrees, "closed")
        assert [x.hex() for x in closed] == [
            j_one(fp, n, "closed").hex() for n in degrees]
        quad = j_integral(fp, degrees, "quadrature")
        one = np.array([j_one(fp, n, "quadrature") for n in degrees])
        assert np.all(abs(quad - one) <= 1e-13 * abs(one))

    def test_quadrature_is_exact_to_n_20(self, fp_star):
        # in t = oh z^2 the diagonal integrand is t^gamma e^-t times a
        # polynomial of degree 2n: the rule with n + 1 nodes is exact, at
        # gamma = 2.5 and at gamma = 101.5
        for fp in (fp_star, solve_forward(1.0, 100.0, 1.0 / 101.5)):
            for n in range(21):
                q = j_one(fp, n, "quadrature")
                assert q == pytest.approx(j_diagonal_exact(fp, n), rel=1e-12)


class TestPrintedConstantsAtHighN:
    """The printed diagonal integral keeps its formula at every n: past
    n = 169 a factorial no longer fits a float, but the log-Gamma form stays
    finite."""

    @staticmethod
    def _printed(fp, n):
        """The printed diagonal integral in 50-digit mpmath."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            g, oh = mpmath.mpf(fp.gamma), mpmath.mpf(fp.omega_hat)
            fac, gam, rf = (mpmath.factorial(n + 1), mpmath.gamma(g),
                            mpmath.rf(g, n))
            return float((n + g) * fac * gam / (2 * oh ** (g + 1) * rf))

    @pytest.mark.parametrize("n", [5, 169, 170, 200])
    def test_against_extended_precision(self, n, fp_star):
        for fp in (fp_star, *random_forward_sets(3, seed=23)):
            assert j_one(fp, n, "closed") == pytest.approx(
                self._printed(fp, n), rel=1e-12)
