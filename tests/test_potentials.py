"""Superpotentials, metric, coordinate maps, and all potential forms."""

import functools
import itertools
import math

import numpy as np
import pytest

from swanson.errors import DomainError, ModeError
from swanson.numeric import fd_box
from swanson.params import solve_forward
from swanson.potentials import (Form, H_zeroth_jet, Side, a_jet, b1_jet,
                                b_plain_jet, b_tilde_jet, c1_jet, coord_x,
                                dlog_rho_jet, eta1_explicit_jet,
                                eval_potential, eval_potential_z,
                                h_tilde_jet, h_zeroth_jet, transform_shift,
                                w_of_z_jet)
from conftest import (SAMPLE_X, SAMPLE_Z, pointwise_hex, random_box_points,
                      random_forward_sets)
from reference import quad_interval_nodewise, w_of_z_x_chart, x_chart_by_jets


class TestPointFunctions:
    """The jet building blocks every potential and operator is made of."""

    def test_reference_superpotential_value(self, fp_star):
        assert b_tilde_jet(-1.0, fp_star, 0).value == pytest.approx(4.5,
                                                                    rel=1e-14)

    def test_reference_halfline_superpotential(self, fp_star):
        # x = -1 is z = 1 at omega_bar = 1; w = bt - sqrt(ob) x there
        assert w_of_z_jet(1.0, fp_star, 0).value == pytest.approx(5.5,
                                                                  rel=1e-14)

    def test_square_ansatz_fields(self, fp_star):
        a = a_jet(2.0, 1)
        assert a.value == 4.0
        assert a.derivative(1) == 4.0

    def test_forward_mode_leaves_inverse_fields_empty(self, fp_star):
        assert fp_star.c is None
        with pytest.raises(ModeError):
            b_plain_jet(1.0, fp_star, 0)

    def test_inverse_mode_fills_all_fields(self, inverse_sets):
        mp, fp, _ = inverse_sets[0]
        for j in (b_plain_jet(-1.5, fp, 0), b1_jet(-1.5, fp, mp, 0),
                  c1_jet(-1.5, fp, mp, 0, delta=0.0),
                  dlog_rho_jet(-1.5, fp, mp, 0)):
            assert math.isfinite(j.value)

    def test_hermitian_limit_kills_metric(self, inverse_sets):
        # b1 carries the factor (alpha - beta); with alpha ~ beta it vanishes
        from swanson.params import ModelParams
        _, fp, _ = inverse_sets[0]
        eps = 1e-13
        mp_near = ModelParams(1.0, 0.2, 0.2 - eps)
        val = b1_jet(-1.3, fp, mp_near, 0).value
        assert abs(val) < 1e-10

    def test_singular_origin_rejected(self, fp_star, inverse_sets):
        with pytest.raises(DomainError):
            b_tilde_jet(0.0, fp_star, 0)
        with pytest.raises(DomainError):
            b_plain_jet(0.0, inverse_sets[0][1], 0)


class TestMetric:
    def test_log_rho_matches_antiderivative(self, inverse_sets):
        # (log rho)' = -(alpha - beta)/ob (x^-3 + c/(x (x^2 + d)) - 1/x)
        # integrates in closed form; log rho vanishes at x0 = sign(x)
        mp, fp, _ = inverse_sets[0]
        k, c, d = (mp.alpha - mp.beta) / fp.omega_bar, fp.c, fp.d

        def antiderivative(x):
            return -k * (-0.5 / x**2 + c / (2 * d) * math.log(x * x / (x * x + d))
                         - math.log(abs(x)))

        for x in SAMPLE_X:
            want = antiderivative(x) - antiderivative(math.copysign(1.0, x))
            got = quad_interval_nodewise(
                lambda y: dlog_rho_jet(y, fp, mp, 0).value,
                math.copysign(1.0, x), x, tol=1e-12)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestCoordinateMaps:
    def test_reference_points(self):
        assert coord_x(1.0, 1.0) == pytest.approx(-1.0)
        assert coord_x(1.0, 4.0) == pytest.approx(-0.5)

    def test_mutually_inverse(self):
        # x(z) and z(x) are the same map
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = float(rng.uniform(0.1, 5.0)) * (1 if rng.random() < 0.5 else -1)
            assert coord_x(coord_x(x, 2.3), 2.3) == pytest.approx(x, rel=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            coord_x(0.0, 1.0)


class TestFrozenPotentialValues:
    """Reference-set point values, each independently recomputed."""

    def test_minus_canonical(self, fp_star):
        v = eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, -1.0, fp_star)
        assert v == pytest.approx(27.75, rel=1e-13)

    def test_minus_printed_forms_match(self, fp_star):
        for form in (Form.MATCHED, Form.EXPANDED, Form.REDUCED):
            v = eval_potential(Side.MINUS, form, -1.0, fp_star)
            assert v == pytest.approx(27.75, rel=1e-13)

    def test_plus_reduced(self, fp_star):
        v = eval_potential(Side.PLUS, Form.REDUCED, -1.0, fp_star)
        assert v == pytest.approx(28.75, rel=1e-13)

    def test_halfline_plus_canonical(self, fp_star):
        v = eval_potential_z(Side.PLUS, Form.CANONICAL, 1.0, fp_star)
        assert v == pytest.approx(30.75, rel=1e-13)  # 5.5^2 + 0.5

    def test_halfline_plus_printed(self, fp_star):
        v = eval_potential_z(Side.PLUS, Form.TRANSFORMED, 2.0, fp_star)
        assert v == pytest.approx(48.0, rel=1e-13)  # 25 + 0.5 + 22.5
        vc = eval_potential_z(Side.PLUS, Form.CANONICAL, 2.0, fp_star)
        assert v == pytest.approx(vc, rel=1e-13)

    def test_halfline_minus_printed_vs_canonical(self, fp_star):
        # printed value 30.75, canonical 29.75: residual 1.0 is reported
        printed = eval_potential_z(Side.MINUS, Form.TRANSFORMED, 1.0, fp_star)
        canon = eval_potential_z(Side.MINUS, Form.CANONICAL, 1.0, fp_star)
        assert printed == pytest.approx(30.75, rel=1e-13)
        assert canon == pytest.approx(29.75, rel=1e-13)
        assert printed - canon == pytest.approx(1.0, rel=1e-12)


class TestValidatedFormAgreement:
    """All printed forms classified as consistent must equal the canonical
    operator-product values across randomized parameters and points."""

    FORWARD_SETS = random_forward_sets(12, seed=11)

    def points(self):
        rng = np.random.default_rng(5)
        mags = rng.uniform(0.3, 5.0, 50)
        signs = np.where(rng.random(50) < 0.5, -1.0, 1.0)
        return mags * signs

    @pytest.mark.parametrize("form", [Form.MATCHED, Form.EXPANDED, Form.REDUCED])
    def test_minus_side(self, form):
        for fp in self.FORWARD_SETS:
            for x in self.points():
                ref = eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, x, fp)
                val = eval_potential(Side.MINUS, form, x, fp)
                assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_plus_side_reduced(self):
        for fp in self.FORWARD_SETS:
            for x in self.points():
                ref = eval_potential(Side.PLUS, Form.OPERATOR_PRODUCT, x, fp)
                val = eval_potential(Side.PLUS, form=Form.REDUCED, x=x, fp=fp)
                assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_halfline_plus_printed_everywhere(self):
        for fp in self.FORWARD_SETS:
            for z in SAMPLE_Z:
                a = eval_potential_z(Side.PLUS, Form.TRANSFORMED, z, fp)
                b = eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


class TestStructuralIdentities:
    FORWARD_SETS = random_forward_sets(8, seed=23)

    def test_transform_shift(self):
        # half-line potential = line potential + the conformal shift
        for fp in self.FORWARD_SETS:
            for z in SAMPLE_Z:
                x = coord_x(z, fp.omega_bar)
                for side in (Side.MINUS, Side.PLUS):
                    lhs = eval_potential_z(side, Form.CANONICAL, z, fp)
                    rhs = (eval_potential(side, Form.OPERATOR_PRODUCT, x, fp)
                           + transform_shift(x, fp.omega_bar))
                    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_shift_formula(self):
        # ob*(a'^2/4 + a*a''/2) with a = x^2 collapses to 2*ob*x^2
        for x in (0.7, -1.3, 2.4):
            ob = 1.7
            expected = ob * ((2 * x) ** 2 / 4 + x * x * 2 / 2)
            assert transform_shift(x, ob) == pytest.approx(expected, rel=1e-14)

    def test_partner_gap_is_twice_superpotential_slope(self):
        for fp in self.FORWARD_SETS:
            for z in SAMPLE_Z:
                gap = (eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
                       - eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp))
                wp = w_of_z_jet(z, fp, 1).derivative(1)
                assert abs(gap - 2 * wp) <= 1e-10 * max(1.0, abs(gap))

    def test_parity(self):
        for fp in self.FORWARD_SETS:
            for x in SAMPLE_X:
                for side in (Side.MINUS, Side.PLUS):
                    v1 = eval_potential(side, Form.OPERATOR_PRODUCT, x, fp)
                    v2 = eval_potential(side, Form.OPERATOR_PRODUCT, -x, fp)
                    assert v1 == pytest.approx(v2, rel=1e-12)


# the 27 corners of the box omega_bar in {0.2, 1, 4}, rho_q in {0.1, 1, 3},
# d in {0.2, 1, 3}
BOX_CORNERS = list(itertools.product((0.2, 1.0, 4.0), (0.1, 1.0, 3.0),
                                     (0.2, 1.0, 3.0)))


class TestClosedFormSuperpotential:
    """w and its derivatives are written in z; the x-chart composition in
    jets is their independent reference."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_coefficients_equal_the_x_chart_composition(self, order,
                                                        inverse_sets):
        # each coefficient within 1e-13 of its largest magnitude over
        # SAMPLE_Z: w' passes through 0 at w's minimum, where the two
        # computations cancel differently
        z = np.array(SAMPLE_Z)
        for fp in ([solve_forward(*p) for p in BOX_CORNERS]
                   + [fp for _, fp, _ in inverse_sets]):
            got = w_of_z_jet(z, fp, order).coeffs
            want = w_of_z_x_chart(z, fp, order).coeffs
            assert len(got) == order + 1
            for k, (g, w) in enumerate(zip(got, want)):
                assert np.max(abs(g - w)) <= 1e-13 * np.max(abs(w)), (fp, k)

    def test_w_prime_is_finite_where_the_states_live_at_large_d(self):
        # at d = 1e160 the states sit near z = sqrt(gamma/omega_hat) =
        # 1e-80, where d ob z^2 = 1: w = 2.5e160 z + 2/z + 2e160 z/2 and
        # w' = 2.5e160 - 2/z^2 + 0
        w = w_of_z_jet(1e-80, solve_forward(1.0, 1.0, 1e160), 1)
        assert w.coeffs == (pytest.approx(5.5e80, rel=1e-14),
                            pytest.approx(5e159, rel=1e-14))
        for side in Side:
            assert math.isfinite(eval_potential_z(
                side, Form.CANONICAL, 1e-80, solve_forward(1.0, 1.0, 1e160)))

    def test_far_tails_keep_their_limits(self):
        # d ob z^2 overflows at z = 1e300 and underflows at z = 1e-300;
        # the rational piece's coefficients still tend to their limits
        fp = solve_forward(1.0, 1.0, 1.0)
        big, small = (w_of_z_jet(z, fp, 3).coeffs for z in (1e300, 1e-300))
        assert big[1:] == (fp.omega_hat, 0.0, 0.0)
        assert small[0] == pytest.approx(2.0 / 1e-300, rel=1e-15)

    def test_orders_above_three_are_refused(self, fp_star):
        with pytest.raises(ValueError, match="order 3"):
            w_of_z_jet(1.0, fp_star, 4)


# The x-chart coefficient functions by the keys of
# ``reference.x_chart_by_jets``: each as f(x, fp, mp, order) and the highest
# order it is written to.  The first four need forward parameters only.
DELTA = 0.37  # the gauge constant c1 is evaluated with
X_CHART = {
    "a": (lambda x, fp, mp, k: a_jet(x, k), 4),
    "b_tilde": (lambda x, fp, mp, k: b_tilde_jet(x, fp, k), 4),
    **{f"h_zeroth_{side.value}": (
        lambda x, fp, mp, k, side=side: h_zeroth_jet(side, x, fp, k), 3)
       for side in Side},
    "b_plain": (lambda x, fp, mp, k: b_plain_jet(x, fp, k), 4),
    "b1": (lambda x, fp, mp, k: b1_jet(x, fp, mp, k), 4),
    "c1": (lambda x, fp, mp, k: c1_jet(x, fp, mp, k, delta=DELTA), 3),
    **{f"H_zeroth_{side.value}": (
        lambda x, fp, mp, k, side=side: H_zeroth_jet(side, x, fp, mp, k), 3)
       for side in Side},
    "dlog_rho": (lambda x, fp, mp, k: dlog_rho_jet(x, fp, mp, k), 3),
    "eta1_explicit": (
        lambda x, fp, mp, k: eta1_explicit_jet(x, fp, mp, k), 3),
}
FORWARD_NAMES = ("a", "b_tilde", "h_zeroth_minus", "h_zeroth_plus")


def _x_chart_sets(name: str, inverse_sets) -> list:
    """(fp, mp) at the 27 corners (forward coefficients only) and at the
    frozen triples."""
    corners = ([(solve_forward(*p), None) for p in BOX_CORNERS]
               if name in FORWARD_NAMES else [])
    return corners + [(fp, mp) for mp, fp, _ in inverse_sets]


@functools.cache
def _sympy_taylor(name: str) -> list:
    """The Taylor coefficients 0 .. top of one x-chart coefficient from its
    definition, by sympy's derivatives, as mpmath functions of
    (x, mu, rho_q, lam, d, omega_bar, c, alpha, beta, omega, delta)."""
    sp = pytest.importorskip("sympy")
    args = sp.symbols("x mu rho_q lam d omega_bar c alpha beta omega delta")
    x, mu, rq, lam, d, ob, c, al, be, om, delta = args
    sw = sp.sqrt(ob)
    a = x**2
    da, dda = sp.diff(a, x), sp.diff(a, x, 2)
    bt = mu / x - rq * x + lam * x / (x**2 + d)
    b = 1 / x + c * x / (x**2 + d)
    b1 = (al - be) * a * (2 * b - da)
    h = {"minus": bt**2 - sw * sp.diff(a * bt, x),
         "plus": bt**2 + sw * (a * sp.diff(bt, x) - da * bt) - ob * a * dda}
    expr = {
        "a": a, "b_tilde": bt, "b_plain": b, "b1": b1,
        **{f"h_zeroth_{side}": h[side] for side in h},
        "c1": ((om + al + be) * b**2 - (om + 2 * be) * da * b
               - (om - al + be) * a * sp.diff(b, x) + be * (a * dda + da**2)
               - delta * da + om / 2),
        **{f"H_zeroth_{side}": (h[side] + sp.diff(b1, x) / 2
                                - b1**2 / (4 * ob * a**2)) for side in h},
        "dlog_rho": -b1 / (2 * ob * a**2),
        "eta1_explicit": (((al - be - rq * sw) * x**4
                           + ((al - be) * (d - c - 1)
                              - (sp.Rational(7, 2) * d * ob
                                 + 2 * rq * d * sw)) * x**2
                           + d * (mu * sw - al + be))
                          / (sw * x * (d + x**2))),
    }[name]
    out = []
    for k in range(X_CHART[name][1] + 1):
        out.append(sp.lambdify(args, expr / math.factorial(k), "mpmath",
                               cse=True))
        expr = sp.diff(expr, x)
    return out


def _worst_relative_gaps(got, want) -> list[float]:
    """max |got - want| over the points relative to max |want|, per
    coefficient (an exact zero coefficient compared absolutely)."""
    gaps = []
    for g, w in zip(got, want):
        w = np.asarray(w, dtype=float)
        scale = np.max(abs(w)) or 1.0
        gaps.append(float(np.max(abs(np.broadcast_to(g, w.shape) - w))
                          / scale))
    return gaps


class TestXChartClosedForms:
    """Each x-chart coefficient function is written in closed form on plain
    arrays; sympy's derivatives of its definition, evaluated in 30-digit
    mpmath, and the jet composition of ``reference.x_chart_by_jets`` are
    its independent references.  The bounds are set from the gaps measured
    over these sets, each relative to the coefficient's largest magnitude
    over the points: at most 2.0e-15 against sympy (h+'s value) and
    5.3e-15 against the jets (H+-'s, whose jet division rounds more)."""

    SYMPY_X = SAMPLE_X[::2]

    @pytest.mark.parametrize("name", sorted(X_CHART))
    def test_coefficients_match_sympy(self, name, inverse_sets):
        mpmath = pytest.importorskip("mpmath")
        fn, top = X_CHART[name]
        taylor = _sympy_taylor(name)
        for fp, mp in _x_chart_sets(name, inverse_sets):
            got = fn(np.array(self.SYMPY_X), fp, mp, top).coeffs
            assert len(got) == top + 1
            with mpmath.workdps(30):
                params = [mpmath.mpf(v) for v in (
                    fp.mu, fp.rho_q, fp.lam, fp.d, fp.omega_bar, fp.c or 0.0,
                    *((mp.alpha, mp.beta, mp.omega) if mp else (0.0,) * 3),
                    DELTA)]
                want = [[float(f(mpmath.mpf(x), *params))
                         for x in self.SYMPY_X] for f in taylor]
            assert max(_worst_relative_gaps(got, want)) <= 1e-14, (name, fp)

    @pytest.mark.parametrize("name", sorted(X_CHART))
    def test_coefficients_match_the_jet_composition(self, name,
                                                    inverse_sets):
        fn, top = X_CHART[name]
        x = np.array(SAMPLE_X)
        for fp, mp in _x_chart_sets(name, inverse_sets):
            want = x_chart_by_jets(x, fp, mp, top, delta=DELTA)[name].coeffs
            assert max(_worst_relative_gaps(fn(x, fp, mp, top).coeffs,
                                            want)) <= 5e-14, (name, fp)

    @pytest.mark.parametrize("name", sorted(X_CHART))
    def test_a_grid_is_its_points_bit_for_bit(self, name, inverse_sets):
        fn, top = X_CHART[name]
        for fp, mp in _x_chart_sets(name, inverse_sets)[-3:]:
            grid = fn(np.array(SAMPLE_X), fp, mp, top)
            assert pointwise_hex(grid, len(SAMPLE_X)) == [
                pointwise_hex(fn(x, fp, mp, top), 1)[0] for x in SAMPLE_X]

    @pytest.mark.parametrize("name", sorted(set(X_CHART) - {"a"}))
    def test_orders_above_the_written_ones_are_refused(self, name,
                                                       inverse_sets):
        fn, top = X_CHART[name]
        mp, fp, _ = inverse_sets[0]
        with pytest.raises(ValueError, match=f"order {top}"):
            fn(1.3, fp, mp, top + 1)


class TestErrataDiagnostics:
    """Suspect printed forms: residuals are measured and characterized, never
    asserted to vanish."""

    def test_plus_matched_and_general_deviate(self, fp_star):
        fp = random_forward_sets(1, seed=40)[0]
        dev_gen = max(abs(eval_potential(Side.PLUS, Form.GENERAL, x, fp)
                          - eval_potential(Side.PLUS, Form.OPERATOR_PRODUCT, x, fp))
                      for x in SAMPLE_X)
        dev_mat = max(abs(eval_potential(Side.PLUS, Form.MATCHED, x, fp)
                          - eval_potential(Side.PLUS, Form.OPERATOR_PRODUCT, x, fp))
                      for x in SAMPLE_X)
        assert dev_gen > 1e-6
        assert dev_mat > 1e-6

    def test_halfline_minus_residual_profile(self):
        # printed minus canonical equals 4 d^2 ob^2 z^2 / (1 + d ob z^2)^2
        for fp in random_forward_sets(6, seed=41):
            d, ob = fp.d, fp.omega_bar
            for z in SAMPLE_Z:
                printed = eval_potential_z(Side.MINUS, Form.TRANSFORMED, z, fp)
                canon = eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)
                profile = 4 * d**2 * ob**2 * z**2 / (1 + d * ob * z**2) ** 2
                assert abs((printed - canon) - profile) <= 1e-9

    def test_rational_ansatz_reported_only(self, inverse_sets):
        mp, fp, _ = inverse_sets[0]
        vals = [abs(eval_potential(Side.MINUS, Form.RATIONAL_ANSATZ, x, fp, mp)
                    - eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, x, fp))
                for x in SAMPLE_X]
        assert all(math.isfinite(v) for v in vals)


class TestGridEvaluation:
    """The canonical half-line potential on a whole grid at once is the
    one-point value on every element, bit for bit."""

    @staticmethod
    def _assert_grid_is_pointwise(fp, z):
        z = z[1:]
        for side in Side:
            grid = eval_potential_z(side, Form.CANONICAL, z, fp)
            assert isinstance(grid, np.ndarray) and grid.shape == z.shape
            assert ([v.hex() for v in grid.tolist()]
                    == [eval_potential_z(side, Form.CANONICAL, zi, fp).hex()
                        for zi in z.tolist()])

    @pytest.mark.parametrize("point", [(1.0, 1.0, 1.0), (0.2, 3.0, 0.2),
                                       (3.7, 0.4, 2.6)])
    def test_box_points(self, point):
        self._assert_grid_is_pointwise(solve_forward(*point),
                                       np.linspace(1e-3, 10.0, 1001))

    def test_small_gamma_point_in_its_fd_box(self):
        # the FD oracle's box: the wall 1e-7 times the position of V's
        # minimum, the right end where V first exceeds 4 E_3
        fp = solve_forward(4.0, 0.1, 0.2)
        assert fp.gamma < 1.7
        V = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
        self._assert_grid_is_pointwise(
            fp, np.geomspace(*fd_box(V, 4, [500, 1000]), 1001))

    def test_first_frozen_triple(self, inverse_sets):
        self._assert_grid_is_pointwise(inverse_sets[0][1],
                                       np.linspace(1e-3, 10.0, 1001))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_superpotential_jet_on_a_grid_is_pointwise(self, order):
        zs = random_box_points(40, seed=20 + order)
        for fp in random_forward_sets(4, seed=30 + order):
            grid = w_of_z_jet(zs, fp, order)
            assert pointwise_hex(grid, len(zs)) == [
                pointwise_hex(w_of_z_jet(z, fp, order), 1)[0]
                for z in zs.tolist()]

    def test_one_point_stays_a_float(self, fp_star):
        w = w_of_z_jet(1.3, fp_star, 3)
        assert all(type(c) is float for c in w.coeffs)
        for side in Side:
            assert type(eval_potential_z(side, Form.CANONICAL, 1.3,
                                         fp_star)) is float

    def test_zero_anywhere_on_the_grid_is_rejected(self, fp_star):
        with pytest.raises(DomainError, match="singular at z = 0"):
            eval_potential_z(Side.PLUS, Form.CANONICAL,
                             np.array([0.5, 0.0, 1.0]), fp_star)


X_FORMS = (Form.OPERATOR_PRODUCT, Form.GENERAL, Form.RATIONAL_ANSATZ,
           Form.MATCHED, Form.EXPANDED, Form.REDUCED)


def _x_forms(inverse: bool):
    """The x-chart forms a parameter set has: the general minus form and
    the rational ansatz need inverse-mode parameters, and the ansatz is
    printed for the minus side only."""
    return [(side, form) for side in Side for form in X_FORMS
            if not (side is Side.PLUS and form is Form.RATIONAL_ANSATZ)
            and (inverse or not (side is Side.MINUS and form in (
                Form.GENERAL, Form.RATIONAL_ANSATZ)))]


class TestGridForms:
    """Every potential form takes all its sample points in one call, each
    element bit for bit its one-point value."""

    @staticmethod
    def _assert_grid_is_pointwise(f, points):
        grid = f(np.array(points))
        assert isinstance(grid, np.ndarray) and len(grid) == len(points)
        assert [v.hex() for v in grid.tolist()] == [
            float(f(p)).hex() for p in points]

    def test_x_forms(self, inverse_sets):
        sets = ([(fp, None) for fp in random_forward_sets(6, seed=40)]
                + [(fp, mp) for mp, fp, _ in inverse_sets])
        for fp, mp in sets:
            for side, form in _x_forms(mp is not None):
                self._assert_grid_is_pointwise(
                    lambda x: eval_potential(side, form, x, fp, mp),
                    SAMPLE_X)

    def test_z_forms(self, inverse_sets):
        sets = (random_forward_sets(6, seed=41)
                + [fp for _, fp, _ in inverse_sets])
        for fp in sets:
            for side in Side:
                for form in (Form.CANONICAL, Form.TRANSFORMED):
                    self._assert_grid_is_pointwise(
                        lambda z: eval_potential_z(side, form, z, fp),
                        SAMPLE_Z)

    def test_forward_sets_have_the_forms_without_inverse_parameters(self):
        fp = random_forward_sets(1, seed=42)[0]
        for side, form in set(_x_forms(True)) - set(_x_forms(False)):
            with pytest.raises(ModeError):
                eval_potential(side, form, 1.0, fp)

    def test_overflowing_square_names_the_first_point_on_a_grid(self):
        # w^2 is finite near the states, z ~ 1e-100, and overflows by z = 1;
        # a grid is evaluated with numpy's warnings off, as its callers do
        fp = solve_forward(1.0, 1.0, 1e200)
        z = np.array([1e-100, 2e-100, 1.0, 3.0])
        with np.errstate(all="ignore"):
            self._assert_overflows_at_one(fp, z)

    @staticmethod
    def _assert_overflows_at_one(fp, z):
        for side in Side:
            want = (f"w^2 in the canonical {side.value} potential "
                    f"overflows at z = 1")
            for at in (lambda: eval_potential_z(side, Form.CANONICAL, z, fp),
                       lambda: eval_potential_z(side, Form.CANONICAL, 1.0, fp),
                       lambda: h_tilde_jet(side, z, fp, 2)):
                with pytest.raises(OverflowError) as err:
                    at()
                assert str(err.value) == want


class TestErrorPaths:
    def test_singular_origin(self, fp_star):
        with pytest.raises(DomainError):
            eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, 0.0, fp_star)
        with pytest.raises(DomainError):
            eval_potential_z(Side.PLUS, Form.CANONICAL, 0.0, fp_star)

    def test_chart_mismatch(self, fp_star):
        with pytest.raises(ModeError):
            eval_potential(Side.PLUS, Form.CANONICAL, 1.0, fp_star)
        with pytest.raises(ModeError):
            eval_potential_z(Side.PLUS, Form.REDUCED, 1.0, fp_star)

    def test_inverse_only_forms_rejected_in_forward_mode(self, fp_star):
        with pytest.raises(ModeError):
            eval_potential(Side.MINUS, Form.RATIONAL_ANSATZ, 1.0, fp_star)
        with pytest.raises(ModeError):
            eval_potential(Side.MINUS, Form.GENERAL, 1.0, fp_star)
