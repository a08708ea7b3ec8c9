"""Operator algebra: composition, adjoints, metric conjugation, and the
factorization / intertwining identities of the hierarchy."""

import math

import pytest

from swanson.diffop import (LinDiffOp, build, cf_const, compose, conjugate,
                            formal_adjoint, infer_delta, residual)
from swanson.errors import ModeError
from swanson.jets import Jet
from swanson.potentials import (Form, Side, b1_jet, c1_jet, dlog_rho_jet,
                                eval_potential)
from conftest import SAMPLE_X, SAMPLE_Z, random_forward_sets


def op_D():
    return LinDiffOp([cf_const(0.0), cf_const(1.0)])


def op_mult_x():
    return LinDiffOp([lambda x, order: Jet.variable(x, order)])


def op_xD():
    return LinDiffOp([cf_const(0.0), lambda x, order: Jet.variable(x, order)])


class TestCompose:
    def test_derivative_of_product_rule(self):
        # D o (x .) = x D + 1
        T = compose(op_D(), op_mult_x())
        for x in (0.7, -2.0):
            assert T.coeff(0)(x, 0).value == pytest.approx(1.0)
            assert T.coeff(1)(x, 0).value == pytest.approx(x)

    def test_euler_operator_squared(self):
        # (x D)(x D) = x^2 D^2 + x D
        T = compose(op_xD(), op_xD())
        for x in (0.9, -1.4):
            assert T.coeff(0)(x, 0).value == pytest.approx(0.0)
            assert T.coeff(1)(x, 0).value == pytest.approx(x)
            assert T.coeff(2)(x, 0).value == pytest.approx(x * x)

    def test_factorized_product_applied_to_gaussian(self, fp_star):
        # (raise o lower) f = -ob (a^2 f')' + V_minus f for a smooth test f
        A = build("A", fp_star)
        Ad = build("A_dag", fp_star)
        prod = compose(Ad, A)
        x = -1.0
        f = lambda xj: (-(xj**2) / 4).exp()
        fj = f(Jet.variable(x, 3))
        lhs = sum(prod.coeff(i)(x, 0).value * fj.derivative(i)
                  for i in range(prod.order + 1))
        ob = fp_star.omega_bar
        a2fp = (Jet.variable(x, 3) ** 4) * fj.shift(1)
        kinetic = -ob * a2fp.shift(1).value
        vm = eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, x, fp_star)
        assert lhs == pytest.approx(kinetic + vm * fj.value, rel=1e-12)


class TestFormalAdjoint:
    def test_first_order_pattern(self, fp_star):
        # (a D + b)^dagger = -a D + b - a'
        T = LinDiffOp([
            lambda x, order: Jet.variable(x, order) ** 2 + 1,
            lambda x, order: Jet.variable(x, order) ** 3,
        ])
        Td = formal_adjoint(T)
        for x in (0.8, -1.7):
            assert Td.coeff(1)(x, 0).value == pytest.approx(-(x**3))
            assert Td.coeff(0)(x, 0).value == pytest.approx(
                x**2 + 1 - 3 * x**2)

    def test_symmetric_kinetic_term_fixed(self):
        # -D o a^2 o D expanded: coefficients (-(a^2)'' ... ) -- use the
        # already-expanded form -a^2 D^2 - (a^2)' D and check self-adjointness
        T = LinDiffOp([
            cf_const(0.0),
            lambda x, order: -(Jet.variable(x, order + 1) ** 4).shift(1),
            lambda x, order: -(Jet.variable(x, order) ** 4),
        ])
        Td = formal_adjoint(T)
        assert residual(T, Td, SAMPLE_X) < 1e-14

    def test_involution(self, fp_star):
        T = build("A", fp_star)
        assert residual(formal_adjoint(formal_adjoint(T)), T, SAMPLE_X) < 1e-14

    def test_ladder_pair_are_adjoints(self, fp_star):
        assert residual(formal_adjoint(build("A", fp_star)),
                        build("A_dag", fp_star), SAMPLE_X) < 1e-13


class TestBuild:
    def test_lowering_coefficients_at_reference_point(self, fp_star):
        A = build("A", fp_star)
        assert A.coeff(0)(-1.0, 0).value == pytest.approx(4.5)
        assert A.coeff(1)(-1.0, 0).value == pytest.approx(1.0)

    def test_minus_hamiltonian_zeroth_is_canonical_potential(self, fp_star):
        hm = build("h_minus", fp_star)
        v = hm.coeff(0)(-1.0, 0).value
        assert v == pytest.approx(27.75, rel=1e-13)

    def test_inverse_only_operators_rejected_in_forward_mode(self, fp_star):
        for name in ("H_minus", "H_plus", "eta1_constructed", "eta1_explicit"):
            with pytest.raises(ModeError):
                build(name, fp_star)

    def test_unknown_name_rejected(self, fp_star):
        with pytest.raises(ValueError):
            build("nonsense", fp_star)

    def test_hermitian_limit_intertwiner_collapses(self, inverse_sets):
        # with alpha ~ beta the metric is constant and the intertwiner is
        # just the lowering operator
        from swanson.params import ModelParams
        _, fp, _ = inverse_sets[0]
        mp_near = ModelParams(1.0, 0.2, 0.2 - 1e-13)
        e1 = build("eta1_constructed", fp, mp_near)
        A = build("A", fp)
        assert residual(e1, A, SAMPLE_X) < 1e-10


class TestFactorizationIdentities:
    FORWARD_SETS = random_forward_sets(25, seed=77)

    def test_factorization_both_sides(self):
        for fp in self.FORWARD_SETS:
            A, Ad = build("A", fp), build("A_dag", fp)
            assert residual(build("h_minus", fp), compose(Ad, A),
                            SAMPLE_X) <= 1e-10
            assert residual(build("h_plus", fp), compose(A, Ad),
                            SAMPLE_X) <= 1e-10

    def test_intertwining_both_directions(self):
        for fp in self.FORWARD_SETS:
            A, Ad = build("A", fp), build("A_dag", fp)
            hm, hp = build("h_minus", fp), build("h_plus", fp)
            assert residual(compose(hm, Ad), compose(Ad, hp), SAMPLE_X) <= 1e-9
            assert residual(compose(hp, A), compose(A, hm), SAMPLE_X) <= 1e-9

    def test_halfline_factorization(self):
        for fp in self.FORWARD_SETS:
            At, Atd = build("Atilde", fp), build("Atilde_dag", fp)
            assert residual(build("h_tilde_minus", fp), compose(Atd, At),
                            SAMPLE_Z) <= 1e-10
            assert residual(build("h_tilde_plus", fp), compose(At, Atd),
                            SAMPLE_Z) <= 1e-10

    def test_inverse_sets_satisfy_the_same_identities(self, inverse_sets):
        for _, fp, _ in inverse_sets:
            A, Ad = build("A", fp), build("A_dag", fp)
            assert residual(build("h_minus", fp), compose(Ad, A),
                            SAMPLE_X) <= 1e-10
            assert residual(build("h_plus", fp), compose(A, Ad),
                            SAMPLE_X) <= 1e-10
            hm, hp = build("h_minus", fp), build("h_plus", fp)
            assert residual(compose(hm, Ad), compose(Ad, hp), SAMPLE_X) <= 1e-9
            assert residual(compose(hp, A), compose(A, hm), SAMPLE_X) <= 1e-9


class TestMetricConjugation:
    def test_conjugating_derivative_shifts_by_log_slope(self, inverse_sets):
        mp, fp, _ = inverse_sets[0]
        dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
        T = conjugate(LinDiffOp([cf_const(0.0), cf_const(1.0)]), dlr, +1)
        for x in (-1.3, -0.7):
            assert T.coeff(0)(x, 0).value == pytest.approx(
                -dlog_rho_jet(x, fp, mp, 0).value, rel=1e-12)
            assert T.coeff(1)(x, 0).value == pytest.approx(1.0)

    def test_round_trip(self, inverse_sets):
        mp, fp, _ = inverse_sets[1]
        dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
        T = build("h_minus", fp)
        back = conjugate(conjugate(T, dlr, +1), dlr, -1)
        assert residual(back, T, SAMPLE_X) < 1e-11

    def test_first_order_term_removed_by_the_metric(self, inverse_sets):
        # the non-Hermitian operator conjugated by the metric must have the
        # same first-order coefficient as its Hermitian equivalent
        for mp, fp, _ in inverse_sets:
            dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
            Hm = build("H_minus", fp, mp)
            hm = build("h_minus", fp)
            conj = conjugate(Hm, dlr, +1)
            for x in SAMPLE_X:
                want = hm.coeff(1)(x, 0).value
                got = conj.coeff(1)(x, 0).value
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_partner_agrees_with_conjugated_hermitian(self, inverse_sets):
        for mp, fp, _ in inverse_sets:
            dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
            Hp = build("H_plus", fp, mp)
            hp = build("h_plus", fp)
            assert residual(conjugate(hp, dlr, -1), Hp, SAMPLE_X) <= 1e-9

    def test_intertwiner_chain(self, inverse_sets):
        for mp, fp, _ in inverse_sets:
            e1 = build("eta1_constructed", fp, mp)
            Hm = build("H_minus", fp, mp)
            Hp = build("H_plus", fp, mp)
            assert residual(compose(e1, Hm), compose(Hp, e1), SAMPLE_X) <= 1e-9

    def test_printed_intertwiner_residual_is_finite(self, inverse_sets):
        # printed explicit form vs the constructed one: reported, not asserted
        mp, fp, _ = inverse_sets[0]
        r = residual(build("eta1_explicit", fp, mp),
                     build("eta1_constructed", fp, mp), SAMPLE_X)
        assert math.isfinite(r)


class TestInferDelta:
    def test_round_trip_recovers_injected_constant(self, inverse_sets):
        mp, fp, _ = inverse_sets[0]
        delta0 = 0.37
        ob = mp.omega_bar

        def target(x):
            # zeroth coefficient of the metric-conjugated operator with the
            # gauge constant delta0 injected
            b1 = b1_jet(x, fp, mp, 1)
            return (c1_jet(x, fp, mp, 0, delta=delta0).value
                    + b1.value**2 / (4 * ob * x**4) - b1.derivative(1) / 2)

        delta, fit = infer_delta(mp, fp, SAMPLE_X, target=target)
        assert delta == pytest.approx(delta0, abs=1e-8)
        assert fit < 1e-10

    def test_default_gauge_fits_to_zero(self, inverse_sets):
        for mp, fp, _ in inverse_sets:
            delta, fit = infer_delta(mp, fp, SAMPLE_X)
            assert abs(delta) < 1e-8
            assert fit < 1e-10


class TestJetCoefficientAccuracy:
    def test_coefficients_match_finite_differences(self, fp_star):
        # jets of the zeroth coefficient of the minus Hamiltonian vs central
        # differences with one Richardson refinement
        hm = build("h_minus", fp_star)
        c0 = hm.coeff(0)

        def f(x):
            return c0(x, 0).value

        for x in (-2.1, -0.9, 1.3):
            j = c0(x, 3)
            for k, h in ((1, 1e-5), (2, 1e-4), (3, 2e-3)):
                if k == 1:
                    def dd(h):
                        return (f(x + h) - f(x - h)) / (2 * h)
                elif k == 2:
                    def dd(h):
                        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
                else:
                    def dd(h):
                        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h)
                                - f(x - 2 * h)) / (2 * h**3)
                approx = (4 * dd(h) - dd(2 * h)) / 3
                assert j.derivative(k) == pytest.approx(approx, rel=1e-6,
                                                        abs=1e-6)
