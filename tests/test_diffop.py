"""Operator algebra: composition, adjoints, metric conjugation, and the
factorization / intertwining identities of the hierarchy."""

import math

import numpy as np
import pytest

from swanson import diffop
from swanson.diffop import (LinDiffOp, build, compose, conjugate,
                            formal_adjoint, infer_delta, residual)
from swanson.errors import ModeError
from swanson.jets import Jet
from swanson.potentials import (Form, Side, a_jet, b1_jet, b_tilde_jet,
                                c1_jet, dlog_rho_jet, eval_potential)
from conftest import SAMPLE_X, pointwise_hex, random_forward_sets


def op(*coeffs):
    """The operator sum_i coeffs[i](x) d^i/dx^i."""
    return LinDiffOp(len(coeffs) - 1,
                     lambda x, order: [c(x, order) for c in coeffs])


def const(v):
    return lambda x, order: Jet.const(v, order)


def op_D():
    return op(const(0.0), const(1.0))


def op_mult_x():
    return op(lambda x, order: Jet.variable(x, order))


def op_xD():
    return op(const(0.0), lambda x, order: Jet.variable(x, order))


class TestCompose:
    def test_derivative_of_product_rule(self):
        # D o (x .) = x D + 1
        T = compose(op_D(), op_mult_x())
        for x in (0.7, -2.0):
            assert T.at(x, 0)[0].value == pytest.approx(1.0)
            assert T.at(x, 0)[1].value == pytest.approx(x)

    def test_euler_operator_squared(self):
        # (x D)(x D) = x^2 D^2 + x D
        T = compose(op_xD(), op_xD())
        for x in (0.9, -1.4):
            assert T.at(x, 0)[0].value == pytest.approx(0.0)
            assert T.at(x, 0)[1].value == pytest.approx(x)
            assert T.at(x, 0)[2].value == pytest.approx(x * x)

    def test_factorized_product_applied_to_gaussian(self, fp_star):
        # (raise o lower) f = -ob (a^2 f')' + V_minus f for a smooth test f
        A = build("A", fp_star)
        Ad = build("A_dag", fp_star)
        prod = compose(Ad, A)
        x = -1.0
        f = lambda xj: (-(xj**2) / 4).exp()
        fj = f(Jet.variable(x, 3))
        lhs = sum(c.value * fj.derivative(i)
                  for i, c in enumerate(prod.at(x, 0)))
        ob = fp_star.omega_bar
        a2fp = (Jet.variable(x, 3) ** 4) * fj.shift(1)
        kinetic = -ob * a2fp.shift(1).value
        vm = eval_potential(Side.MINUS, Form.OPERATOR_PRODUCT, x, fp_star)
        assert lhs == pytest.approx(kinetic + vm * fj.value, rel=1e-12)


class TestFormalAdjoint:
    def test_first_order_pattern(self, fp_star):
        # (a D + b)^dagger = -a D + b - a'
        T = op(
            lambda x, order: Jet.variable(x, order) ** 2 + 1,
            lambda x, order: Jet.variable(x, order) ** 3,
        )
        Td = formal_adjoint(T)
        for x in (0.8, -1.7):
            assert Td.at(x, 0)[1].value == pytest.approx(-(x**3))
            assert Td.at(x, 0)[0].value == pytest.approx(
                x**2 + 1 - 3 * x**2)

    def test_symmetric_kinetic_term_fixed(self):
        # -D o a^2 o D expanded: coefficients (-(a^2)'' ... ) -- use the
        # already-expanded form -a^2 D^2 - (a^2)' D and check self-adjointness
        T = op(
            const(0.0),
            lambda x, order: -(Jet.variable(x, order + 1) ** 4).shift(1),
            lambda x, order: -(Jet.variable(x, order) ** 4),
        )
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
        assert A.at(-1.0, 0)[0].value == pytest.approx(4.5)
        assert A.at(-1.0, 0)[1].value == pytest.approx(1.0)

    def test_minus_hamiltonian_zeroth_is_canonical_potential(self, fp_star):
        hm = build("h_minus", fp_star)
        v = hm.at(-1.0, 0)[0].value
        assert v == pytest.approx(27.75, rel=1e-13)

    def test_inverse_only_operators_rejected_in_forward_mode(self, fp_star):
        for name in ("H_minus", "H_plus", "eta1_constructed", "eta1_explicit"):
            with pytest.raises(ModeError):
                build(name, fp_star)

    # build holds the x-chart operators only; the half-line potentials
    # w^2 -+ w' are potentials.h_tilde_jet
    @pytest.mark.parametrize("name", ["nonsense", "Atilde", "Atilde_dag",
                                      "h_tilde_minus", "h_tilde_plus"])
    def test_unknown_name_rejected(self, name, fp_star):
        with pytest.raises(ValueError, match="unknown operator id"):
            build(name, fp_star)

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
        T = conjugate(op_D(), dlr, +1)
        for x in (-1.3, -0.7):
            assert T.at(x, 0)[0].value == pytest.approx(
                -dlog_rho_jet(x, fp, mp, 0).value, rel=1e-12)
            assert T.at(x, 0)[1].value == pytest.approx(1.0)

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
                want = hm.at(x, 0)[1].value
                got = conj.at(x, 0)[1].value
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_partner_agrees_with_conjugated_hermitian(self, inverse_sets):
        for mp, fp, _ in inverse_sets:
            dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
            Hp = build("H_plus", fp, mp)
            hp = build("h_plus", fp)
            assert residual(conjugate(hp, dlr, -1), Hp, SAMPLE_X) <= 1e-9

    @pytest.mark.parametrize("order", range(4))
    def test_intertwiner_is_the_hand_expansion(self, order, inverse_sets):
        # rho^-1 A rho = [b~ + sqrt(ob) a (log rho)', sqrt(ob) a]: conjugate's
        # resummation does the hand expansion's arithmetic, bit for bit
        x = np.array(SAMPLE_X)
        for mp, fp, _ in inverse_sets:
            sa = math.sqrt(fp.omega_bar) * a_jet(x, order)
            want = [b_tilde_jet(x, fp, order)
                    + sa * dlog_rho_jet(x, fp, mp, order), sa]
            got = build("eta1_constructed", fp, mp).at(x, order)
            assert [pointwise_hex(j, len(x)) for j in got] == [
                pointwise_hex(j, len(x)) for j in want]

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


class TestOnePassEvaluation:
    def test_higher_order_evaluation_keeps_the_low_coefficients(
            self, inverse_sets):
        # a truncated product computes coefficient k from coefficients <= k
        # only, and each closed-form coefficient is the same at every
        # order, so an operator taken to its highest order and cut lower is
        # the lower-order evaluation bit for bit.  The highest order is the
        # one the closed forms reach: b~, b and b1 are written to order 4,
        # h+-, H+- and (log rho)' to order 3
        mp, fp, _ = inverse_sets[0]
        dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
        hm, hp = build("h_minus", fp), build("h_plus", fp)
        Hm, e1 = build("H_minus", fp, mp), build("eta1_constructed", fp, mp)
        ops = [(compose(hm, build("A_dag", fp)), 2), (formal_adjoint(hm), 1),
               (conjugate(Hm, dlr, +1), 2), (conjugate(hp, dlr, -1), 2),
               (compose(e1, Hm), 2)]
        for T, top in ops:
            for x in SAMPLE_X:
                high = T.at(x, top)
                for low in range(top):
                    assert [[c.hex() for c in j.coeffs[:low + 1]]
                            for j in high] == [
                        [c.hex() for c in j.coeffs] for j in T.at(x, low)]

    def test_compose_evaluates_each_operand_coefficient_once(self):
        calls = {}

        def counted(name, fn):
            def coeff(x, order):
                calls[name] = calls.get(name, 0) + 1
                return fn(x, order)
            return coeff

        xj = lambda x, order: Jet.variable(x, order)
        T = op(*(counted(f"t{i}", xj) for i in range(3)))
        S = op(*(counted(f"s{j}", xj) for j in range(2)))
        compose(T, S).at(0.7, 3)
        assert calls == {"t0": 1, "t1": 1, "t2": 1, "s0": 1, "s1": 1}

    def test_compose_shifts_each_operand_coefficient_once(self,
                                                          monkeypatch):
        # a (2, 1) composition needs s_j^(k) for j <= 1, k <= 2: six shifts,
        # and the coefficients are the Leibniz expansion in jet arithmetic
        # bit for bit
        xj = lambda x, order: Jet.variable(x, order)
        T = op(lambda x, o: xj(x, o) ** 3 - 2.0, lambda x, o: 1.5 / xj(x, o),
               lambda x, o: xj(x, o) * xj(x, o) + 0.25)
        S = op(lambda x, o: 1.0 / (xj(x, o) ** 2 + 0.7),
               lambda x, o: 0.3 * xj(x, o) ** 4)
        x, order = -0.8, 2
        t, s = T.at(x, order), S.at(x, order + T.order)
        expected = [Jet.const(0.0, order)] * 4
        for i, ti in enumerate(t):
            for j, sj in enumerate(s):
                for k in range(i + 1):
                    term = math.comb(i, k) * (ti * sj.shift(k))
                    expected[i - k + j] = expected[i - k + j] + term
        shifted, calls = diffop.shifted, []

        def counted(c, k):
            calls.append(k)
            return shifted(c, k)

        monkeypatch.setattr(diffop, "shifted", counted)
        got = compose(T, S).at(x, order)
        assert sorted(calls) == [0, 0, 1, 1, 2, 2]
        assert ([[c.hex() for c in j.coeffs] for j in got]
                == [[c.hex() for c in j.coeffs] for j in expected])


class TestInferDelta:
    def test_round_trip_recovers_injected_constant(self, inverse_sets,
                                                   monkeypatch):
        mp, fp, _ = inverse_sets[0]
        delta0 = 0.37
        ob = mp.omega_bar

        def target(side, form, x, fp, mp):
            # in place of the general potential: the zeroth coefficient of
            # the metric-conjugated operator with the gauge constant delta0
            # injected
            b1 = b1_jet(x, fp, mp, 1)
            return (c1_jet(x, fp, mp, 0, delta=delta0).value
                    + b1.value**2 / (4 * ob * x**4) - b1.derivative(1) / 2)

        monkeypatch.setattr(diffop, "eval_potential", target)
        delta, fit = infer_delta(mp, fp, SAMPLE_X)
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
        def f(x):
            return hm.at(x, 0)[0].value

        for x in (-2.1, -0.9, 1.3):
            j = hm.at(x, 3)[0]
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


X_IDS = ("A", "A_dag", "h_minus", "h_plus")
INVERSE_IDS = ("H_minus", "H_plus", "eta1_constructed", "eta1_explicit")


def assert_grid_is_pointwise(T, points, order):
    """T on the ndarray of all the points equals T at each point, every
    coefficient of every jet by float.hex."""
    grid = T.at(np.array(points), order)
    each = [T.at(x, order) for x in points]
    for i, jet in enumerate(grid):
        assert pointwise_hex(jet, len(points)) == [
            pointwise_hex(jets[i], 1)[0] for jets in each]


class TestGridOperators:
    """Every operator takes all its sample points in one call, each element
    bit for bit its one-point value."""

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_forward_ids_on_random_sets(self, order):
        for fp in random_forward_sets(4, seed=90 + order):
            for which in X_IDS:
                assert_grid_is_pointwise(build(which, fp), SAMPLE_X, order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_id_at_the_frozen_triples(self, order, inverse_sets):
        for mp, fp, _ in inverse_sets:
            for which in X_IDS + INVERSE_IDS:
                assert_grid_is_pointwise(build(which, fp, mp), SAMPLE_X,
                                         order)
            dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
            Hm = build("H_minus", fp, mp)
            assert_grid_is_pointwise(conjugate(Hm, dlr, +1), SAMPLE_X, order)
            assert_grid_is_pointwise(
                compose(build("eta1_constructed", fp, mp), Hm), SAMPLE_X,
                order)

    def test_residual_calls_each_operand_once_on_all_points(self, fp_star):
        calls = []

        def spy(T, name):
            def at(x, order):
                calls.append((name, x.tolist()))
                return T.at(x, order)
            return LinDiffOp(T.order, at)

        A, Ad = build("A", fp_star), build("A_dag", fp_star)
        res = residual(spy(build("h_minus", fp_star), "T"),
                       spy(compose(Ad, A), "S"), SAMPLE_X)
        assert sorted(calls) == [("S", SAMPLE_X), ("T", SAMPLE_X)]
        assert res <= 1e-10

    def test_a_nan_coefficient_makes_the_residual_nan(self):
        # a max that keeps its first argument read a NaN pair as no gap
        T = op(lambda x, order: Jet.variable(x, order) * math.nan)
        assert math.isnan(residual(T, op(const(0.0)), SAMPLE_X))

    def test_the_gauge_fit_evaluates_its_potential_once_on_all_points(
            self, inverse_sets, monkeypatch):
        mp, fp, _ = inverse_sets[0]
        want = infer_delta(mp, fp, SAMPLE_X)
        seen = []

        def counted(side, form, x, fp, mp):
            seen.append((side, form, x.tolist()))
            return eval_potential(side, form, x, fp, mp)

        monkeypatch.setattr(diffop, "eval_potential", counted)
        assert infer_delta(mp, fp, SAMPLE_X) == want
        assert seen == [(Side.MINUS, Form.GENERAL, SAMPLE_X)]
