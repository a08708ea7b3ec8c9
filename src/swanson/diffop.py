"""Linear ODE operators over jet-valued coefficient functions.

An operator is an ordered list of coefficient functions [c0, c1, ..., ck]
standing for sum_i c_i(x) d^i/dx^i.  Coefficient functions take (x, order)
and return a Jet, so compositions, formal adjoints, and metric conjugations
can all be done at the coefficient level and compared numerically at sample
points; for the rational coefficients in this model that comparison is
decisive without a symbolic engine.
"""

from __future__ import annotations

import math
from math import comb
from typing import Callable, Sequence

from .errors import JetOrderExceeded, ModeError
from .jets import Jet
from .numeric import max_rel_gap
from .params import FactorizationParams, ModelParams
from .potentials import (Form, Side, a_jet, b1_jet, b_tilde_jet, c1_jet,
                         dlog_rho_jet, eval_potential, h_zeroth_jet,
                         w_of_z_jet)

CoeffFn = Callable[[float, int], Jet]

JET_BUDGET = 12


def cf_const(v: float) -> CoeffFn:
    return lambda x, order: Jet.const(v, order)


class LinDiffOp:
    """Immutable linear ordinary differential operator."""

    def __init__(self, coeffs: Sequence[CoeffFn]):
        self._coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> CoeffFn:
        if i > self.order:
            return cf_const(0.0)
        return self._coeffs[i]

    def apply(self, f, x: float) -> float:
        """Apply to a function given as a Jet -> Jet map; returns (T f)(x)."""
        fj = f(Jet.variable(x, self.order))
        return sum(self._coeffs[i](x, 0).value * fj.derivative(i)
                   for i in range(len(self._coeffs)))

    def __add__(self, other: "LinDiffOp") -> "LinDiffOp":
        n = max(self.order, other.order) + 1
        return LinDiffOp([
            (lambda a, b: (lambda x, order: a(x, order) + b(x, order)))(
                self.coeff(i), other.coeff(i))
            for i in range(n)
        ])

    def premultiplied(self, g: CoeffFn) -> "LinDiffOp":
        """g(x) * T, multiplication from the left by a function."""
        return LinDiffOp([
            (lambda c: (lambda x, order: g(x, order) * c(x, order)))(c)
            for c in self._coeffs
        ])


def compose(T: LinDiffOp, S: LinDiffOp) -> LinDiffOp:
    """Operator product T o S via the Leibniz expansion."""
    if T.order + S.order > JET_BUDGET:
        raise JetOrderExceeded("composition exceeds the jet order budget")
    n = T.order + S.order + 1
    # result_m = sum over i, j, k<=i with i-k+j = m of C(i,k) t_i s_j^(k)
    terms: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    for i in range(T.order + 1):
        for j in range(S.order + 1):
            for k in range(i + 1):
                m = i - k + j
                terms[m].append((i, j, k, comb(i, k)))

    def make(m):
        tm = terms[m]

        def coeff(x: float, order: int) -> Jet:
            out = Jet.const(0.0, order)
            for i, j, k, binom in tm:
                ti = T.coeff(i)(x, order)
                sj = S.coeff(j)(x, order + k)
                out = out + binom * (ti * sj.shift(k))
            return out

        return coeff

    return LinDiffOp([make(m) for m in range(n)])


def formal_adjoint(T: LinDiffOp) -> LinDiffOp:
    """Formal adjoint w.r.t. the flat measure: (c D^k)^† = (-1)^k D^k o c."""
    n = T.order + 1

    def make(m):
        def coeff(x: float, order: int) -> Jet:
            out = Jet.const(0.0, order)
            for i in range(m, n):
                k = i - m
                ci = T.coeff(i)(x, order + k)
                out = out + ((-1) ** i) * comb(i, k) * ci.shift(k)
            return out

        return coeff

    return LinDiffOp([make(m) for m in range(n)])


def conjugate(T: LinDiffOp, dlog_rho: CoeffFn, sign: int) -> LinDiffOp:
    """Similarity transform rho^sign T rho^(-sign) at the coefficient level.

    Uses D -> D - sign*(log rho)' and resums; needs only the logarithmic
    derivative, never rho itself.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    g = LinDiffOp([
        lambda x, order: -sign * dlog_rho(x, order),
        cf_const(1.0),
    ])
    result = LinDiffOp([T.coeff(0)])
    power = None
    for i in range(1, T.order + 1):
        power = g if power is None else compose(power, g)
        result = result + power.premultiplied(T.coeff(i))
    return result


def residual(T: LinDiffOp, S: LinDiffOp, points: Sequence[float]) -> float:
    """Max relative coefficient discrepancy over the sample points."""
    n = max(T.order, S.order) + 1
    return max_rel_gap((S.coeff(i)(x, 0).value, T.coeff(i)(x, 0).value)
                       for x in points for i in range(n))


# ---------------------------------------------------------------------------
# model operator builders


def _need_inverse(fp: FactorizationParams, mp: ModelParams | None):
    if mp is None or fp.c is None:
        raise ModeError("this operator needs inverse-mode parameters "
                        "(omega, alpha, beta and the constant c)")


def build(which: str, fp: FactorizationParams,
          mp: ModelParams | None = None) -> LinDiffOp:
    """Construct one of the named operators of the hierarchy.

    x-chart operators: A, A_dag, h_minus, h_plus, H_minus, H_plus,
    eta1_constructed, eta1_explicit.  z-chart operators: Atilde, Atilde_dag,
    h_tilde_minus, h_tilde_plus.
    """
    ob = fp.omega_bar
    sw = math.sqrt(ob)

    def bt(x, order):
        return b_tilde_jet(x, fp, order)

    def sqa(x, order):
        return sw * a_jet(x, order)

    def neg_sqa(x, order):
        return -sw * a_jet(x, order)

    if which == "A":
        return LinDiffOp([bt, sqa])
    if which == "A_dag":
        return LinDiffOp([
            lambda x, order: bt(x, order) - 2 * sw * Jet.variable(x, order),
            neg_sqa,
        ])
    if which in ("h_minus", "h_plus"):
        side = Side.MINUS if which == "h_minus" else Side.PLUS

        def first(x, order):
            xj = Jet.variable(x, order)
            return -2 * ob * xj**2 * (2 * xj)

        return LinDiffOp([
            lambda x, order: h_zeroth_jet(side, x, fp, order),
            first,
            lambda x, order: -ob * a_jet(x, order) ** 2,
        ])
    if which in ("H_minus", "H_plus"):
        _need_inverse(fp, mp)
        h = build("h_minus" if which == "H_minus" else "h_plus", fp)

        def zeroth(x, order):
            b1 = b1_jet(x, fp, mp, order + 1)
            a2 = a_jet(x, order + 1) ** 2
            v = h.coeff(0)(x, order)
            return v + b1.shift(1) * 0.5 - b1 * b1 / (4 * ob * a2)

        def first(x, order):
            return b1_jet(x, fp, mp, order) + h.coeff(1)(x, order)

        return LinDiffOp([zeroth, first, h.coeff(2)])
    if which == "eta1_constructed":
        _need_inverse(fp, mp)

        def zeroth(x, order):
            return (b_tilde_jet(x, fp, order)
                    + sw * a_jet(x, order) * dlog_rho_jet(x, fp, mp, order))

        return LinDiffOp([zeroth, sqa])
    if which == "eta1_explicit":
        _need_inverse(fp, mp)
        al, be = mp.alpha, mp.beta
        d, rq, mu, c = fp.d, fp.rho_q, fp.mu, fp.c

        def zeroth(x, order):
            xj = Jet.variable(x, order)
            x2 = xj * xj
            num = ((al - be - rq * sw) * x2 * x2
                   + ((al - be) * (d - c - 1)
                      - (3.5 * d * ob + 2 * rq * d * sw)) * x2
                   + d * (mu * sw - al + be))
            return num / (sw * xj * (d + x2))

        return LinDiffOp([zeroth, sqa])
    # --- z-chart operators -------------------------------------------------
    if which in ("Atilde", "Atilde_dag"):
        s = 1.0 if which == "Atilde" else -1.0
        return LinDiffOp([
            lambda z, order: w_of_z_jet(z, fp, order),
            cf_const(s),
        ])
    if which in ("h_tilde_minus", "h_tilde_plus"):
        side = Side.MINUS if which == "h_tilde_minus" else Side.PLUS

        def v(z, order):
            wj = w_of_z_jet(z, fp, order + 1)
            wp = wj.shift(1)
            if side is Side.PLUS:
                return wj * wj + wp
            return wj * wj - wp

        return LinDiffOp([v, cf_const(0.0), cf_const(-1.0)])
    raise ValueError(f"unknown operator id {which!r}")


def infer_delta(mp: ModelParams, fp: FactorizationParams,
                points: Sequence[float],
                target: Callable[[float], float] | None = None,
                ) -> tuple[float, float]:
    """Least-squares gauge constant for the printed zeroth-order coefficient.

    Finds the constant delta such that the zeroth coefficient of the
    metric-conjugated printed operator matches the general Hermitian
    potential across the sample points.  ``target`` overrides the reference
    values (used for synthetic round trips).  Returns (delta, rms residual).
    """
    _need_inverse(fp, mp)
    ob = mp.omega_bar

    def conjugated_zeroth(x: float, delta: float) -> float:
        # zeroth coefficient of rho H(delta) rho^{-1}:
        # c1(delta) + b1^2/(4 ob a^2) - b1'/2
        b1 = b1_jet(x, fp, mp, 1)
        a2 = x**4
        return (c1_jet(x, fp, mp, 0, delta=delta).value
                + b1.value**2 / (4 * ob * a2) - b1.derivative(1) / 2)

    if target is None:
        def target_fn(x):
            return eval_potential(Side.MINUS, Form.GENERAL, x, fp, mp)
    else:
        target_fn = target

    # conjugated zeroth is c1(0) - delta*a' + (metric terms): linear in delta
    num = 0.0
    den = 0.0
    for x in points:
        ap = 2 * x
        r0 = conjugated_zeroth(x, 0.0) - target_fn(x)
        num += ap * r0
        den += ap * ap
    delta = num / den if den > 0 else 0.0
    ss = 0.0
    for x in points:
        r = conjugated_zeroth(x, delta) - target_fn(x)
        ss += r * r
    return delta, math.sqrt(ss / len(points))
