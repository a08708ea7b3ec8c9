"""Linear ODE operators evaluated on all their sample points at once.

An operator sum_i c_i(x) d^i/dx^i of order k is one function ``at(x, order)``
that returns the Taylor coefficients of all its coefficients [c0, ..., ck]
at x, each truncated at ``order``, in the ``Jet`` container; x is a point or
an ndarray of points, each element bit for bit its one-point value (see
``jets``).  The model's coefficients are closed forms on plain arrays
(``potentials``' x chart).  Compositions, formal adjoints and metric
conjugations act on the coefficient tuples directly, with numpy's
``+ - * /`` alone and no ``Jet`` arithmetic: each evaluates its operands
once per call and combines their coefficients, and ``residual`` compares
two operators with one ``at`` call each on all the sample points; for the
rational coefficients in this model that comparison is decisive without a
symbolic engine.  ``leibniz`` and ``gap`` are the product and the
comparison over coefficients already evaluated, so that an operand read by
two products is evaluated once.  ``leibniz`` is the generic product, the
independent side of every operator identity: h+-'s zeroth coefficient is
its own formula in b~ and a (``potentials.h_zeroth_jet``).

Evaluating an operand to a higher order than a term needs is exact: in a
truncated product coefficient k is computed from coefficients <= k only,
always in the same operation order, so the extra orders never touch the
ones that are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from math import comb
from operator import add
from typing import Callable, Sequence

import numpy as np

from .errors import ModeError
from .jets import Jet, cauchy, elementwise, shifted
from .numeric import max_rel_gap
from .params import FactorizationParams, ModelParams
from .potentials import (Form, Side, H_zeroth_jet, b1_jet, b_tilde_jet,
                         c1_jet, dlog_rho_jet, eta1_explicit_jet,
                         eval_potential, h_zeroth_jet, power_jet)

CoeffFn = Callable[[float | np.ndarray, int], Jet]


@dataclass(frozen=True)
class LinDiffOp:
    """Immutable linear ODE operator sum_i c_i(x) d^i/dx^i, i = 0..order.

    ``at(x, n)`` returns the coefficient jets [c0, ..., c_order] at x (a
    point or an ndarray of points), each to Taylor order n.
    """

    order: int
    at: Callable[[float | np.ndarray, int], list[Jet]]


def _product(p: tuple, q: tuple, order: int) -> list:
    """The Taylor coefficients of a product to ``order``."""
    return [cauchy(p, q, i) for i in range(min(len(p), len(q), order + 1))]


def _scaled(c: tuple, f: float) -> tuple:
    return tuple(v * f for v in c)


def _add(p: list, q: list) -> list:
    return [a + b for a, b in zip(p, q)]


def leibniz(t: list[Jet], s: list[Jet], order: int) -> list[Jet]:
    """The coefficient jets of T o S to ``order`` by the Leibniz expansion,
    from T's coefficient jets t, to ``order``, and S's s, to ``order`` plus
    T's order, evaluated at the same points."""
    # result_m = sum over i, j, k<=i with i-k+j = m of C(i,k) t_i s_j^(k)
    # s_j^(k) for every k <= T's order, each shifted once
    s_k = [[shifted(sj.coeffs, k) for k in range(len(t))] for sj in s]
    out: list = [None] * (len(t) + len(s) - 1)
    for i, ti in enumerate(t):
        for j, sjk in enumerate(s_k):
            for k in range(i + 1):
                term = _product(ti.coeffs, sjk[k], order)
                if comb(i, k) != 1:
                    term = _scaled(term, comb(i, k))
                m = i - k + j
                out[m] = term if out[m] is None else _add(out[m], term)
    return [Jet(tuple(c)) for c in out]


def compose(T: LinDiffOp, S: LinDiffOp) -> LinDiffOp:
    """Operator product T o S via the Leibniz expansion."""
    return LinDiffOp(T.order + S.order, lambda x, order: leibniz(
        T.at(x, order), S.at(x, order + T.order), order))


def formal_adjoint(T: LinDiffOp) -> LinDiffOp:
    """Formal adjoint w.r.t. the flat measure: (c D^k)^† = (-1)^k D^k o c."""
    n = T.order + 1

    def at(x: float, order: int) -> list[Jet]:
        c = T.at(x, order + T.order)
        out = []
        for m in range(n):
            acc = [0.0] * (order + 1)
            for i in range(m, n):
                k = i - m
                term = _scaled(shifted(c[i].coeffs, k),
                               ((-1) ** i) * comb(i, k))
                acc = _add(acc, term)
            out.append(Jet(tuple(acc)))
        return out

    return LinDiffOp(T.order, at)


def conjugate(T: LinDiffOp, dlog_rho: CoeffFn, sign: int) -> LinDiffOp:
    """Similarity transform rho^sign T rho^(-sign) at the coefficient level.

    Uses D -> D - sign*(log rho)' and resums; needs only the logarithmic
    derivative, never rho itself.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    g = LinDiffOp(1, lambda x, order: [
        Jet(_scaled(dlog_rho(x, order).coeffs, -sign)),
        Jet.const(1.0, order)])
    powers = [g]  # g^1, ..., g^(T.order)
    while len(powers) < T.order:
        powers.append(compose(powers[-1], g))

    def at(x: float, order: int) -> list[Jet]:
        t = T.at(x, order)
        out = [t[0].coeffs] + [(0.0,) * (order + 1)] * T.order
        for ti, power in zip(t[1:], powers):
            for m, pm in enumerate(power.at(x, order)):
                out[m] = _add(out[m], _product(ti.coeffs, pm.coeffs, order))
        return [Jet(tuple(c)) for c in out]

    return LinDiffOp(T.order, at)


def gap(t: list[Jet], s: list[Jet]) -> float:
    """Max relative discrepancy of the values of S's coefficient jets s
    against T's t (a NaN gap is a NaN)."""
    return max_rel_gap(zip_longest([c.value for c in s], [c.value for c in t],
                                   fillvalue=0.0))


def residual(T: LinDiffOp, S: LinDiffOp, points: Sequence[float]) -> float:
    """Max relative coefficient discrepancy over the sample points, each
    operator evaluated once on all of them (an overflow gives inf, a NaN
    gap a NaN residual)."""
    x = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):
        s, t = S.at(x, 0), T.at(x, 0)
    return gap(t, s)


# ---------------------------------------------------------------------------
# model operator builders


def _need_inverse(fp: FactorizationParams, mp: ModelParams | None):
    if mp is None or fp.c is None:
        raise ModeError("this operator needs inverse-mode parameters "
                        "(omega, alpha, beta and the constant c)")


def build(which: str, fp: FactorizationParams,
          mp: ModelParams | None = None) -> LinDiffOp:
    """Construct one of the named operators of the hierarchy, all in the x
    chart: A, A_dag, h_minus, h_plus, H_minus, H_plus, eta1_constructed
    (the intertwiner rho^-1 A rho, by ``conjugate``), eta1_explicit.
    """
    ob = fp.omega_bar
    sw = math.sqrt(ob)

    if which == "A":
        return LinDiffOp(1, lambda x, order: [b_tilde_jet(x, fp, order),
                                              power_jet(x, 2, order, sw)])
    if which == "A_dag":
        def at(x, order):
            bt = b_tilde_jet(x, fp, order).coeffs
            lin = power_jet(x, 1, order, 2 * sw).coeffs
            return [Jet(tuple(b - v for b, v in zip(bt, lin))),
                    power_jet(x, 2, order, -sw)]

        return LinDiffOp(1, at)
    # h- and h+ share h1 = -ob (a^2)' = -4 ob x^3 and h2 = -ob a^2
    if which in ("h_minus", "h_plus"):
        side = Side.MINUS if which == "h_minus" else Side.PLUS
        return LinDiffOp(2, lambda x, order: [
            h_zeroth_jet(side, x, fp, order),
            power_jet(x, 3, order, -4 * ob),
            power_jet(x, 4, order, -ob)])
    if which in ("H_minus", "H_plus"):
        _need_inverse(fp, mp)
        side = Side.MINUS if which == "H_minus" else Side.PLUS

        def at(x, order):
            h1 = power_jet(x, 3, order, -4 * ob).coeffs
            b1 = b1_jet(x, fp, mp, order).coeffs
            return [H_zeroth_jet(side, x, fp, mp, order),
                    Jet(tuple(b + h for b, h in zip(b1, h1))),
                    power_jet(x, 4, order, -ob)]

        return LinDiffOp(2, at)
    if which == "eta1_constructed":
        _need_inverse(fp, mp)
        return conjugate(build("A", fp), lambda x, order: dlog_rho_jet(
            x, fp, mp, order), -1)
    if which == "eta1_explicit":
        _need_inverse(fp, mp)
        return LinDiffOp(1, lambda x, order: [
            eta1_explicit_jet(x, fp, mp, order),
            power_jet(x, 2, order, sw)])
    raise ValueError(f"unknown operator id {which!r}")


def infer_delta(mp: ModelParams, fp: FactorizationParams,
                points: Sequence[float]) -> tuple[float, float]:
    """Least-squares gauge constant for the printed zeroth-order coefficient.

    Finds the constant delta such that the zeroth coefficient of the
    metric-conjugated printed operator matches the general Hermitian
    potential, evaluated once on the ndarray of all the sample points.
    Returns (delta, rms residual).
    """
    _need_inverse(fp, mp)
    ob = mp.omega_bar
    x = np.asarray(points, dtype=float)
    # a^2 = x^4 by libm's pow, as Python's x**4 on one point: (x*x)*(x*x)
    # rounds twice and moves the fitted constant, which is rounding noise
    a2 = elementwise(lambda v: v**4, x)
    b1 = b1_jet(x, fp, mp, 1)
    ref = eval_potential(Side.MINUS, Form.GENERAL, x, fp, mp)

    def misfit(delta: float) -> np.ndarray:
        # zeroth coefficient of rho H(delta) rho^{-1} less the general
        # potential: c1(delta) + b1^2/(4 ob a^2) - b1'/2 - ref
        return (c1_jet(x, fp, mp, 0, delta=delta).value
                + b1.value * b1.value / (4 * ob * a2)
                - b1.derivative(1) / 2 - ref)

    # the misfit is c1(0) - delta*a' + (metric terms): linear in delta.  The
    # sums run left to right from 0.0, as a loop over the points adds them
    # (np.sum adds in pairs, which moves the last bits)
    ap = 2 * x
    r0 = misfit(0.0)
    den = reduce(add, (ap * ap).tolist(), 0.0)
    delta = reduce(add, (ap * r0).tolist(), 0.0) / den if den > 0 else 0.0
    r = misfit(delta)
    return delta, math.sqrt(reduce(add, (r * r).tolist(), 0.0) / len(x))
