"""Scalar functions of the model: superpotentials, metric, potential forms.

The square ansatz a(x) = x^2 together with the rational superpotentials

    b(x)  = 1/x + c x / (x^2 + d)
    bt(x) = mu/x - rho_q x + lam x / (x^2 + d)

generates every potential of the hierarchy.  The canonical potentials are the
zeroth-order coefficients of the factorizing operator products; each printed
expansion is evaluated exactly as written and classified as validated or
suspect against the canonical form elsewhere (verification report).
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError, ModeError
from .jets import Jet
from .params import FactorizationParams, ModelParams, derive_constants


class Side(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"


class Form(enum.Enum):
    """Which printed or canonical expression of a potential to evaluate."""

    OPERATOR_PRODUCT = "operator_product"   # canonical, from the factorization
    GENERAL = "general"                     # general similarity-transformed form
    RATIONAL_ANSATZ = "rational_ansatz"     # plain-superpotential expansion
    MATCHED = "matched"                     # first tilde-superpotential expansion
    EXPANDED = "expanded"                   # regrouped tilde expansion
    REDUCED = "reduced"                     # after the solvability constraints
    TRANSFORMED = "transformed"             # half-line variable, printed form
    CANONICAL = "canonical"                 # half-line variable, w^2 +/- w'


# ---------------------------------------------------------------------------
# jet-valued building blocks


def a_jet(x: float, order: int) -> Jet:
    return Jet.variable(x, order) ** 2


def _b_tilde(xj: Jet, fp: FactorizationParams) -> Jet:
    """The tilde superpotential mu/x - rho_q x + lam x / (x^2 + d) on a jet."""
    return fp.mu / xj - fp.rho_q * xj + fp.lam * xj / (xj**2 + fp.d)


def b_tilde_jet(x: float, fp: FactorizationParams, order: int) -> Jet:
    if x == 0:
        raise DomainError("superpotential singular at x = 0")
    return _b_tilde(Jet.variable(x, order), fp)


def b_plain_jet(x: float, fp: FactorizationParams, order: int) -> Jet:
    if fp.c is None:
        raise ModeError("plain superpotential needs the inverse-mode constant c")
    if x == 0:
        raise DomainError("superpotential singular at x = 0")
    xj = Jet.variable(x, order)
    return 1.0 / xj + fp.c * xj / (xj**2 + fp.d)


def b1_jet(x: float, fp: FactorizationParams, mp: ModelParams, order: int) -> Jet:
    """First-order (non-Hermitian) coefficient (alpha-beta) a (2b - a')."""
    xj = Jet.variable(x, order)
    return (mp.alpha - mp.beta) * xj**2 * (2 * b_plain_jet(x, fp, order) - 2 * xj)


def c1_jet(x: float, fp: FactorizationParams, mp: ModelParams, order: int,
           delta: float | None = None) -> Jet:
    """Zeroth-order coefficient of the non-Hermitian operator, as printed.

    ``delta`` overrides the gauge constant (defaults to mp.delta_gauge).
    """
    if delta is None:
        delta = mp.delta_gauge
    om, al, be = mp.omega, mp.alpha, mp.beta
    xj = Jet.variable(x, order + 1)
    a = xj**2
    ap = 2 * xj
    app = Jet.const(2.0, order + 1)
    b = b_plain_jet(x, fp, order + 1)
    bp = b.shift(1)
    return ((om + al + be) * b * b - (om + 2 * be) * ap * b
            - (om - al + be) * a * bp + be * (a * app + ap * ap)
            - delta * ap + om / 2)


def h_zeroth_jet(side: Side, x: float, fp: FactorizationParams,
                 order: int) -> Jet:
    """Zeroth coefficient of h- = A^dag A or of h+ = A A^dag."""
    ob = fp.omega_bar
    sw = math.sqrt(ob)
    bt = b_tilde_jet(x, fp, order + 2)
    a = a_jet(x, order + 2)
    if side is Side.MINUS:
        return bt * bt - sw * (a * bt).shift(1)
    return (bt * bt + sw * (a * bt.shift(1) - a.shift(1) * bt)
            - ob * a * a.shift(2))


def dlog_rho_jet(x: float, fp: FactorizationParams, mp: ModelParams,
                 order: int) -> Jet:
    """(log rho)' = -b1 / (2 ob a^2), closed form (no quadrature)."""
    xj = Jet.variable(x, order)
    return -b1_jet(x, fp, mp, order) / (2 * mp.omega_bar * xj**4)


def coord_x(z: float, omega_bar: float) -> float:
    """x(z) = -1/(sqrt(ob) z); the same formula maps x back to z."""
    if z == 0:
        raise DomainError("coordinate map singular at 0")
    return -1.0 / (math.sqrt(omega_bar) * z)


# ---------------------------------------------------------------------------
# potential forms in x


def eval_potential(side: Side, form: Form, x: float, fp: FactorizationParams,
                   mp: ModelParams | None = None) -> float:
    """Evaluate one printed or canonical potential form at x."""
    if x == 0:
        raise DomainError("potential singular at x = 0")
    if form in (Form.TRANSFORMED, Form.CANONICAL):
        raise ModeError("half-line forms are evaluated in the z chart")
    ob = fp.omega_bar
    sw = math.sqrt(ob)
    mu, rq, lam, d = fp.mu, fp.rho_q, fp.lam, fp.d
    x2 = x * x

    if form is Form.OPERATOR_PRODUCT:
        return h_zeroth_jet(side, x, fp, 0).value

    if form is Form.GENERAL:
        if side is Side.MINUS:
            if mp is None or fp.c is None:
                raise ModeError("general minus form needs inverse-mode parameters")
            dc = derive_constants(mp)
            b = b_plain_jet(x, fp, 1)
            bv, bp = b.value, b.derivative(1)
            return (dc.a1 * bv * (bv - 2 * x) - dc.a2 * x2 * bp
                    + dc.a3 * x2 * 2 + dc.a4 * 4 * x2 + dc.a5)
        # plus side: printed partner expansion (suspect; double primes)
        bt = b_tilde_jet(x, fp, 2)
        btpp = bt.derivative(2)
        return (bt.value**2
                + sw * (-sw * x2 * 2 + x2 * btpp - bt.value * 2))

    if form is Form.RATIONAL_ANSATZ:
        if side is not Side.MINUS:
            raise ModeError("the rational-ansatz expansion is printed for the "
                            "minus side only")
        if mp is None or fp.c is None:
            raise ModeError("rational-ansatz form needs inverse-mode parameters")
        dc = derive_constants(mp)
        a1, a2, a3, a4, a5 = dc.a1, dc.a2, dc.a3, dc.a4, dc.a5
        c = fp.c
        return (a1 / x2 + 2 * (a3 + 2 * a4) * x2 + (-2 * a1 + a2) * (c + 1) + a5
                + c * ((2 * a1 + a1 * c + 2 * a1 * d - 3 * a2 * d) * x2
                       + 2 * a1 * (1 + d) - a2 * d) / (x2 + d) ** 2)

    if form is Form.MATCHED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2 - mu * (2 * rq + sw)
                    + lam * (-(2 * rq + sw) * x2**2
                             + (-3 * d * sw + lam + 2 * mu - 2 * d * rq) * x2
                             + 2 * d * mu) / (x2 + d) ** 2)
        # plus side as printed (suspect x^2 coefficient)
        return (mu**2 / x2 + (rq**2 + rq * sw - 2 * ob) * x2
                - mu * (2 * rq + 3 * sw)
                + lam * (-(2 * rq + 3 * sw) * x2**2
                         + (lam + 2 * mu - 2 * d * rq - d * sw + 2 * d * mu) * x2
                         + 2 * d * mu) / (d + x2) ** 2)

    if form is Form.EXPANDED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2
                    - (mu + lam) * (sw + 2 * rq)
                    + lam * ((2 * rq * d + 2 * mu + lam - d * sw) * x2
                             + d * (2 * mu + d * sw + 2 * rq * d)) / (x2 + d) ** 2)
        # plus side as printed (suspect x^2 coefficient)
        return (mu**2 / x2 + rq * (rq + sw - 2 * ob) * x2
                - (mu + lam) * (3 * sw + 2 * rq)
                + lam * ((2 * rq * d + 2 * mu + lam + 5 * d * sw) * x2
                         + d * (2 * mu + 3 * d * sw + 2 * rq * d)) / (x2 + d) ** 2)

    if form is Form.REDUCED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2
                    + 2 * d * (rq + 3.5 * sw) * (rq + 0.5 * sw)
                    + 4 * ob * d**2 * (3 * x2 + d) / (x2 + d) ** 2)
        return (mu**2 / x2 + (rq**2 + rq * sw - 2 * ob) * x2
                + 2 * d * (rq + 3.5 * sw) * (rq + 1.5 * sw))

    raise ModeError(f"unknown form {form}")


# ---------------------------------------------------------------------------
# potential forms in z (half line)


def w_of_z_jet(z: float, fp: FactorizationParams, order: int) -> Jet:
    """Superpotential as a function of z, via the x chart and the chain rule."""
    if z == 0:
        raise DomainError("half-line superpotential singular at z = 0")
    sw = math.sqrt(fp.omega_bar)
    xj = -1.0 / (sw * Jet.variable(z, order))  # x(z) as a jet in z
    return _b_tilde(xj, fp) - sw * xj


def eval_potential_z(side: Side, form: Form, z: float,
                     fp: FactorizationParams) -> float:
    """Evaluate a half-line potential form at z > 0."""
    if z == 0:
        raise DomainError("half-line potential singular at z = 0")
    ob, d, mu, rq = fp.omega_bar, fp.d, fp.mu, fp.rho_q
    sw = math.sqrt(ob)

    if form is Form.CANONICAL:
        wj = w_of_z_jet(z, fp, 1)
        wp = wj.derivative(1)
        if side is Side.PLUS:
            return wj.value**2 + wp
        return wj.value**2 - wp

    if form is Form.TRANSFORMED:
        z2 = z * z
        if side is Side.PLUS:
            return (mu**2 * ob * z2 + (rq**2 + sw * rq) / (ob * z2)
                    + 2 * d * (rq + 3.5 * sw) * (rq + 1.5 * sw))
        # minus side as printed (suspect non-polynomial numerator)
        return (mu**2 * ob * z2 + (rq**2 + 3 * sw * rq + 2 * ob) / (ob * z2)
                + 2 * d * (rq + 3.5 * sw) * (rq + 0.5 * sw) + 4 * ob * d
                + 4 * ob * d * (2 * d * ob * z2 - 1) / (d * ob * z2 + 1) ** 2)

    raise ModeError("only the transformed and canonical forms live in the z chart")


def transform_shift(x: float, omega_bar: float) -> float:
    """Additive potential shift of the half-line transform: ob(a'^2/4 + a a''/2)."""
    return 2 * omega_bar * x * x
