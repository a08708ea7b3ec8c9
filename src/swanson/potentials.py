"""Scalar functions of the model: superpotentials, metric, potential forms.

The square ansatz a(x) = x^2 together with the rational superpotentials

    b(x)  = 1/x + c x / (x^2 + d)
    bt(x) = mu/x - rho_q x + lam x / (x^2 + d)

generates every potential of the hierarchy.  The canonical potentials are the
zeroth-order coefficients of the factorizing operator products; each printed
expansion is evaluated exactly as written and classified as validated or
suspect against the canonical form elsewhere (verification report).

The x chart composes its operator products in jet arithmetic (``Jet``).  The
half-line chart z is written in closed form: the superpotential
w = a z + p/z + b z/q, q = 1 + d ob z^2, with its derivatives to order 3 as
plain array expressions (``w_of_z_jet``), and the canonical potentials
w^2 +- w' from that one w (``h_tilde_jet``), read from the fields the x
chart reads (mu, rho_q, lam, d, ob).  So ``transform_shift`` compares two
independent computations.

Every function of x (or z) takes a point or an ndarray of points, each
element bit for bit its one-point value: a sample-dependent square is the
product q * q (see ``jets``).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, ModeError
from .jets import Jet, any_zero
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


def a_jet(x, order: int) -> Jet:
    return Jet.variable(x, order) ** 2


def _b_tilde(xj: Jet, fp: FactorizationParams) -> Jet:
    """The tilde superpotential mu/x - rho_q x + lam x / (x^2 + d) on a jet."""
    return fp.mu / xj - fp.rho_q * xj + fp.lam * xj / (xj**2 + fp.d)


def b_tilde_jet(x, fp: FactorizationParams, order: int) -> Jet:
    if any_zero(x):
        raise DomainError("superpotential singular at x = 0")
    return _b_tilde(Jet.variable(x, order), fp)


def b_plain_jet(x, fp: FactorizationParams, order: int) -> Jet:
    if fp.c is None:
        raise ModeError("plain superpotential needs the inverse-mode constant c")
    if any_zero(x):
        raise DomainError("superpotential singular at x = 0")
    xj = Jet.variable(x, order)
    return 1.0 / xj + fp.c * xj / (xj**2 + fp.d)


def b1_jet(x, fp: FactorizationParams, mp: ModelParams, order: int) -> Jet:
    """First-order (non-Hermitian) coefficient (alpha-beta) a (2b - a')."""
    xj = Jet.variable(x, order)
    return (mp.alpha - mp.beta) * xj**2 * (2 * b_plain_jet(x, fp, order) - 2 * xj)


def c1_jet(x, fp: FactorizationParams, mp: ModelParams, order: int,
           delta: float) -> Jet:
    """Zeroth-order coefficient of the non-Hermitian operator, as printed,
    with the gauge constant ``delta``."""
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


def h_zeroth_jet(side: Side, x, fp: FactorizationParams,
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


def dlog_rho_jet(x, fp: FactorizationParams, mp: ModelParams,
                 order: int) -> Jet:
    """(log rho)' = -b1 / (2 ob a^2), closed form (no quadrature)."""
    xj = Jet.variable(x, order)
    return -b1_jet(x, fp, mp, order) / (2 * mp.omega_bar * xj**4)


def coord_x(z, omega_bar: float):
    """x(z) = -1/(sqrt(ob) z); the same formula maps x back to z."""
    if any_zero(z):
        raise DomainError("coordinate map singular at 0")
    return -1.0 / (math.sqrt(omega_bar) * z)


# ---------------------------------------------------------------------------
# potential forms in x


def eval_potential(side: Side, form: Form, x, fp: FactorizationParams,
                   mp: ModelParams | None = None):
    """Evaluate one printed or canonical potential form at x, or on a grid
    of x."""
    if any_zero(x):
        raise DomainError("potential singular at x = 0")
    if form in (Form.TRANSFORMED, Form.CANONICAL):
        raise ModeError("half-line forms are evaluated in the z chart")
    ob = fp.omega_bar
    sw = math.sqrt(ob)
    mu, rq, lam, d = fp.mu, fp.rho_q, fp.lam, fp.d
    x2 = x * x
    xd2 = (x2 + d) * (x2 + d)

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
        return (bt.value * bt.value
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
                       + 2 * a1 * (1 + d) - a2 * d) / xd2)

    if form is Form.MATCHED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2 - mu * (2 * rq + sw)
                    + lam * (-(2 * rq + sw) * (x2 * x2)
                             + (-3 * d * sw + lam + 2 * mu - 2 * d * rq) * x2
                             + 2 * d * mu) / xd2)
        # plus side as printed (suspect x^2 coefficient)
        return (mu**2 / x2 + (rq**2 + rq * sw - 2 * ob) * x2
                - mu * (2 * rq + 3 * sw)
                + lam * (-(2 * rq + 3 * sw) * (x2 * x2)
                         + (lam + 2 * mu - 2 * d * rq - d * sw + 2 * d * mu) * x2
                         + 2 * d * mu) / xd2)

    if form is Form.EXPANDED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2
                    - (mu + lam) * (sw + 2 * rq)
                    + lam * ((2 * rq * d + 2 * mu + lam - d * sw) * x2
                             + d * (2 * mu + d * sw + 2 * rq * d)) / xd2)
        # plus side as printed (suspect x^2 coefficient)
        return (mu**2 / x2 + rq * (rq + sw - 2 * ob) * x2
                - (mu + lam) * (3 * sw + 2 * rq)
                + lam * ((2 * rq * d + 2 * mu + lam + 5 * d * sw) * x2
                         + d * (2 * mu + 3 * d * sw + 2 * rq * d)) / xd2)

    if form is Form.REDUCED:
        if side is Side.MINUS:
            return (mu**2 / x2 + rq * (rq + 3 * sw) * x2
                    + 2 * d * (rq + 3.5 * sw) * (rq + 0.5 * sw)
                    + 4 * ob * d**2 * (3 * x2 + d) / xd2)
        return (mu**2 / x2 + (rq**2 + rq * sw - 2 * ob) * x2
                + 2 * d * (rq + 3.5 * sw) * (rq + 1.5 * sw))

    raise ModeError(f"unknown form {form}")


# ---------------------------------------------------------------------------
# potential forms in z (half line)


def w_of_z_jet(z, fp: FactorizationParams, order: int) -> Jet:
    """The half-line superpotential w = a z + p/z + b z/q and its Taylor
    coefficients to ``order`` <= 3, in closed form, at z or on a grid of z.

    a = -mu sqrt(ob), p = rho_q/sqrt(ob) + 1, b = -lam sqrt(ob) and
    q = 1 + d ob z^2: b~(x) - sqrt(ob) x at x(z) = -1/(sqrt(ob) z), read
    from the fields the x chart reads, never from omega_hat or gamma.  The
    rational piece and its derivatives are written in s = 1/q and
    u = d ob z^2/q = 1/(1 + 1/(d ob z^2)), both in [0, 1] and each one
    reciprocal, so that no power of q is formed: they stay finite where
    d ob z^2 leaves the float range.
    """
    if any_zero(z):
        raise DomainError("half-line superpotential singular at z = 0")
    if not 0 <= order <= 3:
        raise ValueError(f"w is written to order 3, not {order}")
    sw = math.sqrt(fp.omega_bar)
    a, p, b = -fp.mu * sw, fp.rho_q / sw + 1.0, -fp.lam * sw
    iz = 1.0 / z
    p_iz = p * iz
    s = 1.0 / (1.0 + fp.d * fp.omega_bar * z * z)
    coeffs = [a * z + p_iz + b * (z * s)]
    if order:
        u = 1.0 / (1.0 + 1.0 / fp.d / fp.omega_bar * iz * iz)
        coeffs.append(a - p_iz * iz + b * s * (s - u))
    if order >= 2:
        coeffs.append(p_iz * iz * iz - b * u * iz * s * (3.0 * s - u))
    if order >= 3:
        coeffs.append(-p_iz * iz * iz * iz
                      - b * u * s * (s * s - 6.0 * u * s + u * u) * iz * iz)
    return Jet(tuple(coeffs))


def h_tilde_jet(side: Side, z, fp: FactorizationParams, order: int) -> Jet:
    """Zeroth coefficient w^2 -+ w' of h~- = A~dag A~ or of h~+ = A~ A~dag,
    at z or on a grid of z, from the coefficients of w on plain arrays.

    Raises OverflowError naming the potential and the first point where w^2
    leaves the float range (w finite, w * w not).
    """
    w = w_of_z_jet(z, fp, order + 1).coeffs
    squares = []
    for k in range(order + 1):
        square = w[0] * w[k]
        for j in range(1, k + 1):
            square = square + w[j] * w[k - j]
        squares.append(square)
    over = np.isinf(squares[0]) & np.isfinite(w[0])
    if over.any():
        zi = float(np.ravel(z)[np.argmax(over)])
        raise OverflowError(f"w^2 in the canonical {side.value} potential "
                            f"overflows at z = {zi:.17g}")
    sign = 1.0 if side is Side.PLUS else -1.0
    return Jet(tuple(square + sign * (k + 1) * w[k + 1]
                     for k, square in enumerate(squares)))


def eval_potential_z(side: Side, form: Form, z,
                     fp: FactorizationParams):
    """Evaluate a half-line potential form at z > 0, or on a grid of z."""
    if any_zero(z):
        raise DomainError("half-line potential singular at z = 0")
    ob, d, mu, rq = fp.omega_bar, fp.d, fp.mu, fp.rho_q
    sw = math.sqrt(ob)

    if form is Form.CANONICAL:
        return h_tilde_jet(side, z, fp, 0).value

    if form is Form.TRANSFORMED:
        z2 = z * z
        if side is Side.PLUS:
            return (mu**2 * ob * z2 + (rq**2 + sw * rq) / (ob * z2)
                    + 2 * d * (rq + 3.5 * sw) * (rq + 1.5 * sw))
        # minus side as printed (suspect non-polynomial numerator)
        q = d * ob * z2 + 1
        return (mu**2 * ob * z2 + (rq**2 + 3 * sw * rq + 2 * ob) / (ob * z2)
                + 2 * d * (rq + 3.5 * sw) * (rq + 0.5 * sw) + 4 * ob * d
                + 4 * ob * d * (2 * d * ob * z2 - 1) / (q * q))

    raise ModeError("only the transformed and canonical forms live in the z chart")


def transform_shift(x: float, omega_bar: float) -> float:
    """Additive potential shift of the half-line transform: ob(a'^2/4 + a a''/2)."""
    return 2 * omega_bar * x * x
