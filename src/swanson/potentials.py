"""Scalar functions of the model: superpotentials, metric, potential forms.

The square ansatz a(x) = x^2 together with the rational superpotentials

    b(x)  = 1/x + c x / (x^2 + d)
    bt(x) = mu/x - rho_q x + lam x / (x^2 + d)

generates every potential of the hierarchy.  The canonical potentials are the
zeroth-order coefficients of the factorizing operator products; each printed
expansion is evaluated exactly as written and classified as validated or
suspect against the canonical form elsewhere (verification report).

Both charts are written in closed form, each coefficient function
returning its Taylor coefficients as plain array expressions in a ``Jet``,
the container callers read; no ``Jet`` arithmetic runs.  In the x chart,
a, b~, b and b1 are written to order 4, and c1, (log rho)', the printed
intertwiner's zeroth coefficient and the zeroth coefficients of h+- and H+-
to order 3.  Their rational pieces x/(x^2 + d), x^3/(x^2 + d) and
1/(x (x^2 + d)) are polynomials in u = x^2 s times powers of x and
s = 1/(x^2 + d), with u in [0, 1), so that no power of (x^2 + d) is formed;
h+-'s zeroth coefficient is its own formula in b~ and a (``h_zeroth_jet``),
never the operator product it is checked against.  The half-line chart z
has the superpotential w = a z + p/z + b z/q, q = 1 + d ob z^2, with its
derivatives to order 3 (``w_of_z_jet``), and the canonical potentials
w^2 +- w' from that one w (``h_tilde_jet``), read from the fields the x
chart reads (mu, rho_q, lam, d, ob).  So ``transform_shift`` compares two
independent computations.

Every function of x (or z) takes a point or an ndarray of points, each
element bit for bit its one-point value: the coefficients use numpy's
``+ - * /`` alone, and a sample-dependent square is the product q * q (see
``jets``).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, ModeError
from .jets import Jet, any_zero, cauchy, shifted
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
# the x chart: Taylor coefficients in closed form


def _check_order(order: int, top: int) -> None:
    if not 0 <= order <= top:
        raise ValueError(f"written to order {top}, not {order}")


def _inverse_constant(fp: FactorizationParams) -> float:
    if fp.c is None:
        raise ModeError("plain superpotential needs the inverse-mode constant c")
    return fp.c


def power_jet(x, n: int, order: int, factor: float = 1.0) -> Jet:
    """factor x^n and its Taylor coefficients factor C(n, k) x^(n-k) to
    ``order``, each power of x a product."""
    powers = [1.0, x]
    while len(powers) <= n:
        powers.append(powers[-1] * x)
    coeffs = []
    for k in range(order + 1):
        c = factor * math.comb(n, k)
        if k >= n:  # a constant, zero above n
            coeffs.append(c)
        else:
            coeffs.append(powers[n - k] if c == 1 else c * powers[n - k])
    return Jet(tuple(coeffs))


def _inverse_power(x, m: int, order: int) -> list:
    """x^-m and its Taylor coefficients (-1)^k C(m + k - 1, k) x^-(m + k)
    to ``order``, each power of 1/x a product."""
    ix = 1.0 / x
    power = ix
    for _ in range(m - 1):
        power = power * ix
    out = []
    for k in range(order + 1):
        if k:
            power = power * ix
        c = (-1) ** k * math.comb(m + k - 1, k)
        out.append(power if c == 1 else -power if c == -1 else c * power)
    return out


def _s_u(x, d: float):
    """s = 1/(x^2 + d) and u = x^2 s, in (0, 1/d] and [0, 1)."""
    x2 = x * x
    s = 1.0 / (x2 + d)
    return s, x2 * s


def _x_over_q(x, d: float, order: int) -> list:
    """The Taylor coefficients of x/(x^2 + d) to ``order`` <= 4,
    (-1)^k s^((k+1)/2) T_(k+1)(x sqrt(s)) with T_n the Chebyshev
    polynomials: polynomials in u times x s, s, x s^2, s^2, x s^3."""
    s, u = _s_u(x, d)
    xs = x * s
    out = [xs]
    if order >= 1:
        out.append(s * (1.0 - 2.0 * u))
    if order >= 2:
        out.append(xs * s * (4.0 * u - 3.0))
    if order >= 3:
        out.append(-s * s * (8.0 * u * u - 8.0 * u + 1.0))
    if order >= 4:
        out.append(xs * s * s * (16.0 * u * u - 20.0 * u + 5.0))
    return out


def _x3_over_q(x, d: float, order: int) -> list:
    """The Taylor coefficients of x^3/(x^2 + d) = x - d x/(x^2 + d) to
    ``order`` <= 4: x u and u (3 - 2u), then -d times those of
    x/(x^2 + d), with d s = 1 - u as one product."""
    s, u = _s_u(x, d)
    out = [x * u]
    if order >= 1:
        out.append(u * (3.0 - 2.0 * u))
    if order >= 2:
        xs, ds = x * s, d * s
        out.append(ds * xs * (3.0 - 4.0 * u))
    if order >= 3:
        out.append(ds * s * (8.0 * u * u - 8.0 * u + 1.0))
    if order >= 4:
        out.append(-ds * xs * s * (16.0 * u * u - 20.0 * u + 5.0))
    return out


def _inverse_x_over_q(x, d: float, order: int) -> list:
    """The Taylor coefficients of 1/(x (x^2 + d)) to ``order`` <= 3,
    (-1)^k s x^-(k+1) times 1, 1 + 2u, 1 + u + 4u^2 and 1 + u + 8u^3:
    every term of one sign."""
    s, u = _s_u(x, d)
    inv = _inverse_power(x, 1, order)
    out = [s * inv[0]]
    if order >= 1:
        out.append(s * inv[1] * (1.0 + 2.0 * u))
    if order >= 2:
        out.append(s * inv[2] * (1.0 + u + 4.0 * u * u))
    if order >= 3:
        out.append(s * inv[3] * (1.0 + u + 8.0 * u * u * u))
    return out


def _superpotential(x, pole: float, slope: float, lam: float, d: float,
                    order: int) -> Jet:
    """pole/x + slope x + lam x/(x^2 + d) and its Taylor coefficients to
    ``order`` <= 4."""
    if any_zero(x):
        raise DomainError("superpotential singular at x = 0")
    _check_order(order, 4)
    ix = 1.0 / x
    f = _x_over_q(x, d, order)
    # pole/x's coefficients are (-1)^k p_k with p_k = pole x^-(k+1)
    p = pole * ix
    coeffs = [p + slope * x + lam * f[0]]
    for k in range(1, order + 1):
        p = p * ix
        term = lam * f[k] + slope if k == 1 else lam * f[k]
        coeffs.append(term - p if k % 2 else term + p)
    return Jet(tuple(coeffs))


def b_tilde_jet(x, fp: FactorizationParams, order: int) -> Jet:
    """The tilde superpotential mu/x - rho_q x + lam x/(x^2 + d) and its
    Taylor coefficients to ``order`` <= 4."""
    return _superpotential(x, fp.mu, -fp.rho_q, fp.lam, fp.d, order)


def b_plain_jet(x, fp: FactorizationParams, order: int) -> Jet:
    """The plain superpotential 1/x + c x/(x^2 + d) and its Taylor
    coefficients to ``order`` <= 4."""
    return _superpotential(x, 1.0, 0.0, _inverse_constant(fp), fp.d, order)


def b1_jet(x, fp: FactorizationParams, mp: ModelParams, order: int) -> Jet:
    """First-order (non-Hermitian) coefficient (alpha-beta) a (2b - a')
    = 2 (alpha - beta)(x + c x^3/(x^2 + d) - x^3) and its Taylor
    coefficients to ``order`` <= 4."""
    c = _inverse_constant(fp)
    _check_order(order, 4)
    k = 2.0 * (mp.alpha - mp.beta)
    return Jet(tuple(k * (p + c * q - r) for p, q, r in zip(
        power_jet(x, 1, order).coeffs, _x3_over_q(x, fp.d, order),
        power_jet(x, 3, order).coeffs)))


def c1_jet(x, fp: FactorizationParams, mp: ModelParams, order: int,
           delta: float) -> Jet:
    """Zeroth-order coefficient of the non-Hermitian operator, as printed,
    with the gauge constant ``delta``, and its Taylor coefficients to
    ``order`` <= 3: (om + al + be) b^2 - (om + 2 be) a' b - (om - al + be)
    a b' + be (a a'' + a'^2) - delta a' + om/2, with a a'' + a'^2 = 6 x^2,
    from b's coefficients to order + 1."""
    om, al, be = mp.omega, mp.alpha, mp.beta
    _check_order(order, 3)
    b = b_plain_jet(x, fp, order + 1).coeffs
    db = shifted(b, 1)
    a, da = [x * x, 2.0 * x, 1.0], [2.0 * x, 2.0]
    out = []
    for k in range(order + 1):
        term = ((om + al + be) * cauchy(b, b, k)
                - (om + 2 * be) * cauchy(da, b, k)
                - (om - al + be) * cauchy(a, db, k))
        if k <= 2:
            term = term + 6.0 * be * a[k]
        if k <= 1:
            term = term - delta * da[k]
        out.append(term)
    out[0] = out[0] + om / 2
    return Jet(tuple(out))


def h_zeroth_jet(side: Side, x, fp: FactorizationParams,
                 order: int) -> Jet:
    """Zeroth coefficient of h- = A^dag A or of h+ = A A^dag and its Taylor
    coefficients to ``order`` <= 3, from b~'s to order + 1 and a = x^2's:
    b~^2 - sqrt(ob) (a b~)' on the minus side, b~^2 + sqrt(ob) (a b~' -
    a' b~) - ob a a'' on the plus side, with a a'' = 2 x^2."""
    _check_order(order, 3)
    ob = fp.omega_bar
    sw = math.sqrt(ob)
    bt = b_tilde_jet(x, fp, order + 1).coeffs
    a = [x * x, 2.0 * x, 1.0]
    if side is Side.MINUS:
        # (a b~)' has the coefficients (k + 1) (a b~)_(k+1)
        return Jet(tuple(cauchy(bt, bt, k)
                         - sw * (k + 1) * cauchy(a, bt, k + 1)
                         for k in range(order + 1)))
    dbt, da = shifted(bt, 1), [2.0 * x, 2.0]
    out = []
    for k in range(order + 1):
        term = cauchy(bt, bt, k) + sw * (
            cauchy(a, dbt, k) - cauchy(da, bt, k))
        out.append(term - 2.0 * ob * a[k] if k <= 2 else term)
    return Jet(tuple(out))


def H_zeroth_jet(side: Side, x, fp: FactorizationParams, mp: ModelParams,
                 order: int) -> Jet:
    """Zeroth coefficient of H- or H+, h-+'s plus b1'/2 - b1^2/(4 ob a^2),
    and its Taylor coefficients to ``order`` <= 3: b1/a = 2 (alpha - beta)
    (b - x), so the last term is (alpha - beta)^2 (b - x)^2 / ob."""
    h = h_zeroth_jet(side, x, fp, order).coeffs
    db1 = shifted(b1_jet(x, fp, mp, order + 1).coeffs, 1)
    g = list(b_plain_jet(x, fp, order).coeffs)
    g[0] = g[0] - x
    if order:
        g[1] = g[1] - 1.0
    q = (mp.alpha - mp.beta) ** 2 / fp.omega_bar
    return Jet(tuple(h[k] + 0.5 * db1[k] - q * cauchy(g, g, k)
                     for k in range(order + 1)))


def dlog_rho_jet(x, fp: FactorizationParams, mp: ModelParams,
                 order: int) -> Jet:
    """(log rho)' = -b1 / (2 ob a^2) = -(alpha - beta)/ob (x^-3
    + c/(x (x^2 + d)) - 1/x), closed form (no quadrature), and its Taylor
    coefficients to ``order`` <= 3."""
    c = _inverse_constant(fp)
    if any_zero(x):
        raise DomainError("metric singular at x = 0")
    _check_order(order, 3)
    k = -(mp.alpha - mp.beta) / mp.omega_bar
    return Jet(tuple(k * (p + c * q - r) for p, q, r in zip(
        _inverse_power(x, 3, order), _inverse_x_over_q(x, fp.d, order),
        _inverse_power(x, 1, order))))


def eta1_explicit_jet(x, fp: FactorizationParams, mp: ModelParams,
                      order: int) -> Jet:
    """Zeroth coefficient of the printed explicit intertwiner and its
    Taylor coefficients to ``order`` <= 3: (A x^4 + B x^2 + C) over
    sqrt(ob) x (x^2 + d), with A = alpha - beta - rho_q sqrt(ob),
    B = (alpha - beta)(d - c - 1) - 3.5 d ob - 2 rho_q d sqrt(ob) and
    C = d (mu sqrt(ob) - alpha + beta), as A x^3/(x^2 + d) + B x/(x^2 + d)
    + C/(x (x^2 + d)) over sqrt(ob)."""
    c = _inverse_constant(fp)
    if any_zero(x):
        raise DomainError("intertwiner singular at x = 0")
    _check_order(order, 3)
    sw = math.sqrt(fp.omega_bar)
    ab, d = mp.alpha - mp.beta, fp.d
    p4 = ab - fp.rho_q * sw
    p2 = ab * (d - c - 1) - (3.5 * d * fp.omega_bar + 2 * fp.rho_q * d * sw)
    p0 = d * (fp.mu * sw - ab)
    return Jet(tuple((p4 * cube + p2 * lin + p0 * inv) / sw
                     for cube, lin, inv in zip(_x3_over_q(x, d, order),
                                               _x_over_q(x, d, order),
                                               _inverse_x_over_q(x, d, order))))


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
    squares = [cauchy(w, w, k) for k in range(order + 1)]
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
