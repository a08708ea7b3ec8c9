"""Closed-form spectral data of the half-line oscillator pair.

The transformed plus-side potential is an inverse-square-plus-quadratic
oscillator on (0, inf) (Goldman-Krivchenkov form) shifted by a constant, so
its spectrum is an exact equidistant ladder (``energies_plus``) and its
eigenfunctions are z^(gamma-1/2) exp(-t/2) L_n^(gamma-1)(t), t = oh z^2
(``phi_plus_jet``).  The first-order ladder operator takes them to the minus
side (``phi_minus_jet``, ``lowered``), in closed form z^(gamma+1/2)
exp(-t/2) / (t + gamma) times -L^_(n+1)^(gamma)(t), the X1 exceptional
Laguerre polynomial (C. Quesne, J. Phys. A 41, 392001 (2008)).

Every state is a ``Jet`` in z, a container of Taylor coefficients that
callers read with ``.value`` and ``.derivative(k)``; the coefficients are
closed forms on plain arrays, not jet arithmetic (``_state``).  On a
function of t, z d/dz is 2t d/dt, so the m-th coefficient of
c z^p exp(-t/2) F(t) is c z^(p-m) exp(-t/2) times a polynomial in t times
the derivatives of F, and d/dt L_n^alpha = -L_(n-1)^(alpha+1) gives those
of the Laguerre part from one recurrence over the parameters alpha, alpha
+ 1, ... (``_ladders``); the X1 bracket over t + gamma is differentiated
by Leibniz's rule.  Each envelope is one exp of its log, with the
``math.lgamma`` norm in log c and the polynomial taken over (1 + t)^m, so
that no factor overflows alone: the coefficients are finite at z = 1e-200
wherever the state's are.  The value is one math.exp times the Laguerre
row, bit for bit at every order.

n is a range of degrees (``specialfn.check_degrees``; one degree k is
range(k, k + 1)): the whole ladder is one jet whose coefficients carry a
leading degree axis (shape (len(n), points)), from one Laguerre recurrence
(the closed minus state's L_(n-1) is the row before L_n), with log c and
the sign (-1)^n as columns; each row is bit for bit its one-row ladder.
``j_integral`` gives the diagonal normalization integrals of the
pre-transform states, z times the plus-side shape in Kummer form, against
the printed closed form: each is t^gamma e^-t dt times a polynomial, which
``numeric.quad_halfline``'s generalized Gauss-Laguerre rule takes exactly
(every degree from one ladder and one rule).  At any order ``z`` may be an
ndarray of points: the states are then evaluated on all of them at once,
each element bit for bit its one-point value, with numpy's floating-point
warnings off.  Where t leaves the float range, a derivative coefficient is
NaN (``wavefunctions`` fails there).  Any z <= 0 raises DomainError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .jets import Jet, any_nonpositive, elementwise
from .params import FactorizationParams
from .specialfn import check_degrees, laguerre


def _log_ratio(n: int, gamma: float) -> float:
    """log(n!/Gamma(n + gamma)), the one Gamma ratio of every norm."""
    return math.lgamma(n + 1) - math.lgamma(n + gamma)


def _log_norm(n: int, gamma: float, scale: float) -> float:
    """log of the plus state's norm sqrt(2 scale^gamma n!/Gamma(n + gamma))."""
    return 0.5 * (math.log(2.0) + gamma * math.log(scale)
                  + _log_ratio(n, gamma))


def _quiet(state):
    """Run a state with numpy's floating-point warnings off."""
    @functools.wraps(state)
    def quiet(*args, **kwargs):
        with np.errstate(all="ignore"):
            return state(*args, **kwargs)
    return quiet


def _per_degree(f, n: range, z=0.0) -> np.ndarray:
    """f(k) for each degree k of n, as a column against the points of z
    (one value per degree for one point)."""
    return np.array([f(k) for k in n], dtype=float).reshape(
        (len(n),) + (1,) * np.ndim(z))


def _ladders(n: range, alpha: float, t, order: int) -> list[np.ndarray]:
    """d^j/dt^j L_k^alpha(t) = (-1)^j L_(k-j)^(alpha+j)(t) for each degree k
    of n, j = 0 .. order, from one ``laguerre`` recurrence over the
    parameters alpha + j; a row of degree k < j is zero."""
    if not order:
        return [laguerre(n, alpha, t)]
    low = max(n.start - order, 0)
    beta = (alpha + np.arange(order + 1.0)).reshape(
        (order + 1,) + (1,) * np.ndim(t))
    rows = laguerre(range(low, n.stop), beta, t)
    out = []
    for j in range(order + 1):
        d = np.zeros((len(n),) + np.shape(t))
        first = max(n.start, j)
        d[first - n.start:] = rows[first - j - low:n.stop - j - low, j]
        out.append(-d if j % 2 else d)
    return out


def _state(n: range, log_c, p: float, z, t, f: list) -> Jet:
    """c_k z^p exp(-t/2) F_k(t) for each degree k of n, and its Taylor
    coefficients to order len(f) - 1, with log c_k = log_c(k) and f[j] the
    (degrees, points) array of d^j F_k/dt^j.

    On a function of t = scale z^2, z d/dz is 2t d/dt, so the m-th
    coefficient is c z^(p-m) exp(-t/2) H_m(t), with H_0 = F and
    (m + 1) H_(m+1) = (p - m - t) H_m + 2t H_m'.  H_m is a sum of
    polynomials of degree m in t times the F^(j), whose coefficients
    ``poly[j][i]`` (of t^i F^(j)) the recursion carries.  Each polynomial is
    taken over (1 + t)^m, as a sum of poly[j][i] tau^i sigma^(m-i) with
    tau = t/(1 + t) and sigma = 1/(1 + t), and the envelope
    c z^(p-m) (1 + t)^m exp(-t/2) is one exp of its log: no factor
    overflows alone, and no power of z, t or the scale is formed.
    """
    order = len(f) - 1
    log_z = elementwise(math.log, z)
    log_ck = _per_degree(log_c, n, z)
    # the value by math.exp, which raises where it overflows; + 0.0 makes
    # a zero value +0.0 before the sign applies
    coeffs = [elementwise(math.exp, log_z * p + log_ck - t * 0.5) * f[0]
              + 0.0]
    if not order:
        return Jet(tuple(coeffs))
    # the derivative coefficients' envelopes by one np.exp, inf where they
    # overflow: log c + (p - m) log z - t/2 + m log(1 + t), m = 1 .. order
    ms = np.arange(1.0, order + 1).reshape((order,) + (1,) * np.ndim(log_ck))
    envelopes = np.exp(log_ck - t * 0.5 + (
        log_z * (p - ms) + ms * elementwise(math.log1p, t)))
    sigma = 1.0 / (1.0 + t)
    tau, sig = [1.0, t * sigma], [1.0, sigma]
    for _ in range(2, order + 1):
        tau.append(tau[-1] * tau[1])
        sig.append(sig[-1] * sigma)
    poly = [[1.0]]
    for m in range(1, order + 1):
        # t^i F^(j) -> ((p - m + 1 + 2i) t^i F^(j) - t^(i+1) F^(j)
        #               + 2 t^(i+1) F^(j+1)) / m
        nxt = [[0.0] * (m + 1) for _ in range(m + 1)]
        for j, row in enumerate(poly):
            for i, c in enumerate(row):
                nxt[j][i] += (p - m + 1 + 2 * i) * c / m
                nxt[j][i + 1] -= c / m
                nxt[j + 1][i + 1] += 2 * c / m
        poly = nxt
        mono = [tau[i] * sig[m - i] for i in range(m + 1)]
        h = 0.0
        for j, row in enumerate(poly):
            part = 0.0
            for c, power in zip(row, mono):
                if c:  # poly[j][i] is 0 for i < j
                    part = part + c * power
            h = h + part * f[j]
        coeffs.append(envelopes[m - 1] * h)
    return Jet(tuple(coeffs))


def energies_plus(fp: FactorizationParams, n_max: int) -> list[float]:
    """Exact plus-side ladder 2 omega_hat (2n + 2 rho_q/sqrt(ob) + 5)."""
    oh = fp.omega_hat
    base = 2 * fp.rho_q / math.sqrt(fp.omega_bar) + 5
    return [2 * oh * (2 * n + base) for n in range(n_max + 1)]


def _times(f, n: range, z, state: Jet) -> Jet:
    """The state times f(k) for each degree k of n."""
    column = _per_degree(f, n, z)
    return Jet(tuple(c * column for c in state.coeffs))


@_quiet
def phi_plus_jet(fp: FactorizationParams, n: range, z,
                 order: int = 2) -> Jet:
    """Plus-side eigenfunctions of the degrees n: one jet whose
    coefficients carry a leading degree axis."""
    check_degrees(n)
    if any_nonpositive(z):
        raise DomainError("plus-side eigenfunction needs z > 0")
    g, oh = fp.gamma, fp.omega_hat
    t = oh * (z * z)
    return _times(lambda k: (-1) ** k, n, z, _state(
        n, lambda k: _log_norm(k, g, oh), g - 0.5, z, t,
        _ladders(n, g - 1, t, order)))


def _x1_ladders(n: range, gamma: float, t, order: int) -> list[np.ndarray]:
    """d^j/dt^j of the X1 bracket over t + gamma, R_k(t) =
    ((t + gamma + 1) L_k^gamma(t) - L_(k-1)^gamma(t)) / (t + gamma), for
    each degree k of n, j = 0 .. order: L_(k-1) is the row before L_k in
    one ladder (a zero row below k = 0), and R's derivatives are the
    Leibniz sums of the bracket's and of 1/(t + gamma)'s."""
    rows = _ladders(range(max(n.start - 1, 0), n.stop), gamma, t, order)
    if not n.start:
        rows = [np.concatenate((np.zeros_like(r[:1]), r)) for r in rows]
    bracket = [(t + (gamma + 1)) * r[1:] - r[:-1] for r in rows]
    for j in range(1, order + 1):
        bracket[j] = bracket[j] + j * rows[j - 1][1:]
    h = 1.0 / (t + gamma)
    # d^m/dt^m 1/(t + gamma) = (-1)^m m! h^(m + 1)
    dh = [h]
    for m in range(1, order + 1):
        dh.append(dh[-1] * h * -m)
    return [sum(math.comb(j, i) * bracket[i] * dh[j - i]
                for i in range(j + 1)) for j in range(order + 1)]


def lowered(w: Jet, phi: Jet) -> Jet:
    """(w - d/dz) phi to the order of w, from w and a plus ladder phi one
    order higher: the minus states of the "operator" method."""
    w_phi = w * phi
    return Jet(tuple(c - (k + 1) * phi.coeffs[k + 1]
                     for k, c in enumerate(w_phi.coeffs)))


@_quiet
def phi_minus_jet(fp: FactorizationParams, n: range, z,
                  method: str = "operator", order: int = 2) -> Jet:
    """Minus-side eigenfunctions of the degrees n (one jet, as
    ``phi_plus_jet``).

    methods: "operator" applies (-d/dz + w) to the plus-side eigenfunction;
    "closed" evaluates the X1 Laguerre closed form; "normalized" divides
    the operator construction by sqrt(E_n^+).
    """
    check_degrees(n)
    if any_nonpositive(z):
        raise DomainError("minus-side eigenfunction needs z > 0")
    if method == "normalized":
        energies = energies_plus(fp, n[-1])
        return _times(lambda k: 1 / math.sqrt(energies[k]), n, z,
                      phi_minus_jet(fp, n, z, "operator", order))
    if method == "operator":
        from .potentials import w_of_z_jet
        return lowered(w_of_z_jet(fp=fp, z=z, order=order),
                       phi_plus_jet(fp, n, z, order + 1))
    if method == "closed":
        g, oh = fp.gamma, fp.omega_hat
        t = oh * (z * z)
        # the X1 exceptional Laguerre polynomial -L^_(k+1)^(gamma)(t) =
        # (t + gamma + 1) L_k^gamma(t) - L_(k-1)^gamma(t) over t + gamma
        return _times(lambda k: (-1) ** k, n, z, _state(
            n, lambda k: _log_norm(k, g, oh) + math.log(2 * oh), g + 0.5,
            z, t, _x1_ladders(n, g, t, order)))
    raise ValueError(f"unknown method {method!r}")


def j_integral(fp: FactorizationParams, n: range,
               method: str = "quadrature") -> np.ndarray:
    """Diagonal normalization integrals of the pre-transform states of the
    degrees n, one per degree.

    "quadrature" integrates z^(2 gamma + 1) e^(-oh z^2) F_k^2 over (0, inf)
    by the Gauss-Laguerre rule with alpha = gamma, exact at degree 2k: the
    range takes one recurrence and one rule, exact at its top degree.
    "closed" is the printed closed form (k + gamma)(k+1)! Gamma(gamma)
    / (2 oh^(gamma+1) (gamma)_k); it keeps only the leading term of the exact
    sum and is exact at k = 0 only.  Its scale oh^-(gamma+1) is one exp with
    the Gamma ratios, so that it underflows nowhere alone; a value past the
    float range is an OverflowError.
    """
    check_degrees(n)
    g, oh = fp.gamma, fp.omega_hat
    if method == "closed":
        return _per_degree(lambda k: (k + g) * math.exp(
            math.log(k + 1) + _log_ratio(k, g) + 2 * math.lgamma(g)
            - (g + 1) * math.log(oh)) / 2, n)
    if method == "quadrature":
        from .numeric import quad_halfline

        def f(z: np.ndarray) -> np.ndarray:
            # k!/(gamma)_k z^(gamma+1/2) exp(-t/2) L_k^(gamma-1)(t), squared
            t = oh * (z * z)
            chi = _state(n, lambda k: _log_ratio(k, g) + math.lgamma(g),
                         g + 0.5, z, t, [laguerre(n, g - 1, t)]).value
            return chi * chi

        return quad_halfline(f, oh, g, 2 * n[-1])
    raise ValueError(f"unknown method {method!r}")
