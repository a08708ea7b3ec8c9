"""Closed-form spectral data of the half-line oscillator pair.

The transformed plus-side potential is an inverse-square-plus-quadratic
oscillator on (0, inf) (Goldman-Krivchenkov form) shifted by a constant, so
its spectrum is an exact equidistant ladder (``energies_plus``) and its
eigenfunctions are z^(gamma-1/2) exp(-t/2) L_n^(gamma-1)(t), t = oh z^2
(``phi_plus_jet``).  The first-order ladder operator takes them to the minus
side (``phi_minus_jet``), in closed form z^(gamma+1/2) exp(-t/2) / (t + gamma)
times -L^_(n+1)^(gamma)(t), the X1 exceptional Laguerre polynomial
(C. Quesne, J. Phys. A 41, 392001 (2008)).  Every state is a ``Jet`` in z;
callers read ``.value`` and ``.derivative(k)``.  n is a range of degrees
(``specialfn.check_degrees``; one degree k is range(k, k + 1)): the whole
ladder is one jet whose coefficients carry a leading degree axis (shape
(len(n), points)), from one Laguerre recurrence (the closed minus state's
L_(n-1) is the row before L_n), with log c and the sign (-1)^n as columns;
each row is bit for bit its one-row ladder.  ``j_integral`` gives the
diagonal normalization integrals of the pre-transform states, z times the
plus-side shape in Kummer form, against the printed closed form: each is
t^gamma e^-t dt times a polynomial, which ``numeric.quad_halfline``'s
generalized Gauss-Laguerre rule takes exactly (every degree from one ladder
and one rule).  Each state and integrand is its Laguerre part times one
envelope c z^p exp(-t/2), one exp of log c + p log z - t/2 with the
``math.lgamma`` norm in log c, so that no factor overflows alone.
At any order ``z`` may be an ndarray of points: the states are then
evaluated on all of them at once, each element bit for bit its one-point
value (see ``jets``), with numpy's floating-point warnings off.  Where t or
1/z leaves the float range, a coefficient is inf or NaN, not the state's
value (``wavefunctions`` fails there).  Any z <= 0 raises DomainError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .jets import Jet, any_nonpositive
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


def _envelope(zj: Jet, t: Jet, log_c, p: float) -> Jet:
    """c z^p exp(-t/2) as one exp of its log: no factor overflows alone."""
    return (log_c + p * zj.log() - 0.5 * t).exp()


def _chi_jet(n: range, gamma: float, scale: float, z, log_c,
             p: float, order: int) -> Jet:
    """c_k z^p exp(-t/2) L_k^(gamma-1)(t) with t = scale z^2 and
    log c_k = log_c(k), for each degree k of n."""
    zj = Jet.variable(z, order)
    t = scale * zj**2
    return (_envelope(zj, t, _per_degree(log_c, n, z), p)
            * laguerre(n, gamma - 1, t))


def energies_plus(fp: FactorizationParams, n_max: int) -> list[float]:
    """Exact plus-side ladder 2 omega_hat (2n + 2 rho_q/sqrt(ob) + 5)."""
    oh = fp.omega_hat
    base = 2 * fp.rho_q / math.sqrt(fp.omega_bar) + 5
    return [2 * oh * (2 * n + base) for n in range(n_max + 1)]


@_quiet
def phi_plus_jet(fp: FactorizationParams, n: range, z,
                 order: int = 2) -> Jet:
    """Plus-side eigenfunctions of the degrees n: one jet whose
    coefficients carry a leading degree axis."""
    check_degrees(n)
    if any_nonpositive(z):
        raise DomainError("plus-side eigenfunction needs z > 0")
    g, oh = fp.gamma, fp.omega_hat
    return _per_degree(lambda k: (-1) ** k, n, z) * _chi_jet(
        n, g, oh, z, lambda k: _log_norm(k, g, oh), g - 0.5, order)


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
        return phi_minus_jet(fp, n, z, "operator", order) * _per_degree(
            lambda k: 1 / math.sqrt(energies[k]), n, z)
    if method == "operator":
        from .potentials import w_of_z_jet
        phi = phi_plus_jet(fp, n, z, order + 1)
        w = w_of_z_jet(fp=fp, z=z, order=order)
        return w * phi - phi.shift(1)
    if method == "closed":
        g, oh = fp.gamma, fp.omega_hat
        zj = Jet.variable(z, order)
        t = oh * zj**2
        # the X1 exceptional Laguerre polynomial -L^_(k+1)^(gamma)(t) =
        # (t + gamma + 1) L_k^gamma(t) - L_(k-1)^gamma(t): L_(k-1) is the
        # row before L_k in one recurrence, and a zero row below k = 0
        rows = laguerre(range(max(n.start - 1, 0), n.stop), g, t).coeffs
        if not n.start:
            rows = tuple(np.concatenate((np.zeros_like(c[:1]), c))
                         for c in rows)
        bracket = ((t + (g + 1)) * Jet(tuple(c[1:] for c in rows))
                   - Jet(tuple(c[:-1] for c in rows)))
        log_c = lambda k: _log_norm(k, g, oh) + math.log(2 * oh)
        return (_per_degree(lambda k: (-1) ** k, n, z)
                * _envelope(zj, t, _per_degree(log_c, n, z), g + 0.5)
                / (t + g) * bracket)
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
    sum and is exact at k = 0 only.
    """
    check_degrees(n)
    g, oh = fp.gamma, fp.omega_hat
    if method == "closed":
        return _per_degree(lambda k: (
            (k + g) * math.exp(math.log(k + 1) + _log_ratio(k, g)
                               + 2 * math.lgamma(g))
            / (2 * oh ** (g + 1))), n)
    if method == "quadrature":
        from .numeric import quad_halfline

        def f(z: np.ndarray) -> np.ndarray:
            # k!/(gamma)_k z^(gamma+1/2) exp(-t/2) L_k^(gamma-1)(t), squared
            chi = _chi_jet(n, g, oh, z,
                           lambda k: _log_ratio(k, g) + math.lgamma(g),
                           g + 0.5, 0).value
            return chi * chi

        return quad_halfline(f, oh, g, 2 * n[-1])
    raise ValueError(f"unknown method {method!r}")
