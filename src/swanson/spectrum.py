"""Closed-form spectral data of the half-line oscillator pair.

The transformed plus-side potential is an inverse-square-plus-quadratic
oscillator on (0, inf) (Goldman-Krivchenkov form) shifted by a constant, so
its spectrum is an exact equidistant ladder (``energies_plus``) and its
eigenfunctions are Gaussian-weighted associated Laguerre polynomials,
z^(gamma-1/2) exp(-oh z^2/2) L_n^(gamma-1)(oh z^2) (``phi_plus_jet``).  The
minus side is generated from it by the first-order ladder operator
(``phi_minus_jet``).  Every state is a ``Jet`` in z; callers read ``.value``
and ``.derivative(k)``.  The pre-transform states (``psi_plus_jet``) carry
the printed normalization constant, and ``j_integral`` gives their
normalization integrals.  Every Gamma ratio comes from ``math.lgamma``.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .jets import Jet
from .params import FactorizationParams
from .specialfn import laguerre


def _norm_const(n: int, gamma: float, scale: float) -> float:
    """(-1)^n sqrt(2 scale^gamma n! / Gamma(n + gamma)), the unit norm of
    the Laguerre-form state, from log-Gamma so that large n cannot overflow."""
    mag = math.sqrt(2.0) * math.exp(0.5 * (
        gamma * math.log(scale) + math.lgamma(n + 1) - math.lgamma(n + gamma)))
    return (-1) ** n * mag


def _kummer_factor(n: int, gamma: float) -> float:
    """n!/(gamma)_n, which turns L_n^(gamma-1) into 1F1(-n; gamma; .)."""
    return math.exp(math.lgamma(n + 1) + math.lgamma(gamma)
                    - math.lgamma(n + gamma))


def _chi_jet(n: int, gamma: float, scale: float, z: float, p: float,
             order: int) -> Jet:
    """z^p exp(-(scale/2) z^2) L_n^(gamma-1)(scale z^2).

    At order 0 the float operations of the jet path run in the same order
    (``0.0 + a * b`` is a jet product's accumulator), so the value is the
    jet's bit for bit: quadratures of the states need values only.
    """
    if order == 0:
        z = float(z)
        zz = 0.0 + z * z
        pw_ex = 0.0 + math.exp(math.log(z) * p) * math.exp(zz * -(scale / 2))
        return Jet((0.0 + pw_ex * laguerre(n, gamma - 1, zz * scale),))
    zj = Jet.variable(z, order)
    return (zj.power(p) * (-(scale / 2) * zj**2).exp()
            * laguerre(n, gamma - 1, scale * zj**2))


def energies_plus(fp: FactorizationParams, n_max: int) -> list[float]:
    """Exact plus-side ladder 2 omega_hat (2n + 2 rho_q/sqrt(ob) + 5)."""
    oh = fp.omega_hat
    base = 2 * fp.rho_q / math.sqrt(fp.omega_bar) + 5
    return [2 * oh * (2 * n + base) for n in range(n_max + 1)]


def phi_plus_jet(fp: FactorizationParams, n: int, z: float, order: int = 2) -> Jet:
    if z <= 0:
        raise DomainError("plus-side eigenfunction needs z > 0")
    g, oh = fp.gamma, fp.omega_hat
    return _norm_const(n, g, oh) * _chi_jet(n, g, oh, z, g - 0.5, order)


def phi_minus_jet(fp: FactorizationParams, n: int, z: float,
                  method: str = "operator", order: int = 2) -> Jet:
    """Minus-side eigenfunction from the ladder operator.

    methods: "operator" applies (-d/dz + w) to the plus-side eigenfunction;
    "closed" evaluates the Laguerre-bracket closed form; "normalized" divides
    the operator construction by sqrt(E_n^+).
    """
    if z <= 0:
        raise DomainError("minus-side eigenfunction needs z > 0")
    if method == "normalized":
        en = energies_plus(fp, n)[n]
        return phi_minus_jet(fp, n, z, "operator", order) * (1 / math.sqrt(en))
    if method == "operator":
        from .potentials import w_of_z_jet
        phi = phi_plus_jet(fp, n, z, order + 1)
        w = w_of_z_jet(fp=fp, z=z, order=order)
        return w * phi - phi.shift(1)
    if method == "closed":
        g, oh, d, ob = fp.gamma, fp.omega_hat, fp.d, fp.omega_bar
        zj = Jet.variable(z, order)
        t = oh * zj**2
        bracket = ((g + n + 1) * laguerre(n, g - 1, t)
                   - (n + 1) * laguerre(n + 1, g - 1, t)
                   + g * laguerre(n, g, t))
        return (2 * _norm_const(n, g, oh) * zj.power(g + 0.5)
                * (-(oh / 2) * zj**2).exp() / (zj**2 + 1.0 / (d * ob))
                * bracket)
    raise ValueError(f"unknown method {method!r}")


def _printed_ratio(n: int, gamma: float) -> float:
    """(n+1)! Gamma(gamma) / (gamma)_n, the Gamma ratio of the printed
    normalization, from log-Gamma so that large n cannot overflow."""
    return math.exp(math.lgamma(n + 2) + 2 * math.lgamma(gamma)
                    - math.lgamma(n + gamma))


def psi_plus_norm(fp: FactorizationParams, n: int) -> float:
    """Printed normalization constant of the pre-transform eigenfunction,
    (-1)^n sqrt(2 oh^(gamma+1) (gamma)_n
                / (ob (n + gamma) (n+1)! Gamma(gamma)))."""
    g, oh, ob = fp.gamma, fp.omega_hat, fp.omega_bar
    mag = math.sqrt(2 * oh ** (g + 1) / (ob * (n + g) * _printed_ratio(n, g)))
    return (-1) ** n * mag


def psi_plus_jet(fp: FactorizationParams, n: int, z: float,
                 order: int = 2) -> Jet:
    if z <= 0:
        raise DomainError("pre-transform eigenfunction needs z > 0")
    g, oh = fp.gamma, fp.omega_hat
    return (psi_plus_norm(fp, n) * _kummer_factor(n, g)
            * _chi_jet(n, g, oh, z, g + 0.5, order))


def j_integral(fp: FactorizationParams, m: int, n: int,
               method: str = "quadrature") -> float:
    """Normalization integral of the pre-transform states.

    "quadrature" integrates z^(2 gamma + 1) e^(-oh z^2) F_m F_n over (0, inf).
    "closed" is the printed diagonal closed form (n + gamma)(n+1)! Gamma(gamma)
    / (2 oh^(gamma+1) (gamma)_n); it keeps only the leading term of the exact
    sum and is exact at n = 0 only.
    """
    g, oh = fp.gamma, fp.omega_hat
    if method == "closed":
        if m != n:
            raise ValueError("the closed form is defined on the diagonal only")
        return (n + g) * _printed_ratio(n, g) / (2 * oh ** (g + 1))
    if method == "quadrature":
        from .numeric import quad_halfline

        scale = _kummer_factor(m, g) * _kummer_factor(n, g)

        def f(z: float) -> float:
            return (scale * _chi_jet(m, g, oh, z, g + 0.5, 0).value
                    * _chi_jet(n, g, oh, z, g + 0.5, 0).value)

        return quad_halfline(f, decay_rate=oh)
    raise ValueError(f"unknown method {method!r}")
