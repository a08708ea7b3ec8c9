"""Model parameters and the forward / inverse matching problems.

The model is the quadratic non-Hermitian oscillator built from first-order
ladder operators, with real couplings (omega, alpha, beta).  Its Hermitian
equivalents are factorized through a rational superpotential whose free
constants are (omega_bar, rho_q, d).  Forward mode picks those three directly
and is always consistent; inverse mode starts from (omega, alpha, beta) and
solves an over-determined matching system, reporting residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BranchViolation, Infeasible4X, NoPositiveRoot


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the quadratic non-Hermitian oscillator."""

    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        ob = self.omega - self.alpha - self.beta
        if not ob > 0:
            raise ValueError(f"need omega - alpha - beta > 0, got {ob}")
        if self.alpha == self.beta:
            raise ValueError("need alpha != beta")

    @property
    def omega_bar(self) -> float:
        return self.omega - self.alpha - self.beta


@dataclass(frozen=True)
class DerivedConstants:
    """The five closed-form constants of the general Hermitian potential."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    omega_bar: float


@dataclass(frozen=True)
class FactorizationParams:
    """Constants of the rational superpotential and the solved oscillator.

    ``c`` is present only for inverse-mode solutions (it enters the plain
    superpotential b(x), not the tilde one).
    """

    omega_bar: float
    rho_q: float
    d: float
    mu: float
    lam: float
    omega_hat: float
    gamma: float
    c: float | None = None

    def __post_init__(self):
        if not self.omega_bar > 0:
            raise ValueError("need omega_bar > 0")
        if not self.d > 0:
            raise ValueError("need d > 0")
        if not self.rho_q > 0:
            raise ValueError("need rho_q > 0")


@dataclass(frozen=True)
class ConstraintReport:
    """Absolute residuals of the five matching relations, plus feasibility."""

    res_mu_strength: float      # inverse-square strength vs mu^2
    res_quadratic: float        # quadratic-coefficient match
    res_constant: float         # constant-term match
    res_rational_quad: float    # rational-part quadratic relation (fixes c)
    res_rational_cubic: float   # rational-part cubic relation (fixes d)
    X: float
    feasible_4X: bool
    d_root_count: int


def derive_constants(p: ModelParams) -> DerivedConstants:
    """Closed-form constants from (omega, alpha, beta)."""
    ob = p.omega_bar
    al, be = p.alpha, p.beta
    a1 = (al - be) ** 2 / ob + ob + 2 * (al + be)
    a2 = ob + al + be
    a3 = (al + be) / 2
    a4 = 0.25 * ((al - be) ** 2 / ob + 2 * (al + be))
    a5 = (ob + al + be) / 2
    return DerivedConstants(a1=a1, a2=a2, a3=a3, a4=a4, a5=a5, omega_bar=ob)


def solve_forward(omega_bar: float, rho_q: float, d: float) -> FactorizationParams:
    """Canonical solvable parameter set from the three free constants."""
    if not (omega_bar > 0 and rho_q > 0 and d > 0):
        raise ValueError("solve_forward needs omega_bar, rho_q, d all > 0")
    sw = math.sqrt(omega_bar)
    lam = -2 * d * sw
    mu = -(d / 2) * (2 * rho_q + 3 * sw)
    omega_hat = (d * sw / 2) * (2 * rho_q + 3 * sw)
    gamma = rho_q / sw + 1.5
    return FactorizationParams(
        omega_bar=omega_bar, rho_q=rho_q, d=d,
        mu=mu, lam=lam, omega_hat=omega_hat, gamma=gamma,
    )


def _positive_cubic_roots(omega_bar: float, a1: float, a2: float) -> list[float]:
    """Positive real roots of 4*ob*d^3 + (a2 - 2*a1)*d - 2*a1 = 0; a cubic
    whose companion coefficients are not finite is a FloatingPointError, and
    a root whose cube leaves the float range an OverflowError."""
    poly = [4 * omega_bar, 0.0, a2 - 2 * a1, -2 * a1]
    with np.errstate(all="ignore"):
        companion = np.divide(poly[1:], poly[0])
    if not np.all(np.isfinite(companion)):
        raise FloatingPointError(
            f"the cubic 4 omega_bar d^3 + (a2 - 2 a1) d - 2 a1 for d has "
            f"non-finite companion coefficients at omega_bar = {omega_bar:g}")
    roots = np.roots(poly)
    scale = max(1.0, max(abs(r) for r in roots))
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 * scale and r.real > 0:
            d = float(r.real)
            # Newton polish
            for _ in range(60):
                try:
                    f = 4 * omega_bar * d**3 + (a2 - 2 * a1) * d - 2 * a1
                    fp = 12 * omega_bar * d**2 + (a2 - 2 * a1)
                except OverflowError:
                    raise OverflowError(
                        f"the cubic 4 omega_bar d^3 + (a2 - 2 a1) d - 2 a1 "
                        f"for d overflows at its root d = {d:g}, omega_bar "
                        f"= {omega_bar:g}") from None
                step = f / fp
                d -= step
                if abs(step) < 1e-15 * max(1.0, abs(d)):
                    break
            out.append(d)
    return sorted(out)


def c_negative_branch(dc: DerivedConstants, d: float) -> float:
    """Negative-sign branch of the quadratic for c."""
    a1, a2, ob = dc.a1, dc.a2, dc.omega_bar
    disc = (4 * ob * d**3 - 2 * a2 * d) ** 2 + 48 * a1 * ob * d**2
    return (2 * a2 * d - 4 * ob * d**3 - math.sqrt(disc)) / (2 * a1)


def feasibility_x(dc: DerivedConstants, c: float,
                  d: float) -> tuple[float, bool]:
    """The oscillator-strength combination X and whether 4X > 43 omega_bar.

    rho_q = (sqrt(4X - 27 omega_bar) - 4 sqrt(omega_bar)) / 2 is real and
    positive exactly when 4X > 43 omega_bar.
    """
    X = (4 * dc.a1 / d**2 - 8 * (dc.a3 + 2 * dc.a4)
         + ((dc.a2 - 2 * dc.a1) * (c + 1) + dc.a5) / (2 * d))
    return X, 4 * X > 43 * dc.omega_bar


def check_constraints(fp: FactorizationParams, dc: DerivedConstants,
                      c: float, d: float) -> ConstraintReport:
    """Evaluate all five matching relations as left-minus-right residuals."""
    a1, a2, a3, a4, a5, ob = dc.a1, dc.a2, dc.a3, dc.a4, dc.a5, dc.omega_bar
    sw = math.sqrt(ob)
    rq, mu = fp.rho_q, fp.mu
    r44 = abs(a1 - mu**2)
    r45 = abs(2 * (a3 + 2 * a4) - rq * (rq + 3 * sw))
    r46 = abs((a2 - 2 * a1) * (c + 1) + a5
              - 2 * d * (rq + 3.5 * sw) * (rq + 0.5 * sw))
    r47 = abs(c * (-3 * a2 * d + 2 * a1 + a1 * c + 2 * a1 * d) - 12 * ob * d**2)
    r48 = abs(2 * a1 * (1 + d) - a2 * d - 4 * ob * d**3)
    X, feasible = feasibility_x(dc, c, d)
    return ConstraintReport(
        res_mu_strength=r44, res_quadratic=r45, res_constant=r46,
        res_rational_quad=r47, res_rational_cubic=r48,
        X=X, feasible_4X=feasible,
        d_root_count=len(_positive_cubic_roots(ob, a1, a2)),
    )


def solve_inverse(p: ModelParams) -> tuple[FactorizationParams, ConstraintReport]:
    """Best-effort inverse solution from (omega, alpha, beta).

    The matching system is over-determined (five relations, three effective
    unknowns), so only the rational-part relations are guaranteed to close;
    the others are reported as residuals.
    """
    dc = derive_constants(p)
    ob = dc.omega_bar
    sw = math.sqrt(ob)
    roots = _positive_cubic_roots(ob, dc.a1, dc.a2)
    if not roots:
        raise NoPositiveRoot("cubic for d has no positive real root")
    d = roots[0]  # smallest positive root keeps the rational pole mild
    c = c_negative_branch(dc, d)
    if not (c < 0 and abs(c) > 1):
        raise BranchViolation(f"computed c = {c} fails c < 0, |c| > 1")
    X, feasible = feasibility_x(dc, c, d)
    if not feasible:
        raise Infeasible4X(f"need 4X > 43*omega_bar, got 4X = {4 * X}, "
                           f"43*omega_bar = {43 * ob}")
    rho_q = 0.5 * (math.sqrt(4 * X - 27 * ob) - 4 * sw)
    fp = replace(solve_forward(ob, rho_q, d), c=c)
    report = check_constraints(fp, dc, c, d)
    return fp, report
