"""Reference formulas the tests check the package against.

Each is written independently of the package's evaluation path: plain
products and ``math.gamma`` where the package uses log-Gamma, and the
Goldman-Krivchenkov half-line oscillator stated from its own strengths
where the package derives the ladder from the factorization constants.
"""

import math
from dataclasses import dataclass


def pochhammer(s, n: int):
    """Rising factorial (s)_n as a plain product; s may be a float or a Jet.

    Valid everywhere, including where Gamma(s) has poles.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    r = 1.0
    for k in range(n):
        r = r * (s + k)
    return r


@dataclass(frozen=True)
class GKPotential:
    """The half-line oscillator A/z^2 + B z^2 on (0, inf)."""

    A: float
    B: float

    def __post_init__(self):
        if self.A < 0:
            raise ValueError("need A >= 0")
        if self.B <= 0:
            raise ValueError("need B > 0")

    @property
    def gamma_gk(self) -> float:
        return 1.0 + 0.5 * math.sqrt(1.0 + 4.0 * self.A)

    @property
    def delta_gk(self) -> float:
        return math.sqrt(self.B)


def gk_eigenvalues(gk: GKPotential, n_max: int) -> list[float]:
    """Exact ladder 2 delta (2n + gamma), n <= n_max."""
    g, d = gk.gamma_gk, gk.delta_gk
    return [2 * d * (2 * n + g) for n in range(n_max + 1)]


def gk_of(fp) -> GKPotential:
    """The plus-side half-line potential minus its constant shift."""
    ob, rq = fp.omega_bar, fp.rho_q
    return GKPotential(A=(rq**2 + math.sqrt(ob) * rq) / ob, B=fp.mu**2 * ob)


def energy_shift(fp) -> float:
    """Constant offset of the plus-side half-line potential."""
    sw = math.sqrt(fp.omega_bar)
    return 2 * fp.d * (fp.rho_q + 3.5 * sw) * (fp.rho_q + 1.5 * sw)


def j_diagonal_exact(fp, n: int) -> float:
    """The exact diagonal normalization integral of the pre-transform states,
    n! (2n + gamma) Gamma(gamma) / (2 oh^(gamma+1) (gamma)_n)."""
    g, oh = fp.gamma, fp.omega_hat
    return (math.factorial(n) * (2 * n + g) * math.gamma(g)
            / (2 * oh ** (g + 1) * pochhammer(g, n)))
