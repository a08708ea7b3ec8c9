"""Reference formulas the tests check the package against.

Each is written independently of the package's evaluation path: plain
products and ``math.gamma`` where the package uses log-Gamma, and the
Goldman-Krivchenkov half-line oscillator stated from its own strengths
where the package derives the ladder from the factorization constants.
"""

import math
from dataclasses import dataclass

import numpy as np


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


def quad_interval_nodewise(f, lo: float, hi: float, tol: float) -> float:
    """Integral of f from lo to hi (negated when lo > hi) by composite
    16-node Gauss-Legendre as a loop over the nodes on Python floats, ``f``
    called on one float at a time, doubling the panels from 8 until two
    estimates agree to ``tol`` relative."""
    nodes, weights = (a.tolist() for a in np.polynomial.legendre.leggauss(16))
    prev = None
    panels = 8
    while panels <= 2**14:
        edges = np.linspace(lo, hi, panels + 1).tolist()
        total = 0.0
        for i in range(panels):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            total += half * sum(w * f(mid + half * t)
                                for t, w in zip(nodes, weights))
        if (prev is not None
                and abs(total - prev) <= tol * max(1.0, abs(total))):
            return total
        prev = total
        panels *= 2
    raise ArithmeticError("no convergence")


def sturm_count_two_sided(rows, shift: float) -> int:
    """Negative pivots of A - shift B over rows (a_i, b_i, e_{i-1}^2), each
    pivot first tested against (-tiny, tiny) and perturbed to -tiny there,
    then tested against 0."""
    tiny = float(np.finfo(float).tiny)
    q = 1.0
    count = 0
    for a, b, e2 in rows:
        q = a - shift * b - e2 / q
        if -tiny < q < tiny:
            q = -tiny
        if q < 0:
            count += 1
    return count


def tridiag_eigs_per_level(sys, k: int) -> list[float]:
    """``numeric.tridiag_eigs`` with the two-sided pivot test: one count
    per level and midpoint, each by ``sturm_count_two_sided``; the bracket
    (the Gershgorin lower end, the span doubled from |lo| until k levels
    lie below), the lock-step loop, the midpoints and the stopping rule are
    the same."""
    if k > sys.n_points:
        raise ValueError("cannot request more eigenvalues than matrix size")
    a = np.asarray(sys.diagonal, dtype=float)
    e = np.asarray(sys.off_diagonal, dtype=float)
    b = np.asarray(sys.weight, dtype=float)
    if len(a) == 1 or np.all(e == 0.0):
        return sorted((a / b).tolist())[:k]
    rows = list(zip(a.tolist(), b.tolist(), [0.0] + (e * e).tolist()))
    r = np.zeros(len(a))
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    lo = float(np.min((a - r) / b))
    span = abs(lo) or 1.0
    while sturm_count_two_sided(rows, lo + span) < k:
        span *= 2
    hi = lo + span
    tol = max(1e-14 * max(abs(lo), abs(hi)), float(np.finfo(float).tiny))
    los = np.full(k, lo)
    his = np.full(k, hi)
    while np.max(his - los) > tol:
        mids = 0.5 * (los + his)
        below = np.array([sturm_count_two_sided(rows, mid) > j
                          for j, mid in enumerate(mids.tolist())])
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
    return [float(x) for x in 0.5 * (los + his)]


def w_of_z_x_chart(z, fp, order: int):
    """The half-line superpotential w(z) = b~(x(z)) - sqrt(ob) x(z) with
    x(z) = -1/(sqrt(ob) z) and b~(x) = mu/x - rho_q x + lam x/(x^2 + d),
    composed in jet arithmetic through the x chart: its Taylor coefficients
    to ``order`` at z or on a grid of z, independent of the package's
    closed form in z."""
    from swanson.jets import Jet

    sw = math.sqrt(fp.omega_bar)
    xj = -1.0 / (sw * Jet.variable(z, order))
    b_tilde = fp.mu / xj - fp.rho_q * xj + fp.lam * xj / (xj**2 + fp.d)
    return b_tilde - sw * xj


def x_chart_by_jets(x, fp, mp=None, order: int = 3,
                    delta: float = 0.0) -> dict:
    """The x-chart coefficients composed in jet arithmetic from the
    variable x, independent of the package's closed forms: their Taylor
    coefficients to ``order`` at x or on a grid of x, keyed by the name of
    the package function that writes each in closed form less its ``_jet``
    suffix, with the side appended for h+- and H+- (``h_zeroth_minus``).
    They are a = x^2, b~ = mu/x - rho_q x + lam x/(x^2 + d) and h+- from b~
    and a (A^dag A and A A^dag); with inverse-mode ``mp`` also
    b = 1/x + c x/(x^2 + d), b1 = (alpha - beta) a (2b - a'), the printed
    c1 with the gauge constant ``delta``, H+-'s zeroth coefficient
    h+- + b1'/2 - b1^2/(4 ob a^2), (log rho)' = -b1/(2 ob a^2) and the
    printed intertwiner's zeroth coefficient."""
    from swanson.jets import Jet
    from swanson.potentials import Side

    xj = Jet.variable(x, order + 2)
    ob = fp.omega_bar
    sw = math.sqrt(ob)
    a = xj**2
    bt = fp.mu / xj - fp.rho_q * xj + fp.lam * xj / (xj**2 + fp.d)
    h = {Side.MINUS: bt * bt - sw * (a * bt).shift(1),
         Side.PLUS: (bt * bt + sw * (a * bt.shift(1) - a.shift(1) * bt)
                     - ob * a * a.shift(2))}
    out = {"a": a, "b_tilde": bt,
           **{f"h_zeroth_{side.value}": h[side] for side in Side}}
    if mp is not None:
        om, al, be = mp.omega, mp.alpha, mp.beta
        d, c, rq, mu = fp.d, fp.c, fp.rho_q, fp.mu
        b = 1.0 / xj + c * xj / (xj**2 + d)
        b1 = (al - be) * a * (2 * b - 2 * xj)
        ap, app = a.shift(1), a.shift(2)
        x2 = xj * xj
        num = ((al - be - rq * sw) * x2 * x2
               + ((al - be) * (d - c - 1)
                  - (3.5 * d * ob + 2 * rq * d * sw)) * x2
               + d * (mu * sw - al + be))
        out.update({
            "b_plain": b, "b1": b1,
            "c1": ((om + al + be) * b * b - (om + 2 * be) * ap * b
                       - (om - al + be) * a * b.shift(1)
                       + be * (a * app + ap * ap) - delta * ap + om / 2),
            **{f"H_zeroth_{side.value}": h[side] + b1.shift(1) * 0.5
               - b1 * b1 / (4 * ob * a * a) for side in Side},
            "dlog_rho": -b1 / (2 * mp.omega_bar * xj**4),
            "eta1_explicit": num / (sw * xj * (d + x2)),
        })
    return {name: j.truncate(order) for name, j in out.items()}
