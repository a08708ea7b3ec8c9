"""Independent numerical oracles.

Finite-difference discretization of -d^2/dz^2 + V(z) on a truncated half
line, symmetric-tridiagonal eigenvalues by Sturm-sequence bisection (fully
deterministic), Richardson extrapolation over grid refinements, the one
quadrature rule (composite Gauss-Legendre, on an interval or a Gaussian-decay
half line), the relative gap the identity checks reduce to, and spectra
comparison.  Nothing here reuses the closed-form machinery it checks.

The Sturm count is a scalar Python loop over the rows, run once per bisection
midpoint and stopped as soon as the count reaches the level it decides: per
row that costs less than numpy calls on k-element arrays, and it avoids
LAPACK's ``stebz`` through scipy, whose import costs about 25 MB of resident
memory and 0.3-0.5 s in a fresh interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonConvergent


@dataclass(frozen=True)
class TridiagSystem:
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    z_min: float
    z_max: float
    n_points: int


@dataclass(frozen=True)
class SpectrumComparison:
    pairs: list[tuple[float, float, float, float]]  # analytic, numeric, abs, rel
    unmatched_numeric_levels: list[float]

    @property
    def max_rel_error(self) -> float:
        return max((p[3] for p in self.pairs), default=0.0)


def fd_discretize(V: Callable[[float], float], z_min: float, z_max: float,
                  n_points: int) -> TridiagSystem:
    """Second-order central differences with Dirichlet walls at both ends."""
    if not (0 < z_min < z_max):
        raise ValueError("need 0 < z_min < z_max")
    h = (z_max - z_min) / (n_points + 1)
    z = z_min + h * np.arange(1, n_points + 1)
    v = np.array([V(float(zi)) for zi in z])
    if not np.all(np.isfinite(v)):
        raise ValueError("potential returned non-finite samples")
    diag = 2.0 / h**2 + v
    off = np.full(n_points - 1, -1.0 / h**2)
    return TridiagSystem(diagonal=diag, off_diagonal=off,
                         z_min=z_min, z_max=z_max, n_points=n_points)


_TINY = float(np.finfo(float).tiny)


def _sturm_reaches(d0: float, rows: list[tuple[float, float]], shift: float,
                   target: int) -> bool:
    """Whether at least ``target`` eigenvalues lie below ``shift``.

    ``rows`` holds (d_i, e_{i-1}^2) for i >= 1.  The count only grows along
    the rows, so the scan stops once it reaches ``target``.
    """
    # zero pivots are perturbed to -tiny *before* counting: a vanishing pivot
    # means the shift is an eigenvalue of a leading minor and must be counted;
    # -tiny < q < tiny is abs(q) < tiny, NaN included
    tiny = _TINY
    q = d0 - shift
    if -tiny < q < tiny:
        q = -tiny
    count = 1 if q < 0 else 0
    if count >= target:
        return True
    for di, e2 in rows:
        q = di - shift - e2 / q
        if -tiny < q < tiny:
            q = -tiny
        if q < 0:
            count += 1
            if count >= target:
                return True
    return False


def tridiag_eigs(sys: TridiagSystem, k: int) -> list[float]:
    """k smallest eigenvalues by bisection on the Sturm count.

    Deterministic: fixed Gershgorin bracket, bisection to 1e-12 absolute
    width (scaled by the matrix norm for very large entries).
    """
    if k > sys.n_points:
        raise ValueError("cannot request more eigenvalues than matrix size")
    d = np.asarray(sys.diagonal, dtype=float)
    e = np.asarray(sys.off_diagonal, dtype=float)
    if len(d) == 1 or np.all(e == 0.0):
        return sorted(float(x) for x in d)[:k]
    d0 = float(d[0])
    rows = list(zip(d[1:].tolist(), (e * e).tolist()))
    r = np.zeros(len(d))
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    lo_all = float(np.min(d - r))
    hi_all = float(np.max(d + r))
    scale = max(abs(lo_all), abs(hi_all), 1.0)
    tol = max(1e-12, 1e-14 * scale)
    los = np.full(k, lo_all)
    his = np.full(k, hi_all)
    while np.max(his - los) > tol:
        mids = 0.5 * (los + his)
        # eigenvalue_j < mid
        below = np.array([_sturm_reaches(d0, rows, mid, j + 1)
                          for j, mid in enumerate(mids.tolist())])
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
    return [float(x) for x in 0.5 * (los + his)]


def refine_extrapolate(V: Callable[[float], float], k: int,
                       grids: Sequence[int], z_min: float, z_max: float,
                       ) -> tuple[list[float], float]:
    """Richardson-extrapolated eigenvalues over grids refined by factor 2.

    Uses the two finest grids for the h^2 extrapolation; the observed order
    comes from a third (coarser) grid, computed implicitly when only two are
    given.  Raises NonConvergent when the observed order drops below 1.5.
    """
    grids = sorted(grids)
    if len(grids) < 2:
        raise ValueError("need at least two grids")
    for a, b in zip(grids, grids[1:]):
        if b != 2 * a:
            raise ValueError("grids must refine by a factor of 2")
    if len(grids) == 2:
        grids = [grids[0] // 2] + list(grids)
    eigs = [tridiag_eigs(fd_discretize(V, z_min, z_max, n), k) for n in grids]
    e_c, e_m, e_f = eigs[-3], eigs[-2], eigs[-1]
    orders = []
    for j in range(k):
        num = e_c[j] - e_m[j]
        den = e_m[j] - e_f[j]
        if den != 0 and num / den > 0:
            orders.append(math.log2(num / den))
    if not orders:
        raise NonConvergent("could not estimate a convergence order")
    order = float(np.median(orders))
    if order < 1.5:
        raise NonConvergent(f"observed convergence order {order:.2f} < 1.5")
    extrap = [(4 * e_f[j] - e_m[j]) / 3 for j in range(k)]
    return extrap, order


def quad_interval(f: Callable[[float], float], lo: float, hi: float,
                  tol: float) -> float:
    """Integral of f from lo to hi (negated when lo > hi) by 16-node composite
    Gauss-Legendre, doubling the panels from 8 until two estimates agree to
    ``tol`` relative; NonConvergent if they still differ at 2^14 panels."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    prev = None
    panels = 8
    while panels <= 2**14:
        edges = np.linspace(lo, hi, panels + 1)
        total = 0.0
        for i in range(panels):
            mid = 0.5 * (edges[i] + edges[i + 1])
            half = 0.5 * (edges[i + 1] - edges[i])
            total += half * sum(w * f(mid + half * t)
                                for t, w in zip(nodes, weights))
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise NonConvergent(f"quadrature on [{lo:.6g}, {hi:.6g}] did not stabilize")


def quad_halfline(f: Callable[[float], float], decay_rate: float,
                  tol: float = 1e-11) -> float:
    """Integral over (0, inf) of an integrand with exp(-decay_rate z^2) decay."""
    if decay_rate <= 0:
        raise ValueError("need a positive decay rate")
    # generous exponent margin: polynomial prefactors up to ~1e20 still leave
    # the truncated tail below 1e-19
    return quad_interval(f, 0.0, math.sqrt(90.0 / decay_rate), tol)


def max_rel_gap(pairs: Iterable[tuple[float, float]]) -> float:
    """max |v - r| / max(1, |r|) over (value, reference) pairs, 0 if none."""
    worst = 0.0
    for v, r in pairs:
        worst = max(worst, abs(v - r) / max(1.0, abs(r)))
    return worst


def compare_spectra(analytic: Sequence[float], numeric: Sequence[float],
                    tol: float = 1e-6) -> SpectrumComparison:
    """Nearest-neighbor pairing of two ascending spectra.

    Each analytic level is matched to the nearest unused numeric level;
    numeric levels below the lowest analytic one are flagged (zero-mode scan).
    """
    analytic = list(analytic)
    numeric = list(numeric)
    used = [False] * len(numeric)
    pairs = []
    for a in analytic:
        best, best_i = None, None
        for i, x in enumerate(numeric):
            if used[i]:
                continue
            if best is None or abs(x - a) < abs(best - a):
                best, best_i = x, i
        if best_i is None:
            break
        used[best_i] = True
        abs_err = abs(best - a)
        pairs.append((a, best, abs_err, abs_err / max(1.0, abs(a))))
    unmatched = [x for i, x in enumerate(numeric)
                 if not used[i] and analytic and x < analytic[0] - tol]
    return SpectrumComparison(pairs=pairs, unmatched_numeric_levels=unmatched)
