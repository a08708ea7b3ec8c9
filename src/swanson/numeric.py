"""Independent numerical oracles.

The one finite-difference oracle for -d^2/dz^2 + V(z) on the half line
(``fd_levels``: a log mesh in a box read off V alone, V sampled on the whole
grid in one call), the k lowest levels of its tridiagonal pencil by
Sturm-sequence bisection (fully deterministic), Richardson extrapolation
over grid refinements, the one quadrature rule (composite Gauss-Legendre, on
an interval or a Gaussian-decay half line, the integrand sampled on many
nodes per call), the relative gap the identity checks reduce to, and spectra
comparison.  Nothing here reuses the closed-form machinery it checks.

The Sturm count is a scalar Python loop over all the rows with one
comparison per pivot: per row that costs less than numpy calls on k-element
arrays, and it avoids LAPACK's ``stebz`` through scipy, whose import costs
about 25 MB of resident memory and 0.3-0.5 s in a fresh interpreter.  Every
count scans the N rows, so its cost does not follow the binary digits of
each level or the shape of the states.  The k levels bisect in lock step,
and one count places every level at once (the count grows with the shift),
so a midpoint that the counts already made place is not counted again.
Before the bisection, safeguarded Newton steps on log|det(A - lambda B)|
zoom in on each level, and their counts go into the same table; the
bisection then counts only the midpoints inside a window tol/2 wide, and
gives the same levels bit for bit.  On the log mesh at N = 1000, k = 4,
started from the 500-point grid's levels, that is 4 to 7 counts and 19 to
22 Newton scans (each costs about 1.5 counts) at four box points, both
sides, against 179 counts for the bisection alone.  A default ``sweep``
scans 169,500 rows instead of 1,088,000, a default ``verify`` 92,250
instead of 544,000, and over ten seeded benchmark samples the rows per
``verify`` case or swept value stay within 4 % of their median.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonConvergent

# a potential sampled on a grid, or an integrand on quadrature nodes:
# ndarray of points in, array (or one scalar) out
Potential = Integrand = Callable[[np.ndarray], "np.ndarray | float"]

# panels per call of an integrand (4096 nodes: bounded memory at 2^14 panels)
_QUAD_BLOCK = 256


@dataclass(frozen=True)
class TridiagSystem:
    """The pencil A - lambda B: A symmetric tridiagonal (``diagonal``,
    ``off_diagonal``) and B diagonal with positive entries (``weight``)."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    weight: np.ndarray
    n_points: int


@dataclass(frozen=True)
class SpectrumComparison:
    pairs: list[tuple[float, float, float, float]]  # analytic, numeric, abs, rel
    unmatched_numeric_levels: list[float]

    @property
    def max_rel_error(self) -> float:
        return max((p[3] for p in self.pairs), default=0.0)


def fd_discretize(V: Potential, z_min: float, z_max: float,
                  n_points: int) -> TridiagSystem:
    """-psi'' + V psi = E psi on (z_min, z_max), Dirichlet at both walls,
    by second-order central differences on a uniform mesh in t = log z.

    With z = e^t and psi = e^(t/2) u the problem reads
    -u'' + (1/4 + z^2 V) u = E z^2 u, so the rows are the pencil A - E B
    with A's diagonal 2/h^2 + 1/4 + z^2 V, its off-diagonal -1/h^2 and
    B = diag(z^2).  ``V`` is called once, on the whole grid of interior
    points as an ndarray, and returns an array of the samples or one scalar
    for all of them.  It runs with numpy's floating-point warnings off: an
    overflow gives inf, as in Python float arithmetic, and the check below
    reports it.
    """
    if not (0 < z_min < z_max):
        raise ValueError("need 0 < z_min < z_max")
    t_min = math.log(z_min)
    h = (math.log(z_max) - t_min) / (n_points + 1)
    z = np.exp(t_min + h * np.arange(1, n_points + 1))
    with np.errstate(all="ignore"):
        v = np.broadcast_to(np.asarray(V(z), dtype=float), z.shape)
        z2 = z * z
        diag = (2.0 / h**2 + 0.25) + z2 * v
    if not (np.all(np.isfinite(diag)) and np.all(z2 >= _TINY)):
        raise FloatingPointError(f"non-finite potential samples or FD rows "
                                 f"on [{z_min:.6g}, {z_max:.6g}]")
    off = np.full(n_points - 1, -1.0 / h**2)
    return TridiagSystem(diagonal=diag, off_diagonal=off, weight=z2,
                         n_points=n_points)


_TINY = float(np.finfo(float).tiny)


def _sturm_count(rows: Iterable[tuple[float, float, float]],
                 shift: float) -> int:
    """Number of levels of the pencil A - lambda B below ``shift``: the
    negative pivots of the LDL^T factorization of A - shift B, over all the
    rows.

    ``rows`` holds (a_i, b_i, e_{i-1}^2), with e_{-1}^2 = 0.
    """
    # a pivot in (-tiny, tiny), zeros of either sign included, is perturbed
    # to -tiny and counted: a vanishing pivot means the shift is a level of
    # a leading minor and must be counted.  One comparison settles the
    # count: q < tiny holds for every negative or vanishing pivot; NaN fails
    # both comparisons, so it is neither counted nor perturbed, as
    # abs(q) < tiny would leave it
    tiny = _TINY
    ntiny = -tiny
    q = 1.0
    count = 0
    for a, b, e2 in rows:
        q = a - shift * b - e2 / q
        if q < tiny:
            count += 1
            if q > ntiny:
                q = ntiny
    return count


def _sturm_newton(rows: Iterable[tuple[float, float, float]],
                  shift: float) -> tuple[int, float]:
    """``_sturm_count`` at ``shift``, bit for bit, and d log|det|/dlambda
    of A - lambda B there, sum_i q_i'/q_i, from the same pivot pass.

    q_i' = -b_i + e_{i-1}^2 q_{i-1}' / q_{i-1}^2 follows each (perturbed)
    pivot; where it overflows the derivative is inf or NaN.
    """
    tiny = _TINY
    ntiny = -tiny
    q = 1.0
    dq = 0.0
    slope = 0.0
    count = 0
    for a, b, e2 in rows:
        t = e2 / q
        dq = t * (dq / q) - b
        q = a - shift * b - t
        if q < tiny:
            count += 1
            if q > ntiny:
                q = ntiny
        slope += dq / q
    return count, slope


def tridiag_eigs(sys: TridiagSystem, k: int,
                 guess: Sequence[float] = ()) -> list[float]:
    """k smallest levels of the pencil by bisection on the Sturm count.

    Deterministic.  The bracket's lower end is the pencil's Gershgorin bound
    lo = min (a_i - r_i) / b_i, r_i the sum of row i's off-diagonal
    magnitudes.  Its upper end is lo plus a span, |lo| at first (1 if
    lo = 0), doubled until the count there reaches k; the Gershgorin upper
    bound is of order 1/(h^2 z_min^2) on the log mesh, and a tolerance
    scaled by it would lose the levels.  Every level bisects from that
    bracket, in lock step, until every bracket is at most
    tol = max(1e-14 * scale, tiny) wide, scale the larger magnitude of its
    ends.

    A count c at shift m places every level at once: levels 0..c-1 lie
    below m and the others at or above it, since the count grows with the
    shift.  Each level keeps the nearest shifts counted on either side of
    it, the bracket's among them, and a midpoint outside them takes its
    decision from them; only the midpoints between them are counted.  So
    each level follows the same midpoints and decisions as if it were
    bisected on its own.

    Before the bisection each level is zoomed in on.  Once the counts
    isolate it (j levels below its lower recorded shift, j + 1 below its
    upper one), safeguarded Newton steps on log|det(A - lambda B)|
    (``_sturm_newton``) narrow it, starting from ``guess[j]`` when that lies
    between those shifts; a level never isolated, such as a double one, is
    bisected between them.  Every probe's count joins the recorded shifts,
    until they bracket the level within tol/2, so the bisection counts only
    the one or two midpoints inside that window.  The guess chooses where
    Newton starts and nothing else: the levels are the bisection's, bit for
    bit.
    """
    if k > sys.n_points:
        raise ValueError("cannot request more eigenvalues than matrix size")
    a = np.asarray(sys.diagonal, dtype=float)
    e = np.asarray(sys.off_diagonal, dtype=float)
    b = np.asarray(sys.weight, dtype=float)
    if len(a) == 1 or np.all(e == 0.0):
        return sorted((a / b).tolist())[:k]
    rows = list(zip(a.tolist(), b.tolist(), [0.0] + (e * e).tolist()))
    # the lowest counted shift above level j, the highest at or below it,
    # and the counts there
    above = [math.inf] * k
    below_or_at = [-math.inf] * k
    n_above = [len(rows)] * k
    n_below_or_at = [0] * k

    def record(shift: float, c: int) -> int:
        for i in range(k):
            if i < c:
                if shift < above[i]:
                    above[i], n_above[i] = shift, c
            elif shift > below_or_at[i]:
                below_or_at[i], n_below_or_at[i] = shift, c
        return c

    def count(shift: float) -> int:
        return record(shift, _sturm_count(rows, shift))

    r = np.zeros(len(a))
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    lo = float(np.min((a - r) / b))
    span = abs(lo) or 1.0
    while count(lo + span) < k:
        span *= 2
    hi = lo + span
    tol = max(1e-14 * max(abs(lo), abs(hi)), _TINY)
    half, eighth = tol / 2, tol / 8
    for j in range(k):
        x = float(guess[j]) if j < len(guess) else math.nan
        moved = math.inf
        while True:
            L, H = max(below_or_at[j], lo), min(above[j], hi)
            if not H - L > half:
                break
            if not (n_below_or_at[j] == j and n_above[j] == j + 1):
                count(0.5 * (L + H))
                continue
            if not L < x < H:
                x = 0.5 * (L + H)
            c, slope = _sturm_newton(rows, x)
            record(x, c)
            L, H = max(below_or_at[j], lo), min(above[j], hi)
            step = -1.0 / slope if slope else math.inf
            # a step within tol/8 is rounding noise about a converged level
            # and may point just outside [L, H]: probe tol/8 inside instead;
            # otherwise bisect unless the step lands inside and halves the
            # last move (rtsafe)
            if abs(step) <= eighth:
                nxt = min(max(x + step, L + eighth), H - eighth)
            elif L < x + step < H and abs(step) <= 0.5 * moved:
                nxt = x + step
            else:
                nxt = 0.5 * (L + H)
            moved = abs(nxt - x)
            x = nxt
    los = np.full(k, lo)
    his = np.full(k, hi)
    while np.max(his - los) > tol:
        mids = 0.5 * (los + his)
        # eigenvalue_j < mid
        below = [count(mid) > j if below_or_at[j] < mid < above[j]
                 else mid >= above[j] for j, mid in enumerate(mids.tolist())]
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
    return [float(x) for x in 0.5 * (los + his)]


def refinement(grids: Sequence[int]) -> list[int]:
    """The grids a refinement runs on: sorted, each twice the one before,
    with one of half the first in front when only two are given."""
    grids = sorted(grids)
    if len(grids) < 2:
        raise ValueError("need at least two grids")
    for a, b in zip(grids, grids[1:]):
        if b != 2 * a:
            raise ValueError("grids must refine by a factor of 2")
    return [grids[0] // 2] + grids if len(grids) == 2 else grids


def refine_extrapolate(V: Potential, k: int,
                       grids: Sequence[int], z_min: float, z_max: float,
                       ) -> tuple[list[float], float]:
    """Richardson-extrapolated eigenvalues over grids refined by factor 2.

    Uses the two finest grids for the h^2 extrapolation; the observed order
    comes from a third (coarser) grid, computed implicitly when only two are
    given.  Raises NonConvergent when the observed order drops below 1.5.
    Each grid's levels are where the next grid's Newton steps start.
    """
    eigs: list[list[float]] = []
    for n in refinement(grids):
        eigs.append(tridiag_eigs(fd_discretize(V, z_min, z_max, n), k,
                                 eigs[-1] if eigs else ()))
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


# the scans of V step by factors of 2 and stay within 2^-480 .. 2^480, where
# the rows' z^2 is a normal float
_SCAN_LIMIT = 2.0**480


def _samples(V: Potential, z: float, step: float):
    """(z step^j, V there) for j = 1, 2, ... within the scan's range, one
    point at a time, so the scan meets only the errors of points it
    reaches."""
    while True:
        z *= step
        if not 1 / _SCAN_LIMIT <= z <= _SCAN_LIMIT:
            return
        yield z, float(V(z))


def _minimum(V: Potential) -> tuple[float, float]:
    """(z, V(z)) where V is least among the points 2^j, walking downhill
    from z = 1, up and then down."""
    z, v = 1.0, float(V(1.0))
    for step in (2.0, 0.5):
        for z_next, v_next in _samples(V, z, step):
            if not v_next < v:
                break
            z, v = z_next, v_next
    return z, v


def fd_box(V: Potential, k: int, grids: Sequence[int],
           ) -> tuple[float, float]:
    """The box (z_min, z_max) of the half-line FD oracle for k levels, read
    off V alone.

    A geometric scan finds V's least value v_min and its position z_v; the
    wall z_min sits at 1e-7 z_v.  z_max is where V first exceeds 4 E_{k-1}
    beyond z_v, with E_{k-1} the top level of one solve on the refinement's
    coarsest grid, in the box that ends where V first exceeds 64 v_min.  A
    box too tight only raises that level, and with it z_max.  Both right
    ends come from one upward scan of V from z_v, each the first of its
    points 2^j z_v above the level, or the last within the scan's range.
    Meant for potentials whose least value and levels are positive, as
    those of the canonical pair are.
    """
    z_v, v_min = _minimum(V)
    if not math.isfinite(v_min):
        raise FloatingPointError(f"potential not finite at z = {z_v:.6g}, "
                                 "its least sample")
    upward = _samples(V, z_v, 2.0)
    seen: list[tuple[float, float]] = []

    def first_above(level: float) -> float:
        for z, v in seen:
            if v > level:
                return z
        for z, v in upward:
            seen.append((z, v))
            if v > level:
                return z
        return seen[-1][0] if seen else z_v

    z_min = 1e-7 * z_v
    top = tridiag_eigs(fd_discretize(
        V, z_min, first_above(64 * v_min), refinement(grids)[0]), k)[-1]
    return z_min, first_above(4 * top)


def fd_levels(V: Potential, k: int, grids: Sequence[int],
              ) -> tuple[list[float], float]:
    """The k lowest levels of -d^2/dz^2 + V on the half line and the
    observed order: ``refine_extrapolate`` in the box ``fd_box`` reads off
    V."""
    return refine_extrapolate(V, k, grids, *fd_box(V, k, grids))


def quad_interval(f: Integrand, lo: float, hi: float, tol: float) -> float:
    """Integral of f from lo to hi (negated when lo > hi) by 16-node composite
    Gauss-Legendre, doubling the panels from 8 until two estimates agree to
    ``tol`` relative; NonConvergent if they still differ at 2^14 panels.

    ``f`` is called on the nodes of up to 256 panels (``_QUAD_BLOCK``) at a
    time, as an ndarray, and returns an array of the values or one scalar
    for all of them.  Each panel's nodes are summed in node order and the
    panels in panel order, as a node-by-node loop on Python floats would;
    numpy's floating-point warnings are off, so an overflow in array
    arithmetic gives inf as in Python floats.  An error that ``f`` raises
    is the one the first failing node raises on its own.
    """
    prev = None
    panels = 8
    while panels <= 2**14:
        edges = np.linspace(lo, hi, panels + 1)
        total = 0.0
        with np.errstate(all="ignore"):
            mids = 0.5 * (edges[:-1] + edges[1:])
            halves = 0.5 * (edges[1:] - edges[:-1])
            for b in range(0, panels, _QUAD_BLOCK):
                half = halves[b:b + _QUAD_BLOCK]
                sums = _panel_sums(f, mids[b:b + _QUAD_BLOCK], half)
                for term in (half * sums).tolist():
                    total += term
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise NonConvergent(f"quadrature on [{lo:.6g}, {hi:.6g}] did not stabilize")


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-node Gauss-Legendre rule on [-1, 1]
    (computed on first use: numpy.polynomial is not imported before)."""
    return np.polynomial.legendre.leggauss(16)


def _panel_sums(f: Integrand, mid: np.ndarray,
                half: np.ndarray) -> np.ndarray:
    """sum_j w_j f(mid + half t_j) of each panel, term by term in j."""
    nodes, weights = _gauss_legendre()
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    try:
        fx = f(x)
    except Exception:
        # what a scan of the nodes in order meets first
        for i in range(x.size):
            f(x[i:i + 1])
        raise
    fx = np.broadcast_to(np.asarray(fx, dtype=float), x.shape)
    fx = fx.reshape(len(mid), len(nodes))
    s = 0.0 + weights[0] * fx[:, 0]
    for j in range(1, len(nodes)):
        s = s + weights[j] * fx[:, j]
    return s


def quad_halfline(f: Integrand, decay_rate: float,
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
