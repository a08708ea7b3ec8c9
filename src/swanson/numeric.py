"""Independent numerical oracles.

The one spectral oracle of the commands, ``mesh_levels``: the k lowest
levels of -d^2/dz^2 + V(z) on the half line from one dense ``eigvalsh`` on
a Gauss-rule Galerkin mesh in t = s z^2, in the basis of the radial
oscillator l(l + 1) / z^2 + s^2 z^2 read off V's two asymptotes, with the
observed error against the levels of the same matrix's leading block.  It
is exact for an isotonic V at any size.  The one quadrature rule,
``quad_halfline``: generalized Gauss-Laguerre in t = omega_hat z^2, the
integrand sampled on all its nodes in one call.  Both take their nodes from
one Laguerre rule (``_laguerre_rule``).  ``worst`` is the one maximum every
identity check reduces with: a NaN anywhere makes it NaN, so the check
fails.  Nothing here reuses the closed-form machinery it checks.

Every dense eigensolve of up to 360 rows runs with numpy's OpenBLAS held to
one thread (``_one_blas_thread``), and no mesh has more, so its levels do
not depend on the thread count.  At k = 3 the mesh of 46 nodes takes about
0.45 ms per side on a 2-vCPU host, and 250 levels on 360 nodes about 23 ms.

The finite-difference oracle (``fd_levels``: a log mesh in a box read off V
by the scans ``_well`` and ``_first_above``, the k lowest levels of its
tridiagonal pencil by lock-step Sturm-sequence bisection, Richardson
extrapolation over grid refinements) is the mesh's independent reference in
the tests; no command runs it.  The Sturm count is a scalar Python loop,
which avoids LAPACK's ``stebz`` through scipy, whose import costs about
25 MB of resident memory and 0.3-0.5 s in a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import operator
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonConvergent

# a potential sampled on a grid, or an integrand on quadrature nodes:
# ndarray of points in, array (or one scalar) out
Potential = Integrand = Callable[[np.ndarray], "np.ndarray | float"]


@dataclass(frozen=True)
class TridiagSystem:
    """The pencil A - lambda B: A symmetric tridiagonal (``diagonal``,
    ``off_diagonal``) and B diagonal with positive entries (``weight``)."""

    diagonal: np.ndarray
    off_diagonal: np.ndarray
    weight: np.ndarray
    n_points: int


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


def tridiag_eigs(sys: TridiagSystem, k: int) -> list[float]:
    """k smallest levels of the pencil by bisection on the Sturm count.

    Deterministic.  The bracket's lower end is the pencil's Gershgorin bound
    lo = min (a_i - r_i) / b_i, r_i the sum of row i's off-diagonal
    magnitudes.  Its upper end is lo plus a span, |lo| at first (1 if
    lo = 0), doubled until the count there reaches k; the Gershgorin upper
    bound is of order 1/(h^2 z_min^2) on the log mesh, and a tolerance
    scaled by it would lose the levels.  Every level bisects from that
    bracket, in lock step, one ``_sturm_count`` at its own midpoint per
    step, until every bracket is at most tol = max(1e-14 * scale, tiny)
    wide, scale the larger magnitude of its ends.
    """
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
    while _sturm_count(rows, lo + span) < k:
        span *= 2
    hi = lo + span
    tol = max(1e-14 * max(abs(lo), abs(hi)), _TINY)
    los = np.full(k, lo)
    his = np.full(k, hi)
    while np.max(his - los) > tol:
        mids = 0.5 * (los + his)
        # eigenvalue_j < mid
        below = [_sturm_count(rows, mid) > j
                 for j, mid in enumerate(mids.tolist())]
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


def refine_extrapolate(V: Potential, k: int, grids: Sequence[int],
                       z_min: float, z_max: float,
                       ) -> tuple[list[float], float]:
    """Richardson-extrapolated eigenvalues over grids refined by factor 2.

    Uses the two finest grids for the h^2 extrapolation; the observed order
    comes from a third (coarser) grid, computed implicitly when only two are
    given.  Raises NonConvergent when the observed order drops below 1.5.
    """
    eigs = [tridiag_eigs(fd_discretize(V, z_min, z_max, n), k)
            for n in refinement(grids)]
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


# The scans visit only the points 2^j.  Over the 27 box corners, the five
# frozen inverse triples and 300 seeded box points, k in {3, 4, 40}, they
# reach j in [-4, 9] with 7 to 14 one-point calls of about 20 us each; one
# call of a canonical potential on the 2 * 16 + 1 points 2^-16 .. 2^16 takes
# about 48 us on a 2-vCPU host (46 us on 17 points, 50 us on 65)
_WINDOW = 16


def _served(V: Potential, z: np.ndarray) -> dict | None:
    """{point: V there} for the points z from one call of V on all of them,
    taken with numpy's warnings off, or None when that call raises."""
    try:
        with np.errstate(all="ignore"):
            v = np.broadcast_to(np.asarray(V(z), dtype=float), z.shape)
    except Exception:
        return None
    return dict(zip(z.tolist(), v.tolist()))


def _sampled(V: Potential, z: np.ndarray) -> dict:
    """``_served``, with each point mapped to None when the call raises, so
    that its readers call V at the points they reach."""
    served = _served(V, z)
    return dict.fromkeys(z.tolist()) if served is None else served


def _samples(V: Potential, served: dict, z: float, step: float):
    """(z step^j, V there) for j = 1, 2, ... within the scan's range, read
    from ``served`` (None: V's one-point call), so that the scan meets only
    the errors of points it reaches.  A point ``served`` lacks is sampled by
    one call with the scan's next points, ``_WINDOW`` of them at first,
    twice as many after a call that succeeds and half as many after one
    that raises; ``served`` keeps what they give."""
    block = _WINDOW
    while True:
        z *= step
        if not 1 / _SCAN_LIMIT <= z <= _SCAN_LIMIT:
            return
        while z not in served:
            got = _served(V, np.array([
                t for t in (z * step**j for j in range(block))
                if 1 / _SCAN_LIMIT <= t <= _SCAN_LIMIT]))
            if got is not None:
                served.update(got)
                block *= 2
            elif block == 1:
                served[z] = None
            else:
                block //= 2
        v = served[z]
        yield z, float(V(z) if v is None else v)


def _well(V: Potential) -> tuple[float, float]:
    """(z_v, v_min): where V is least among the points 2^j, walking downhill
    from z = 1, up and then down, and V there; one call samples the window
    2^j, |j| <= ``_WINDOW``, and the walk reads past it by ``_samples``'s
    calls.  A least sample that is not finite is a FloatingPointError."""
    served = _sampled(V, np.ldexp(1.0, np.arange(-_WINDOW, _WINDOW + 1)))
    z, v = 1.0, served[1.0]
    v = float(V(z) if v is None else v)
    for step in (2.0, 0.5):
        for z_next, v_next in _samples(V, served, z, step):
            if not v_next < v:
                break
            z, v = z_next, v_next
    if not math.isfinite(v):
        raise FloatingPointError(f"potential not finite at z = {z:.6g}, "
                                 "its least sample")
    return z, v


def _first_above(V: Potential, z: float, level: float) -> float:
    """The first of the points 2^j z, j >= 1, where V exceeds ``level``, or
    the last within the scan's range (z itself if there is none)."""
    for z, v in _samples(V, {}, z, 2.0):
        if v > level:
            break
    return z


def fd_box(V: Potential, k: int, grids: Sequence[int],
           ) -> tuple[float, float]:
    """The box (z_min, z_max) of the half-line FD oracle for k levels, read
    off V alone.

    ``_well`` finds V's least value v_min and its position z_v; the wall
    z_min sits at 1e-7 z_v.  z_max is where V first exceeds 4 E_{k-1}
    beyond z_v (``_first_above``), with E_{k-1} the top level of one solve
    on the refinement's coarsest grid, in the box that ends where V first
    exceeds 64 v_min.  A box too tight only raises that level, and with it
    z_max.  Meant for potentials whose least value and levels are positive,
    as those of the canonical pair are.
    """
    z_v, v_min = _well(V)
    z_min = 1e-7 * z_v
    coarse = tridiag_eigs(fd_discretize(
        V, z_min, _first_above(V, z_v, 64 * v_min), refinement(grids)[0]),
        k)
    return z_min, _first_above(V, z_v, 4 * coarse[-1])


def fd_levels(V: Potential, k: int, grids: Sequence[int],
              ) -> tuple[list[float], float]:
    """The k lowest levels of -d^2/dz^2 + V on the half line and the
    observed order: ``refine_extrapolate`` in the box ``fd_box`` reads off
    V."""
    return refine_extrapolate(V, k, grids, *fd_box(V, k, grids))


# The largest matrix, in rows, that ``_one_blas_thread`` solves on one BLAS
# thread.  Median ``eigvalsh`` wall times of a dense symmetric matrix on a
# 2-vCPU host, one thread against two: 0.33 / 0.34 ms at 120 rows, 2.39 / 2.41
# ms at 300, 3.56 / 3.47 ms at 360, 4.57 / 4.42 ms at 400, 7.06 / 6.54 ms at
# 480 and 59.2 / 33.8 ms at 1000.  Up to the cut the second thread saves no
# time, but it spins for about 0.13 s after each call, which doubles the CPU
# time.
_ONE_THREAD_MAX_ROWS = 360


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through
    ctypes, or None when there is no such library or it has neither the
    plain nor the scipy-openblas (64-bit integer) names; looked up once."""
    root = Path(np.__file__).parent
    for path in [*root.parent.glob("numpy.libs/*openblas*"),
                 *root.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                              None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


# how many solves hold the one-thread limit, and the count it replaced; the
# first to enter sets the limit and the last to leave restores the count
_limit_lock = threading.Lock()
_limit_holders = 0
_limit_saved = 0


@contextlib.contextmanager
def _one_blas_thread(rows: int):
    """Hold numpy's OpenBLAS to one thread while a dense solve of ``rows``
    rows runs, when rows <= ``_ONE_THREAD_MAX_ROWS``, and restore its count
    after, on an error too.  The limit is process-wide while it holds: a
    BLAS call made meanwhile on another thread runs on one thread as well.
    swanson starts no threads of its own; solves entered from several
    threads share the limit, which the last to leave lifts.  Larger solves,
    and a numpy without a bundled OpenBLAS, run as numpy sets them up."""
    global _limit_holders, _limit_saved
    blas = _blas_threads() if rows <= _ONE_THREAD_MAX_ROWS else None
    if blas is None:
        yield
        return
    get, put = blas
    with _limit_lock:
        if _limit_holders == 0:
            _limit_saved = get()
            put(1)
        _limit_holders += 1
    try:
        yield
    finally:
        with _limit_lock:
            _limit_holders -= 1
            if _limit_holders == 0:
                put(_limit_saved)


def _laguerre_rule(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes t of the n-node Gauss-Laguerre rule for the weight
    t^alpha e^-t and the orthonormal eigenvectors U, by column, of its
    Jacobi matrix (diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha)))
    from one ``eigh``; U[0]^2 are the rule's weights for that weight over
    Gamma(alpha + 1) (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(n)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    with _one_blas_thread(n):
        return np.linalg.eigh(np.diag(2.0 * k + alpha + 1.0)
                              + np.diag(off, 1) + np.diag(off, -1))


# The most levels one mesh solve takes, and the largest observed error a
# solve may show: at most 1.2e-8 where the mesh is within 1e-5 of the closed
# forms (box, frozen triples and the 90-point grid at k = 3), 0.97 where the
# plus mesh is off by a factor 1e5 (r <= 1e-20, omega_hat = 1e-30).
MESH_MAX_LEVELS = 250
MESH_GATE = 2.5e-2


def mesh_size(k: int) -> tuple[int, int]:
    """Nodes of the mesh for k levels and rows of the leading block its
    observed error compares with: 20 more than k in the block and twice as
    many in the mesh, at most ``_ONE_THREAD_MAX_ROWS``, so that no level
    depends on the BLAS thread count.  Over the box corners and the frozen
    triples the mesh is within 7.6e-11 of the closed forms for k <= 40 (48
    nodes at k = 4) and within 2.6e-10 for k = 250; the observed error is at
    most 1.5e-7."""
    return min(2 * k + 40, _ONE_THREAD_MAX_ROWS), k + 20


# at z_v 2^-29 and z_v 2^29 the next terms are 2^-58 of the first
_REACH = 30


def _asymptotes(V: Potential, z_v: float) -> tuple[float, float]:
    """(l(l + 1), s^2) of V ~ l(l + 1) / z^2 at small z and s^2 z^2 at large
    z: z^2 V and V / z^2 at the outermost of the points z_v 2^-j, and of
    z_v 2^j, j < ``_REACH``, out to which V is finite, all served by one
    call (``_sampled``); a point whose sample raises ends its side's read.
    A read that admits no mesh is a FloatingPointError."""
    j = np.arange(_REACH)
    sides = [(z_v * np.ldexp(1.0, -j)).tolist(),
             (z_v * np.ldexp(1.0, j)).tolist()]
    served = _sampled(V, np.array(sides[0] + sides[1]))
    reads = []
    for points in sides:
        last = math.nan, math.nan
        with contextlib.suppress(Exception):
            for z in points:
                v = served[z]
                v = float(V(z) if v is None else v)
                if not math.isfinite(v):
                    break
                last = z, v
        reads.append(last)
    (z_0, v_0), (z_1, v_1) = reads
    # the points are powers of 2: both reads are exact unless they overflow
    c, s2 = v_0 * z_0 * z_0, v_1 / z_1 / z_1
    if not (0 < s2 < math.inf and -0.25 <= c < math.inf):
        raise FloatingPointError(f"no mesh for the potential's asymptotes "
                                 f"l(l + 1) = {c:.6g}, s^2 = {s2:.6g} read "
                                 f"about z = {z_v:.6g}")
    return c, s2


@dataclass(frozen=True)
class MeshLevels:
    """The levels of one mesh solve on ``mesh_size(len(levels))`` nodes,
    their observed error, and the mesh's a = l + 1/2 and s."""

    levels: list[float]
    error: float
    a: float
    s: float


def mesh_levels(V: Potential, k: int) -> MeshLevels:
    """The k lowest levels of -d^2/dz^2 + V on the half line and their
    observed error max_j |E_j(partner) - E_j| / |E_j|, from the Gauss-rule
    Galerkin mesh in t = s z^2 in the basis of the radial oscillator
    l(l + 1) / z^2 + s^2 z^2, a = l + 1/2 (D. Baye, Phys. Rep. 565, 1
    (2015)), on n nodes, (n, m) = ``mesh_size(k)``.

    The basis is read off V alone, ``_asymptotes`` about V's least sample
    (``_well``).  V is called once on the nodes z_q = sqrt(t_q / s) of the
    mesh (``_laguerre_rule`` for a), with numpy's warnings off; a sample of
    V - l(l + 1) / z^2 - s^2 z^2 that is not finite is a FloatingPointError.
    The partner is the matrix's leading m x m block: the first m basis
    functions on the same nodes, so by Cauchy interlacing each of its levels
    is at least the mesh's.  Raises NonConvergent when the observed error
    exceeds ``MESH_GATE``; the levels are deterministic, bit for bit.
    """
    if not 1 <= k <= MESH_MAX_LEVELS:
        raise ValueError(f"the mesh solves 1 to {MESH_MAX_LEVELS} levels, "
                         f"not {k}")
    z_v, _ = _well(V)
    c, s2 = _asymptotes(V, z_v)
    a, s = math.sqrt(c + 0.25), math.sqrt(s2)
    n, m = mesh_size(k)
    t, u = _laguerre_rule(a, n)
    with np.errstate(all="ignore"):
        v = np.broadcast_to(np.asarray(V(np.sqrt(t / s)), dtype=float),
                            t.shape)
        w = v - s * (c / t + t)
    if not np.all(np.isfinite(w)):
        raise FloatingPointError(f"non-finite potential samples on the "
                                 f"{n}-node mesh")
    with _one_blas_thread(n):
        # U diag(w) U^T + diag(s (4n + 2a + 2))
        hamiltonian = (u * w) @ u.T + np.diag(
            s * (4.0 * np.arange(n) + 2.0 * a + 2.0))
        levels = np.linalg.eigvalsh(hamiltonian)[:k]
        partner = np.linalg.eigvalsh(hamiltonian[:m, :m])[:k]
    with np.errstate(all="ignore"):
        error = float(np.max(abs(partner - levels) / abs(levels)))
    if not error <= MESH_GATE:
        raise NonConvergent(f"the {n}-node mesh's levels differ from its "
                            f"leading {m}-row block's by {error:.3g}, "
                            f"above {MESH_GATE:g}")
    return MeshLevels(levels.tolist(), error, a, s)


def quad_halfline(f: Integrand, decay_rate: float, alpha: float,
                  degree: int) -> float | np.ndarray:
    """Integral of f over (0, inf) by the generalized Gauss-Laguerre rule in
    t = decay_rate z^2, exact when f(z) dz, written in t, is t^alpha e^-t dt
    times a polynomial of degree <= ``degree``.

    The rule has degree // 2 + 1 nodes.  ``f`` is called once, on all the
    nodes z = sqrt(t / decay_rate) as an ndarray, and returns an array of
    the values or one scalar for all of them, or an array of shape
    (..., nodes) for several integrands at once; each value is divided by
    the weight and the Jacobian 2 sqrt(decay_rate t) in log form,
    (alpha + 1/2) log t - t - lgamma(alpha + 1), so that Gamma cannot
    overflow at large alpha.  The nodes' terms are added in node order from
    0.0, so each integral of an array is bit for bit the one its integrand
    gives alone; one integrand gives a float, several an ndarray.  numpy's
    floating-point warnings are off, so an overflow gives inf as in Python
    floats.
    """
    if not (decay_rate > 0 and alpha > -1 and degree >= 0):
        raise ValueError("need decay_rate > 0, alpha > -1 and degree >= 0")
    t, u = _laguerre_rule(alpha, degree // 2 + 1)
    w = u[0] * u[0]
    with np.errstate(all="ignore"):
        fz = np.asarray(f(np.sqrt(t / decay_rate)), dtype=float)
        terms = np.broadcast_to(w * fz * np.exp(
            math.lgamma(alpha + 1) + t - (alpha + 0.5) * np.log(t)),
            fz.shape[:-1] + t.shape)
        total = functools.reduce(operator.add, np.moveaxis(terms, -1, 0), 0.0)
        total = total / (2 * math.sqrt(decay_rate))
    return float(total) if terms.ndim == 1 else total


def worst(values: Iterable) -> float:
    """The largest of numbers or ndarrays of numbers, 0.0 if there are
    none, and NaN if any is NaN (Python's max keeps its first argument when
    the other is NaN, so a NaN gap would read as no gap)."""
    return float(np.max(np.concatenate(
        [np.ravel(v) for v in values] + [np.zeros(1)])))


def max_rel_gap(pairs: Iterable[tuple]) -> float:
    """max |v - r| / max(1, |r|) over (value, reference) pairs, each a
    number or an ndarray of them; 0 if none, NaN if any gap is NaN."""
    with np.errstate(all="ignore"):
        return worst(abs(v - r) / np.maximum(1.0, abs(r)) for v, r in pairs)
