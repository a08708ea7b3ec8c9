"""Finite-difference eigensolver and its box, quadrature, and the relative
gaps the checks reduce with."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FEASIBLE_TRIPLES, subprocess_env
import reference
from reference import (pochhammer, sturm_count_two_sided,
                       tridiag_eigs_per_level)

from swanson import numeric
from swanson.numeric import (TridiagSystem, fd_box, fd_discretize,
                             max_rel_gap, quad_halfline, refine_extrapolate,
                             tridiag_eigs)
from swanson.params import ModelParams, solve_forward, solve_inverse
from swanson.potentials import Form, Side, eval_potential_z
from swanson.spectrum import energies_plus
from swanson.specialfn import kummer


class TestDiscretization:
    def test_matrix_structure(self):
        # a uniform mesh in t = log z; psi = e^(t/2) u gives the pencil
        # A - E B with A's diagonal 2/h^2 + 1/4 + z^2 V and B = diag(z^2)
        sys = fd_discretize(lambda z: z * z, 0.5, 2.5, 9)
        h = math.log(5.0) / 10
        assert sys.n_points == 9
        assert len(sys.off_diagonal) == 8
        assert sys.off_diagonal[0] == pytest.approx(-1 / h**2)
        z1, z9 = 0.5 * math.exp(h), 2.5 * math.exp(-h)
        assert sys.diagonal[0] == pytest.approx(2 / h**2 + 0.25 + z1**4)
        assert sys.weight[0] == pytest.approx(z1**2)
        assert sys.weight[-1] == pytest.approx(z9**2)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            fd_discretize(lambda z: z, -1.0, 2.0, 100)

    def test_rejects_non_finite_potential(self):
        with pytest.raises(FloatingPointError):
            fd_discretize(lambda z: float("nan"), 0.1, 1.0, 50)

    def test_potential_is_called_once_on_the_whole_grid(self, fp_star):
        seen = []

        def V(z):
            seen.append(z)
            return eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_star)

        sys_ = fd_discretize(V, 1e-3, 10.0, 500)
        assert len(seen) == 1
        assert isinstance(seen[0], np.ndarray) and seen[0].shape == (500,)
        assert sys_.diagonal.shape == (500,)
        seen.clear()
        refine_extrapolate(V, 2, [200, 400], 1e-3, 10.0)
        assert [len(z) for z in seen] == [100, 200, 400]

    def test_overflow_on_the_grid_is_an_exit_code_not_a_warning(self,
                                                                 capsys):
        from swanson.cli import main
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["spectrum", "--n-max", "0",
                         "--omega-bar", "1.0", "--rho-q", "100000000.0",
                         "--d", "2e+299"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numeric failure: OverflowError: ")
        assert err.count("\n") == 1
        assert caught == []

    def test_coarse_grid_is_valid(self):
        sys = fd_discretize(lambda z: z * z, 1e-3, 12.0, 10)
        assert len(tridiag_eigs(sys, 3)) == 3


class TestTridiagonalEigenvalues:
    def test_toeplitz_closed_form(self):
        from swanson.numeric import TridiagSystem
        N = 40
        sys = TridiagSystem(diagonal=np.full(N, 2.0),
                            off_diagonal=np.full(N - 1, -1.0),
                            weight=np.ones(N), n_points=N)
        got = tridiag_eigs(sys, 5)
        expected = [2 - 2 * math.cos((j + 1) * math.pi / (N + 1))
                    for j in range(5)]
        assert got == pytest.approx(expected, abs=1e-11)

    def test_diagonal_matrix(self):
        from swanson.numeric import TridiagSystem
        sys = TridiagSystem(diagonal=np.array([5.0, -2.0, 3.0, 1.0]),
                            off_diagonal=np.zeros(3), weight=np.ones(4),
                            n_points=4)
        assert tridiag_eigs(sys, 3) == pytest.approx([-2.0, 1.0, 3.0])

    def test_too_many_requested(self):
        from swanson.numeric import TridiagSystem
        sys = TridiagSystem(diagonal=np.zeros(3), off_diagonal=np.zeros(2),
                            weight=np.ones(3), n_points=3)
        with pytest.raises(ValueError):
            tridiag_eigs(sys, 4)

    def test_zero_pivot_is_counted(self):
        # the Gershgorin lower end is -1 and the span doubles 1, 2, 4, so
        # the bracket search counts at 1.0, where the leading pivot
        # d_0 - 1.0 vanishes, and the bracket is [-1, 3]
        from swanson.numeric import TridiagSystem
        sys_ = TridiagSystem(diagonal=np.ones(3), off_diagonal=np.ones(2),
                             weight=np.ones(3), n_points=3)
        expected = [1 - math.sqrt(2), 1.0, 1 + math.sqrt(2)]
        assert tridiag_eigs(sys_, 3) == pytest.approx(expected, abs=1e-12)

    def test_dense_cross_check(self):
        from swanson.numeric import TridiagSystem
        rng = np.random.default_rng(2011)
        N = 300
        d = rng.normal(size=N)
        e = rng.normal(size=N - 1)
        sys_ = TridiagSystem(diagonal=d, off_diagonal=e, weight=np.ones(N),
                             n_points=N)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        expected = np.linalg.eigvalsh(dense)[:8]
        assert tridiag_eigs(sys_, 8) == pytest.approx(expected, abs=1e-10)

    def test_pencil_dense_cross_check(self):
        # levels of A - lambda B are those of B^(-1/2) A B^(-1/2)
        rng = np.random.default_rng(2012)
        N = 200
        d = rng.normal(size=N)
        e = rng.normal(size=N - 1)
        b = rng.uniform(0.1, 10.0, size=N)
        sys_ = TridiagSystem(diagonal=d, off_diagonal=e, weight=b,
                             n_points=N)
        s = 1 / np.sqrt(b)
        dense = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) * np.outer(s, s)
        expected = np.linalg.eigvalsh(dense)[:8]
        assert tridiag_eigs(sys_, 8) == pytest.approx(expected, abs=1e-10)

    # levels of the reference FD systems on the log mesh, pinned bit for
    # bit (the per-level bisection of tests/reference.py gives the same)
    GOLDEN = {
        Side.PLUS: ["0x1.17ff100dd586cp+5", "0x1.67fa28b05792ep+5",
                    "0x1.b7ed76bd97d00p+5", "0x1.03eac112a9c12p+6"],
        Side.MINUS: ["0x1.17feb1e796e2ep+5", "0x1.67f84e86e8636p+5",
                     "0x1.b7e893fbf2f1ep+5", "0x1.03e5fda3b8f54p+6"],
    }

    @pytest.mark.parametrize("side", [Side.PLUS, Side.MINUS])
    def test_golden_levels(self, side, fp_star):
        V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp_star)
        got = tridiag_eigs(fd_discretize(V, 1e-3, 10.0, 500), 4)
        assert [x.hex() for x in got] == self.GOLDEN[side]

    def test_count_runs_over_all_rows(self):
        # a shift above every level: the count is N at once after the first
        # rows, and every row is still scanned, so a count costs the same
        # wherever its shift lies
        from swanson.numeric import _sturm_count
        rng = np.random.default_rng(7)
        d = rng.normal(size=200)
        e = rng.normal(size=199)
        rows = list(zip(d.tolist(), [1.0] * 200, [0.0] + (e * e).tolist()))
        seen = []

        def counted():
            for row in rows:
                seen.append(row)
                yield row

        levels = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1)
                                    + np.diag(e, -1))
        for shift in (levels[-1] + 1.0, 0.5 * (levels[3] + levels[4]),
                      levels[0] - 1.0):
            seen.clear()
            count = _sturm_count(counted(), float(shift))
            assert count == int(np.sum(levels < shift))
            assert len(seen) == len(rows)

    def test_cli_does_not_load_scipy(self):
        code = ("import sys\n"
                "from swanson.cli import main\n"
                "assert main(['spectrum', '--n-max', '2']) == 0\n"
                "print('scipy' in sys.modules, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip() == "False"

    def test_spectrum_does_not_depend_on_the_blas_thread_count(self):
        # the 250 levels take 360 + 270 nodes, within the one-thread cut;
        # the count is set in the child's environment only
        out = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "swanson.cli", "spectrum", "--n-max",
                 "249"], capture_output=True,
                env={**subprocess_env(), "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            out.add(proc.stdout)
        assert len(out) == 1


def _fd_system(side, fp, n_points=500):
    # the FD oracle's rows on its coarsest default grid, in its box
    V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp)
    return fd_discretize(V, *fd_box(V, 4, [500, 1000]), n_points)


def _random_system():
    rng = np.random.default_rng(2011)
    return TridiagSystem(diagonal=rng.normal(size=300),
                         off_diagonal=rng.normal(size=299),
                         weight=rng.uniform(0.5, 2.0, size=300), n_points=300)


def _split_system():
    # one zero off-diagonal splits T into two copies of the same block, so
    # every eigenvalue is double
    block_d = np.array([2.0, -1.0, 0.5, 3.0, 1.0])
    block_e = np.array([1.0, -0.5, 2.0, 0.25])
    off = np.concatenate([block_e, [0.0], block_e])
    return TridiagSystem(diagonal=np.tile(block_d, 2), off_diagonal=off,
                         weight=np.ones(10), n_points=10)


_BOX_POINTS = [(1.0, 1.0, 1.0), (0.2, 3.0, 0.2), (3.7, 0.4, 2.6)]

_FD_POINTS = {
    **{f"box{point}": (lambda point=point: solve_forward(*point))
       for point in _BOX_POINTS},
    "small-gamma": lambda: solve_forward(4.0, 0.1, 0.2),
    "first-frozen-triple":
        lambda: solve_inverse(ModelParams(*FEASIBLE_TRIPLES[0]))[0],
}

_SYSTEMS = {
    **{f"{name}-{side.name}": (lambda side=side, fp=fp: _fd_system(side, fp()))
       for name, fp in _FD_POINTS.items() for side in Side},
    "random": _random_system,
    "zero-pivot": lambda: TridiagSystem(diagonal=np.ones(3),
                                        off_diagonal=np.ones(2),
                                        weight=np.ones(3), n_points=3),
    "split": _split_system,
}


_TINY = float(np.finfo(float).tiny)

_PIVOTS = [0.0, -0.0, _TINY, -_TINY, 5e-324, -5e-324, 1e-310, -1e-305,
           math.nan]


def _pivot_row_sets(pivot):
    # the pivot as the leading one (shift 0) or a later one (e^2 = 0):
    # last, where it alone decides the count, and followed by rows that
    # read its perturbed value through e^2 / q; rows (a, b, e^2)
    for d0, rows in ((pivot, []), (1.0, [(-1.0, 0.5), (pivot, 0.0)]),
                     (pivot, [(1.0, 1.0), (0.0, 1.0), (-2.0, 0.5)]),
                     (1.0, [(pivot, 0.0), (0.0, 1.0), (1.0, 1.0)]),
                     (-1.0, [(pivot, 0.0), (0.5, 2.0)]),
                     (pivot, [(-1e303, 1e-3)]),
                     (1.0, [(pivot, 0.0), (-1e303, 1e-3)])):
        yield [(d0, 1.0, 0.0)] + [(a, 1.0, e2) for a, e2 in rows]


class TestBisectionSettlesDecisionsFromCounts:
    """Each level of ``tridiag_eigs`` settles its midpoint with the
    one-comparison ``_sturm_count``, and every level is the per-level
    bisection's (two-sided pivot test) bit for bit."""

    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_levels_equal_the_per_level_bisection(self, name):
        sys_ = _SYSTEMS[name]()
        k = min(8, sys_.n_points)
        assert ([x.hex() for x in tridiag_eigs(sys_, k)]
                == [x.hex() for x in tridiag_eigs_per_level(sys_, k)])

    def test_split_system_has_double_levels(self):
        got = tridiag_eigs(_split_system(), 6)
        assert got[0::2] == got[1::2]

    @pytest.mark.parametrize("pivot", _PIVOTS)
    def test_one_compare_pivot_test_counts_as_the_two_sided_one(self, pivot):
        for rows in _pivot_row_sets(pivot):
            assert (numeric._sturm_count(rows, 0.0)
                    == sturm_count_two_sided(rows, 0.0))

    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_count_is_the_two_sided_count_at_the_levels(self, name):
        # at each level, one float to either side of it, and between two
        # distinct levels, where the count is the number of levels below
        sys_ = _SYSTEMS[name]()
        e = sys_.off_diagonal
        rows = list(zip(sys_.diagonal.tolist(), sys_.weight.tolist(),
                        [0.0] + (e * e).tolist()))
        levels = tridiag_eigs(sys_, min(8, sys_.n_points))
        for x in levels:
            for shift in (math.nextafter(x, -math.inf), x,
                          math.nextafter(x, math.inf)):
                assert (numeric._sturm_count(rows, shift)
                        == sturm_count_two_sided(rows, shift))
        for j, (x, y) in enumerate(zip(levels, levels[1:])):
            if y - x > 1e-10 * (1 + abs(x)):
                assert numeric._sturm_count(rows, 0.5 * (x + y)) == j + 1

    def test_counts_once_per_level_and_midpoint(self, monkeypatch, fp_star):
        # the bracket search, then one count per level and midpoint: as
        # many counts as the per-level bisection makes
        sys_ = _fd_system(Side.PLUS, fp_star)
        calls = {"numeric": 0, "reference": 0}

        def counting(name, count):
            def wrapped(*args):
                calls[name] += 1
                return count(*args)
            return wrapped

        monkeypatch.setattr(numeric, "_sturm_count",
                            counting("numeric", numeric._sturm_count))
        monkeypatch.setattr(reference, "sturm_count_two_sided",
                            counting("reference",
                                     reference.sturm_count_two_sided))
        assert tridiag_eigs(sys_, 4) == tridiag_eigs_per_level(sys_, 4)
        assert calls["numeric"] == calls["reference"] > 4


class TestFdBox:
    # (z_min, z_max) at the points of the FD systems, pinned bit for bit:
    # z_min = 1e-7 z_v and z_max a point 2^j z_v of the upward scan of V
    BOXES = {
        "box(1.0, 1.0, 1.0)": {
            Side.PLUS: ("0x1.ad7f29abcaf48p-24", "0x1.0000000000000p+3"),
            Side.MINUS: ("0x1.ad7f29abcaf48p-24", "0x1.0000000000000p+3")},
        "box(0.2, 3.0, 0.2)": {
            Side.PLUS: ("0x1.ad7f29abcaf48p-22", "0x1.0000000000000p+5"),
            Side.MINUS: ("0x1.ad7f29abcaf48p-22", "0x1.0000000000000p+5")},
        "box(3.7, 0.4, 2.6)": {
            Side.PLUS: ("0x1.ad7f29abcaf48p-27", "0x1.0000000000000p+2"),
            Side.MINUS: ("0x1.ad7f29abcaf48p-26", "0x1.0000000000000p+2")},
        "small-gamma": {
            Side.PLUS: ("0x1.ad7f29abcaf48p-25", "0x1.0000000000000p+4"),
            Side.MINUS: ("0x1.ad7f29abcaf48p-24", "0x1.0000000000000p+4")},
        "first-frozen-triple": {
            Side.PLUS: ("0x1.ad7f29abcaf48p-26", "0x1.0000000000000p+3"),
            Side.MINUS: ("0x1.ad7f29abcaf48p-25", "0x1.0000000000000p+3")},
    }

    @pytest.mark.parametrize("side", [Side.PLUS, Side.MINUS])
    @pytest.mark.parametrize("name", sorted(_FD_POINTS))
    def test_box_is_pinned(self, name, side):
        fp = _FD_POINTS[name]()
        V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp)
        assert (tuple(x.hex() for x in fd_box(V, 4, [500, 1000]))
                == self.BOXES[name][side])


class TestScansOfV:
    """``_well`` and ``_first_above``, the scans of V the FD oracle reads
    its box from; the mesh reads its z_v from ``_well``."""

    @pytest.mark.parametrize("side", [Side.PLUS, Side.MINUS])
    @pytest.mark.parametrize("name", sorted(_FD_POINTS))
    def test_well_is_a_least_sample(self, name, side):
        fp = _FD_POINTS[name]()
        V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp)
        z_v, v_min = numeric._well(V)
        assert math.frexp(z_v)[0] == 0.5
        assert v_min == V(z_v) > 0
        assert V(0.5 * z_v) >= v_min and V(2.0 * z_v) >= v_min

    @pytest.mark.parametrize("side", [Side.PLUS, Side.MINUS])
    @pytest.mark.parametrize("name", sorted(_FD_POINTS))
    def test_first_above_is_the_first_sample_over_the_level(self, name,
                                                            side):
        # the level of the FD box's coarse solve, and a lower one
        fp = _FD_POINTS[name]()
        V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp)
        z_v, v_min = numeric._well(V)
        for level in (64 * v_min, 16 * 3 * v_min):
            z = numeric._first_above(V, z_v, level)
            assert z > z_v and math.frexp(z / z_v)[0] == 0.5
            assert V(z) > level
            below = 2.0 * z_v
            while below < z:
                assert V(below) <= level
                below *= 2.0


class TestRichardsonRefinement:
    def test_halfline_harmonic_levels(self):
        # Dirichlet at (nearly) 0 keeps only the odd levels of the
        # oscillator; the wall must sit essentially at the origin because
        # these eigenfunctions have nonzero slope there
        extrap, order = refine_extrapolate(lambda z: z * z, 3, [2000, 4000],
                                           1e-8, 12.0)
        assert extrap == pytest.approx([3.0, 7.0, 11.0], abs=1e-6)
        assert abs(extrap[0] - 3.0) <= 1e-7
        assert order == pytest.approx(2.0, abs=0.2)

    def test_wall_placement_shifts_slope_states(self):
        # moving the wall to a > 0 raises each level by phi'(0)^2 * a; for
        # the first odd oscillator state that slope squared is 4/sqrt(pi)
        extrap, _ = refine_extrapolate(lambda z: z * z, 1, [2000, 4000],
                                       1e-3, 12.0)
        shift = extrap[0] - 3.0
        assert shift == pytest.approx(4 / math.sqrt(math.pi) * 1e-3, rel=1e-2)

    def test_single_grid_rejected(self):
        with pytest.raises(ValueError):
            refine_extrapolate(lambda z: z * z, 2, [2000], 1e-3, 12.0)

    def test_non_doubling_grids_rejected(self):
        with pytest.raises(ValueError):
            refine_extrapolate(lambda z: z * z, 2, [2000, 3000], 1e-3, 12.0)

    def test_reference_spectrum(self, fp_star):
        V = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_star)
        extrap, order = refine_extrapolate(V, 4, [2000, 4000], 1e-3, 10.0)
        E = energies_plus(fp_star, 3)
        for got, want in zip(extrap, E):
            assert abs(got - want) <= 1e-6 * want
        assert order == pytest.approx(2.0, abs=0.2)

    def test_truncation_robustness(self, fp_star):
        # moving the inner wall inward barely moves the extrapolated levels
        V = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_star)
        a, _ = refine_extrapolate(V, 2, [2000, 4000], 1e-3, 10.0)
        b, _ = refine_extrapolate(V, 2, [2000, 4000], 1e-4, 10.0)
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-7 * abs(x)


class TestHalflineQuadrature:
    """Generalized Gauss-Laguerre in t = decay_rate z^2."""

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 100.5])
    @pytest.mark.parametrize("n", [1, 2, 6, 11, 21])
    def test_nodes_and_weights_match_scipy(self, alpha, n):
        from scipy.special import roots_genlaguerre
        t, u = numeric._laguerre_rule(alpha, n)
        w = u[0] ** 2
        ts, ws = roots_genlaguerre(n, alpha)
        assert np.allclose(t, ts, rtol=1e-12, atol=0)
        # scipy's weights belong to t^alpha e^-t, the rule's to that over
        # Gamma(alpha + 1); the smallest are 1e-31 here
        assert np.allclose(w, ws / math.gamma(alpha + 1), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 100.5])
    @pytest.mark.parametrize("degree", [0, 1, 6, 11, 40])
    @pytest.mark.parametrize("decay_rate", [1.0, 1e-6, 3e5])
    def test_moments_are_exact_to_the_degree(self, alpha, degree,
                                             decay_rate):
        # t^k t^alpha e^-t dt / Gamma(alpha + 1) is f(z) dz with
        # t = decay_rate z^2, f = 2 decay_rate z t^(alpha+k) e^-t / Gamma
        def f(z):
            t = decay_rate * z * z
            return 2 * decay_rate * z * np.exp(
                (alpha + k) * np.log(t) - t - math.lgamma(alpha + 1))

        for k in range(degree + 1):
            want = math.exp(math.lgamma(alpha + k + 1)
                            - math.lgamma(alpha + 1))
            assert quad_halfline(f, decay_rate, alpha, degree) \
                == pytest.approx(want, rel=1e-12)

    def test_integrand_sees_all_nodes_in_one_call(self):
        sizes = []

        def f(z):
            sizes.append(z.shape)
            return np.exp(-z * z)

        quad_halfline(f, 1.0, -0.5, 9)
        assert sizes == [(5,)]

    @staticmethod
    def _node_order_loop(f, decay_rate, alpha, degree):
        """The rule with its terms added one node at a time, from 0.0."""
        t, u = numeric._laguerre_rule(alpha, degree // 2 + 1)
        w = u[0] * u[0]
        fz = np.broadcast_to(f(np.sqrt(t / decay_rate)), t.shape)
        terms = w * fz * np.exp(math.lgamma(alpha + 1) + t
                                - (alpha + 0.5) * np.log(t))
        total = 0.0
        for term in terms.tolist():
            total += term
        return total / (2 * math.sqrt(decay_rate))

    @pytest.mark.parametrize("decay_rate, alpha, degree", [
        (1.0, -0.5, 0), (0.37, 1.5, 10), (3e5, 100.5, 40)])
    def test_one_integrand_is_the_node_order_loop(self, decay_rate, alpha,
                                                  degree):
        for f in (lambda z: np.exp(-z * z) * (1 - z), lambda z: -2.5,
                  lambda z: np.zeros_like(z)):
            got = quad_halfline(f, decay_rate, alpha, degree)
            assert type(got) is float
            assert got.hex() == self._node_order_loop(
                f, decay_rate, alpha, degree).hex()

    def test_an_array_of_integrands_is_each_one_alone(self):
        # shape (..., nodes): one call, each integral bit for bit its own
        fs = [[lambda z, k=k, j=j: z ** k * np.cos(j * z) for j in range(3)]
              for k in range(2)]
        calls = []

        def stacked(z):
            calls.append(z.shape)
            return np.array([[f(z) for f in row] for row in fs])

        got = quad_halfline(stacked, 0.8, 0.5, 12)
        assert calls == [(7,)] and got.shape == (2, 3)
        assert [[v.hex() for v in row] for row in got.tolist()] == [
            [quad_halfline(f, 0.8, 0.5, 12).hex() for f in row]
            for row in fs]

    def test_gaussian(self):
        got = quad_halfline(lambda z: np.exp(-z * z), 1.0, -0.5, 0)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    def test_moment_integral(self, fp_star):
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(lambda z: z ** (2 * g + 1) * np.exp(-oh * z * z),
                            oh, g, 0)
        assert got == pytest.approx(math.gamma(g + 1) / (2 * oh ** (g + 1)),
                                    rel=1e-11)

    @pytest.mark.parametrize("n", range(6))
    def test_weighted_polynomial_family(self, n, fp_star):
        # diagonal of the weight-(2 gamma - 1) family has a closed form
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(
            lambda z: z ** (2 * g - 1) * np.exp(-oh * z * z)
            * kummer(n, g, oh * z * z) ** 2, oh, g - 1, 2 * n)
        expected = (math.factorial(n) * math.gamma(g)
                    / (2 * oh ** g * pochhammer(g, n)))
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("decay_rate, alpha, degree", [
        (0.0, 0.5, 2), (-1.0, 0.5, 2), (math.nan, 0.5, 2), (1.0, -1.0, 2),
        (1.0, -2.5, 2), (1.0, math.nan, 2), (1.0, 0.5, -1)])
    def test_rejects_bad_arguments(self, decay_rate, alpha, degree):
        with pytest.raises(ValueError):
            quad_halfline(lambda z: 1.0, decay_rate, alpha, degree)


class TestRelativeGap:
    def test_scale_is_the_reference_or_one(self):
        assert max_rel_gap([]) == 0.0
        assert max_rel_gap([(1.5, 1.0), (0.2, 0.0)]) == 0.5
        assert max_rel_gap([(9.0, 10.0), (10.0, 9.0)]) == pytest.approx(1 / 9)

    def test_a_nan_gap_makes_the_gap_nan(self):
        # Python's max keeps its first argument when the other is NaN, so
        # a loop of max(worst, gap) read these as no gap at all
        assert math.isnan(max_rel_gap([(math.nan, 1.0)]))
        assert math.isnan(max_rel_gap([(1.0, 1.0), (2.0, math.nan),
                                       (5.0, 1.0)]))
        assert math.isnan(max_rel_gap([(np.array([1.0, math.nan, 3.0]),
                                        np.ones(3))]))

    def test_arrays_and_numbers_reduce_together(self):
        assert max_rel_gap([(np.array([1.5, 1.0]), 1.0),
                            (0.2, np.zeros(2))]) == 0.5

    def test_worst_is_zero_when_empty_and_nan_when_any_is(self):
        assert numeric.worst([]) == 0.0
        assert numeric.worst([0.5, np.array([0.25, 2.0])]) == 2.0
        assert math.isnan(numeric.worst([np.array([1.0, math.nan]), 5.0]))
        assert math.isnan(numeric.worst([5.0, math.nan, 1.0]))
