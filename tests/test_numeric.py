"""Finite-difference eigensolver, quadrature, and spectra comparison."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import FEASIBLE_TRIPLES, subprocess_env
import reference
from reference import (pochhammer, quad_interval_nodewise,
                       sturm_count_two_sided, tridiag_eigs_per_level)

from swanson.errors import NonConvergent
from swanson.jets import elementwise
from swanson import numeric
from swanson.numeric import (TridiagSystem, compare_spectra, fd_box,
                             fd_discretize, max_rel_gap, quad_halfline,
                             quad_interval, refine_extrapolate, tridiag_eigs)
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
            code = main(["spectrum", "--n-max", "0", "--grids", "20,40",
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

_SYSTEMS = {
    **{f"box{point}-{side.name}":
       (lambda side=side, point=point:
        _fd_system(side, solve_forward(*point)))
       for point in _BOX_POINTS for side in Side},
    **{f"small-gamma-{side.name}": (lambda side=side: _fd_system(
        side, solve_forward(4.0, 0.1, 0.2))) for side in Side},
    **{f"first-frozen-triple-{side.name}":
       (lambda side=side: _fd_system(
           side, solve_inverse(ModelParams(*FEASIBLE_TRIPLES[0]))[0]))
       for side in Side},
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


def _rows(sys_):
    e = sys_.off_diagonal
    return list(zip(sys_.diagonal.tolist(), sys_.weight.tolist(),
                    [0.0] + (e * e).tolist()))


class TestBisectionSettlesDecisionsFromCounts:
    """``tridiag_eigs`` counts only the midpoints the counts already made do
    not settle, and gives every level of the per-level bisection bit for
    bit."""

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

    def test_counts_fewer_than_levels_times_iterations(self, monkeypatch,
                                                       fp_star):
        # the per-level bisection counts once per level and midpoint, after
        # the same counts of the bracket search: one at lo + span for every
        # span, doubled from |lo| until the four levels lie below
        sys_ = _fd_system(Side.PLUS, fp_star)
        a, b, e = sys_.diagonal, sys_.weight, sys_.off_diagonal
        rows = list(zip(a.tolist(), b.tolist(), [0.0] + (e * e).tolist()))
        r = np.zeros(len(a))
        r[:-1] += np.abs(e)
        r[1:] += np.abs(e)
        lo = float(np.min((a - r) / b))
        span, bracket_counts = abs(lo) or 1.0, 1
        while sturm_count_two_sided(rows, lo + span) < 4:
            span, bracket_counts = 2 * span, bracket_counts + 1
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
        assert (calls["reference"] - bracket_counts) % 4 == 0
        assert calls["numeric"] < calls["reference"]


class TestNewtonZoom:
    """Newton probes on log|det| only add counts to the bisection's table,
    so the levels are the lock-step bisection's wherever Newton starts."""

    @pytest.mark.parametrize("pivot", _PIVOTS)
    def test_newton_count_is_the_count_on_the_pivot_rows(self, pivot):
        for rows in _pivot_row_sets(pivot):
            count, _ = numeric._sturm_newton(rows, 0.0)
            assert count == numeric._sturm_count(rows, 0.0)
            assert count == sturm_count_two_sided(rows, 0.0)

    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_newton_count_is_the_count_at_the_levels(self, name):
        sys_ = _SYSTEMS[name]()
        rows = _rows(sys_)
        levels = tridiag_eigs(sys_, min(8, sys_.n_points))
        shifts = [s for x in levels for s in (math.nextafter(x, -math.inf), x,
                                              math.nextafter(x, math.inf))]
        shifts += [0.5 * (x + y) for x, y in zip(levels, levels[1:])]
        for shift in shifts:
            count, _ = numeric._sturm_newton(rows, shift)
            assert count == numeric._sturm_count(rows, shift)
            assert count == sturm_count_two_sided(rows, shift)

    def test_slope_is_the_sum_over_the_levels(self):
        # d log|det(A - s B)|/ds = sum_m 1/(s - lambda_m)
        sys_ = _random_system()
        rows = _rows(sys_)
        s = 1 / np.sqrt(sys_.weight)
        e = sys_.off_diagonal
        dense = np.diag(sys_.diagonal) + np.diag(e, 1) + np.diag(e, -1)
        levels = np.linalg.eigvalsh(dense * np.outer(s, s))
        for shift in (levels[0] - 1.0, 0.3 * levels[2] + 0.7 * levels[3]):
            _, slope = numeric._sturm_newton(rows, float(shift))
            assert slope == pytest.approx(np.sum(1 / (shift - levels)),
                                          rel=1e-8)

    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    def test_guess_only_chooses_where_newton_starts(self, name):
        sys_ = _SYSTEMS[name]()
        k = min(8, sys_.n_points)
        levels = tridiag_eigs(sys_, k)
        far = [(-1e300, 1e300)[j % 2] for j in range(k)]
        for guess in (levels, levels[::-1], [math.nan] * k, [math.inf] * k,
                      [-math.inf] * k, far,
                      [x + 1e6 * (1 + abs(x)) for x in levels]):
            assert ([x.hex() for x in tridiag_eigs(sys_, k, guess)]
                    == [x.hex() for x in levels])

    def test_guess_is_not_a_run_option(self):
        from dataclasses import fields
        from swanson.cli import RunConfig, main
        assert not any("guess" in f.name for f in fields(RunConfig))
        assert main(["spectrum", "--guess", "1"]) != 0

    def test_finer_grids_start_from_the_coarser_levels(self, monkeypatch,
                                                       fp_star):
        calls = []

        def recorded(sys_, k, guess=()):
            calls.append((sys_.n_points, list(guess)))
            return tridiag_eigs(sys_, k, guess)

        monkeypatch.setattr(numeric, "tridiag_eigs", recorded)
        V = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp_star)
        refine_extrapolate(V, 3, [200, 400], 1e-3, 10.0)
        assert [n for n, _ in calls] == [100, 200, 400]
        assert calls[0][1] == []
        for n, coarse in ((100, calls[1][1]), (200, calls[2][1])):
            assert coarse == tridiag_eigs(fd_discretize(V, 1e-3, 10.0, n), 3)

    def test_default_sweep_scans_at_most_a_quarter_of_the_rows(
            self, monkeypatch, capsys):
        # every level bisected from the whole bracket scanned 1,088,000 rows
        from swanson.cli import main
        scanned = []
        for name in ("_sturm_count", "_sturm_newton"):
            def counted(rows, shift, scan=getattr(numeric, name)):
                scanned.append(len(rows))
                return scan(rows, shift)
            monkeypatch.setattr(numeric, name, counted)
        assert main(["sweep"]) == 0
        assert sum(scanned) <= 272_000


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
    def test_gaussian(self):
        got = quad_halfline(lambda z: np.exp(-z * z), 1.0)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    def test_moment_integral(self, fp_star):
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(lambda z: z ** (2 * g + 1) * np.exp(-oh * z * z),
                            oh)
        assert got == pytest.approx(math.gamma(g + 1) / (2 * oh ** (g + 1)),
                                    rel=1e-11)

    @pytest.mark.parametrize("n", range(6))
    def test_weighted_polynomial_family(self, n, fp_star):
        # diagonal of the weight-(2 gamma - 1) family has a closed form
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(
            lambda z: z ** (2 * g - 1) * np.exp(-oh * z * z)
            * kummer(n, g, oh * z * z) ** 2, oh)
        expected = (math.factorial(n) * math.gamma(g)
                    / (2 * oh ** g * pochhammer(g, n)))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_rejects_bad_decay_rate(self):
        with pytest.raises(ValueError):
            quad_halfline(lambda z: 1.0, 0.0)

    def test_non_decaying_integrand_detected(self):
        with pytest.raises(NonConvergent):
            # decay hint wildly wrong for a slowly-varying integrand
            quad_halfline(lambda z: np.sin(1e6 * z * z), 1.0)


class TestIntervalQuadrature:
    def test_reversed_interval_negates(self):
        # log rho integrates from the reference point +-1 toward x, so the
        # interval runs backwards whenever |x| < 1
        f = lambda x: 1.0 / (x * x)
        assert quad_interval(f, 2.0, 1.0, 1e-12) == pytest.approx(-0.5,
                                                                  rel=1e-13)

    def test_divergent_integral_detected(self):
        with pytest.raises(NonConvergent):
            quad_interval(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)


def _narrow_peak(z: float) -> float:
    return math.exp(-((z - 0.3) / 3e-4) ** 2)


class TestQuadratureOnNodeArrays:
    """The integrand sees the nodes of many panels at once; the sums run in
    the order of a node-by-node loop, so the result is that loop's bit for
    bit."""

    CASES = [
        (lambda z: elementwise(math.exp, -z * z),
         lambda z: math.exp(-z * z), 0.0, 6.0),
        # a narrow peak that needs 2^11 panels: blocks of 256
        (lambda z: elementwise(_narrow_peak, z), _narrow_peak, 0.0, 1.0),
        (lambda z: 1.0 / (z * z), lambda z: 1.0 / (z * z), 2.0, 1.0),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_equals_the_node_by_node_loop(self, case):
        f, scalar_f, lo, hi = self.CASES[case]
        got = quad_interval(f, lo, hi, 1e-12)
        assert got.hex() == quad_interval_nodewise(scalar_f, lo, hi,
                                                   1e-12).hex()

    def test_calls_take_blocks_of_panels(self):
        sizes = []

        def f(z):
            sizes.append(z.size)
            return elementwise(_narrow_peak, z)

        quad_interval(f, 0.0, 1.0, 1e-12)
        # one call for each pass up to 256 panels, then 256 panels a call
        assert sizes == [16 * p for p in (8, 16, 32, 64, 128, 256)] + [
            16 * 256] * (2 + 4 + 8)

    def test_error_is_the_first_failing_node(self):
        # a node-by-node loop meets the OverflowError of the second stage
        # (z > 0.2) before the ValueError of the first (z > 0.9); on the
        # whole array the first stage would fail first
        def stage1(v):
            if v > 0.9:
                raise ValueError("first stage")
            return v

        def stage2(v):
            if v > 0.2:
                raise OverflowError("second stage")
            return v

        f = lambda z: elementwise(stage2, elementwise(stage1, z))
        with pytest.raises(OverflowError, match="second stage"):
            quad_interval(f, 0.0, 1.0, 1e-12)

    def test_array_overflow_gives_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergent):
                quad_interval(lambda z: np.exp(1e3 * (z + 1.0)), 0.0, 1.0,
                              1e-12)


class TestRelativeGap:
    def test_scale_is_the_reference_or_one(self):
        assert max_rel_gap([]) == 0.0
        assert max_rel_gap([(1.5, 1.0), (0.2, 0.0)]) == 0.5
        assert max_rel_gap([(9.0, 10.0), (10.0, 9.0)]) == pytest.approx(1 / 9)


class TestSpectraComparison:
    def test_identical_lists(self):
        comp = compare_spectra([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert comp.max_rel_error == 0.0
        assert comp.unmatched_numeric_levels == []

    def test_shifted_list(self):
        comp = compare_spectra([10.0], [10.5])
        assert comp.pairs[0][2] == pytest.approx(0.5)
        assert comp.pairs[0][3] == pytest.approx(0.05)

    def test_spurious_low_level_flagged(self):
        comp = compare_spectra([10.0, 20.0], [3.0, 10.0, 20.0])
        assert comp.unmatched_numeric_levels == [3.0]

    def test_isospectral_pair(self, fp_star):
        Vm = lambda z: eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp_star)
        em, _ = refine_extrapolate(Vm, 4, [2000, 4000], 1e-3, 10.0)
        E = energies_plus(fp_star, 3)
        comp = compare_spectra(E, em)
        assert comp.max_rel_error <= 1e-6
        assert comp.unmatched_numeric_levels == []
