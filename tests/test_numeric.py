"""Finite-difference eigensolver, quadrature, and spectra comparison."""

import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from reference import pochhammer

from swanson.errors import NonConvergent
from swanson.numeric import (compare_spectra, fd_discretize, max_rel_gap,
                             quad_halfline, quad_interval, refine_extrapolate,
                             tridiag_eigs)
from swanson.potentials import Form, Side, eval_potential_z
from swanson.spectrum import energies_plus
from swanson.specialfn import kummer


class TestDiscretization:
    def test_matrix_structure(self):
        sys = fd_discretize(lambda z: z * z, 0.5, 2.5, 9)
        h = 2.0 / 10
        assert sys.n_points == 9
        assert len(sys.off_diagonal) == 8
        assert sys.off_diagonal[0] == pytest.approx(-1 / h**2)
        z1 = 0.5 + h
        assert sys.diagonal[0] == pytest.approx(2 / h**2 + z1**2)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            fd_discretize(lambda z: z, -1.0, 2.0, 100)

    def test_rejects_non_finite_potential(self):
        with pytest.raises(ValueError):
            fd_discretize(lambda z: float("nan"), 0.1, 1.0, 50)

    def test_coarse_grid_is_valid(self):
        sys = fd_discretize(lambda z: z * z, 1e-3, 12.0, 10)
        assert len(tridiag_eigs(sys, 3)) == 3


class TestTridiagonalEigenvalues:
    def test_toeplitz_closed_form(self):
        from swanson.numeric import TridiagSystem
        N = 40
        sys = TridiagSystem(diagonal=np.full(N, 2.0),
                            off_diagonal=np.full(N - 1, -1.0), n_points=N)
        got = tridiag_eigs(sys, 5)
        expected = [2 - 2 * math.cos((j + 1) * math.pi / (N + 1))
                    for j in range(5)]
        assert got == pytest.approx(expected, abs=1e-11)

    def test_diagonal_matrix(self):
        from swanson.numeric import TridiagSystem
        sys = TridiagSystem(diagonal=np.array([5.0, -2.0, 3.0, 1.0]),
                            off_diagonal=np.zeros(3), n_points=4)
        assert tridiag_eigs(sys, 3) == pytest.approx([-2.0, 1.0, 3.0])

    def test_too_many_requested(self):
        from swanson.numeric import TridiagSystem
        sys = TridiagSystem(diagonal=np.zeros(3), off_diagonal=np.zeros(2),
                            n_points=3)
        with pytest.raises(ValueError):
            tridiag_eigs(sys, 4)

    def test_zero_pivot_is_counted(self):
        # the Gershgorin bracket is [-1, 3], so the first midpoint is exactly
        # 1.0 and the leading pivot d_0 - 1.0 vanishes
        from swanson.numeric import TridiagSystem
        sys_ = TridiagSystem(diagonal=np.ones(3), off_diagonal=np.ones(2),
                             n_points=3)
        expected = [1 - math.sqrt(2), 1.0, 1 + math.sqrt(2)]
        assert tridiag_eigs(sys_, 3) == pytest.approx(expected, abs=1e-12)

    def test_dense_cross_check(self):
        from swanson.numeric import TridiagSystem
        rng = np.random.default_rng(2011)
        N = 300
        d = rng.normal(size=N)
        e = rng.normal(size=N - 1)
        sys_ = TridiagSystem(diagonal=d, off_diagonal=e, n_points=N)
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        expected = np.linalg.eigvalsh(dense)[:8]
        assert tridiag_eigs(sys_, 8) == pytest.approx(expected, abs=1e-10)

    # levels of the reference FD systems, bit for bit as computed by the
    # vectorized Sturm count the scalar one replaced
    GOLDEN = {
        Side.PLUS: ["0x1.17fdfb80284f9p+5", "0x1.67f7c77b0ebc2p+5",
                    "0x1.b7ec799c7490bp+5", "0x1.03ee08b22b1d4p+6"],
        Side.MINUS: ["0x1.17fe567ace298p+5", "0x1.67f8a325bfe98p+5",
                     "0x1.b7eddcc7f129cp+5", "0x1.03eeff6d416dap+6"],
    }

    @pytest.mark.parametrize("side", [Side.PLUS, Side.MINUS])
    def test_golden_levels(self, side, fp_star):
        V = lambda z: eval_potential_z(side, Form.CANONICAL, z, fp_star)
        got = tridiag_eigs(fd_discretize(V, 1e-3, 10.0, 500), 4)
        assert [x.hex() for x in got] == self.GOLDEN[side]

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
        got = quad_halfline(lambda z: math.exp(-z * z), 1.0)
        assert got == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12)

    def test_moment_integral(self, fp_star):
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(lambda z: z ** (2 * g + 1) * math.exp(-oh * z * z),
                            oh)
        assert got == pytest.approx(math.gamma(g + 1) / (2 * oh ** (g + 1)),
                                    rel=1e-11)

    @pytest.mark.parametrize("n", range(6))
    def test_weighted_polynomial_family(self, n, fp_star):
        # diagonal of the weight-(2 gamma - 1) family has a closed form
        g, oh = fp_star.gamma, fp_star.omega_hat
        got = quad_halfline(
            lambda z: z ** (2 * g - 1) * math.exp(-oh * z * z)
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
            quad_halfline(lambda z: math.sin(1e6 * z * z), 1.0)


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
