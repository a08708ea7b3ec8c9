"""The finite-difference oracle, the mesh oracle's independent reference:
its accuracy over the parameter box at the grids 500 and 1000 and its
independence from the closed forms.  No command runs it."""

import dataclasses
import itertools
import math

import pytest

from conftest import FEASIBLE_TRIPLES
from reference import GKPotential, gk_eigenvalues

from swanson import numeric
from swanson.jets import elementwise
from swanson.params import ModelParams, solve_forward, solve_inverse
from swanson.potentials import Form, Side, eval_potential_z
from swanson.spectrum import energies_plus

CORNERS = list(itertools.product([0.2, 1.0, 4.0], [0.1, 1.0, 3.0],
                                 [0.2, 1.0, 3.0]))


def _fp(point):
    if point in FEASIBLE_TRIPLES:
        return solve_inverse(ModelParams(*point))[0]
    return solve_forward(*point)


def _levels(fp, side, k, grids):
    return numeric.fd_levels(
        lambda z: eval_potential_z(side, Form.CANONICAL, z, fp), k, grids)


@pytest.mark.parametrize("point", CORNERS + FEASIBLE_TRIPLES)
def test_levels_over_the_box_corners_and_the_frozen_triples(point):
    # both sides against the closed-form ladder, k = 4, grids 500 and 1000
    fp = _fp(point)
    exact = energies_plus(fp, 3)
    for side in Side:
        levels, order = _levels(fp, side, 4, [500, 1000])
        assert max(abs(x - e) / e for x, e in zip(levels, exact)) <= 1e-5
        assert order >= 1.5


def test_levels_read_no_closed_form_constant():
    # gamma and omega_hat set the closed forms the oracle checks; the FD
    # levels do not change bit for bit when both are NaN
    fp = solve_forward(4.0, 0.1, 0.2)
    blind = dataclasses.replace(fp, gamma=math.nan, omega_hat=math.nan)
    for side in Side:
        want, _ = _levels(fp, side, 4, [500, 1000])
        got, _ = _levels(blind, side, 4, [500, 1000])
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_box_fits_a_potential_the_package_does_not_build():
    # the half-line oscillator A/z^2 + B z^2: levels 2 sqrt(B) (2n + gamma)
    gk = GKPotential(A=2.0, B=1.5)
    levels, order = numeric.fd_levels(
        lambda z: gk.A / (z * z) + gk.B * z * z, 4, [500, 1000])
    assert levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-6)
    assert order == pytest.approx(2.0, abs=0.1)


def _oscillator_failing_beyond(z_bad):
    # A/z^2 + B z^2, raising past z_bad as an overflowing w^2 does
    gk = GKPotential(A=2.0, B=1.5)

    def at(t):
        if t > z_bad:
            raise OverflowError(f"past {z_bad}")
        return gk.A / t**2 + gk.B * t**2

    return gk, lambda z: elementwise(at, z)


def test_the_scan_meets_only_the_errors_it_reaches():
    # the scan samples V one point at a time and stops at the first point
    # above the level, so V is never called beyond it
    gk, V = _oscillator_failing_beyond(1e3)
    levels, _ = numeric.fd_levels(V, 4, [500, 1000])
    assert levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-6)
    # the right end of the box lies past z = 2
    _, V = _oscillator_failing_beyond(2.0)
    with pytest.raises(OverflowError, match="past 2.0"):
        numeric.fd_levels(V, 4, [500, 1000])
