"""The one spectral oracle of the commands, the Lagrange-Laguerre mesh: its
accuracy over the parameter box against the closed forms and against the FD
reference, its independence from the closed forms, its error gate, its
errors, the one-BLAS-thread limit of its small solves, and that
``spectrum``, ``sweep`` and ``verify`` share it."""

import csv
import dataclasses
import io
import itertools
import json
import math
import sys
import threading

import numpy as np
import pytest

from conftest import FEASIBLE_TRIPLES
from corpus import GRID_OMEGA_HAT, GRID_R
from reference import GKPotential, gk_eigenvalues

from swanson import numeric, verify
from swanson.cli import main
from swanson.errors import NonConvergent
from swanson.jets import elementwise
from swanson.params import ModelParams, solve_forward, solve_inverse
from swanson.potentials import Form, Side, eval_potential_z
from swanson.spectrum import energies_plus

CORNERS = list(itertools.product([0.2, 1.0, 4.0], [0.1, 1.0, 3.0],
                                 [0.2, 1.0, 3.0]))
# the FD oracle's worst relative error at k = 4 over the corners and the
# frozen triples, both sides: the bound the mesh must meet
FD_WORST = 1.6e-6


def _fp(point):
    if point in FEASIBLE_TRIPLES:
        return solve_inverse(ModelParams(*point))[0]
    return solve_forward(*point)


def _potential(fp, side):
    return lambda z: eval_potential_z(side, Form.CANONICAL, z, fp)


def _rel(levels, exact):
    return max(abs(x - e) / abs(e) for x, e in zip(levels, exact))


@pytest.mark.parametrize("point", CORNERS + FEASIBLE_TRIPLES)
def test_levels_over_the_box_corners_and_the_frozen_triples(point):
    # both sides against the closed-form ladder and the FD reference, k = 4
    fp = _fp(point)
    exact = energies_plus(fp, 3)
    for side in Side:
        V = _potential(fp, side)
        levels, error = numeric.mesh_levels(V, 4)
        assert _rel(levels, exact) <= FD_WORST
        assert error <= 1e-5
        fd, _ = numeric.fd_levels(V, 4, [500, 1000])
        assert _rel(levels, fd) <= 2 * FD_WORST


def test_levels_read_no_closed_form_constant():
    # gamma and omega_hat set the closed forms the oracle checks; the mesh
    # levels do not change bit for bit when both are NaN
    fp = solve_forward(4.0, 0.1, 0.2)
    blind = dataclasses.replace(fp, gamma=math.nan, omega_hat=math.nan)
    for side in Side:
        want, _ = numeric.mesh_levels(_potential(fp, side), 4)
        got, _ = numeric.mesh_levels(_potential(blind, side), 4)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_repeated_solves_are_bit_identical():
    V = _potential(solve_forward(0.2, 0.1, 0.2), Side.PLUS)
    runs = {tuple(x.hex() for x in numeric.mesh_levels(V, 4)[0])
            for _ in range(20)}
    assert len(runs) == 1


def test_a_potential_the_package_does_not_build():
    # the half-line oscillator A/z^2 + B z^2: levels 2 sqrt(B) (2n + gamma)
    gk = GKPotential(A=2.0, B=1.5)
    levels, error = numeric.mesh_levels(
        lambda z: gk.A / (z * z) + gk.B * z * z, 4)
    assert levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-12)
    assert error <= 1e-12


@pytest.mark.parametrize("k", [20, 40])
def test_high_levels_and_their_error_estimate(k):
    # the half mesh holds six nodes per level and 30 more, so the observed
    # error stays honest: with N = 6k its top levels are off by up to 50 %
    fp = solve_forward(1.0, 1.0, 1.0)
    for side in Side:
        levels, error = numeric.mesh_levels(_potential(fp, side), k)
        assert _rel(levels, energies_plus(fp, k - 1)) <= 1e-9
        assert error <= 1e-6
    assert numeric.mesh_size(k) == 12 * k + 60
    assert numeric.mesh_size(5) == 120


@pytest.mark.parametrize("d", [0.2, 1.0, 3.0])
def test_no_spurious_refusal_at_the_narrowest_corners(d):
    # at omega_bar = 0.2, rho_q = 3 (r about 6.7) a half mesh of six nodes
    # per level alone differed from the full mesh by up to 0.16 at these k,
    # and the gate refused 48 solves whose levels are right
    fp = solve_forward(0.2, 3.0, d)
    exact = energies_plus(fp, 39)
    for k, side in itertools.product([*range(9, 20), *range(35, 41)], Side):
        levels, error = numeric.mesh_levels(_potential(fp, side), k)
        assert _rel(levels, exact) <= 1e-6
        assert error <= numeric.MESH_GATE


def test_the_potential_is_read_in_two_calls_the_window_and_both_meshes():
    # every point the scans visit at a box point lies in the window, so V is
    # called twice: on the window 2^-16 .. 2^16, then on the 120 nodes and
    # the 60 of the half mesh at once, both topped at the same node
    fp = solve_forward(1.0, 1.0, 1.0)
    calls = []

    def V(z):
        calls.append(z)
        return eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)

    numeric.mesh_levels(V, 3)
    assert [np.shape(z) for z in calls] == [(2 * numeric._WINDOW + 1,),
                                            (120 + 60,)]
    assert calls[0].tolist() == [2.0**j for j in range(-16, 17)]
    assert calls[1][119] == calls[1][-1]


def _oscillator_with(bad):
    # A/z^2 + B z^2, with the value at one mesh node replaced: the middle
    # one of the 120 + 60 nodes that mesh_levels(V, 4) samples at once
    gk = GKPotential(A=2.0, B=1.5)

    def V(z):
        v = gk.A / (z * z) + gk.B * z * z
        if np.shape(z) == (180,):
            v[len(v) // 2] = bad
        return v

    return V


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_sample_is_a_floating_point_error(bad):
    # not numpy's LinAlgError from inside eigvalsh
    with pytest.raises(FloatingPointError, match="non-finite potential"):
        numeric.mesh_levels(_oscillator_with(bad), 4)


def test_the_scan_meets_only_the_errors_it_reaches():
    # the scan samples V one point at a time and the mesh ends at its top
    # node, so V is never called beyond the first point above the level
    gk = GKPotential(A=2.0, B=1.5)

    def V_failing_beyond(z_bad):
        def at(t):
            if t > z_bad:
                raise OverflowError(f"past {z_bad}")
            return gk.A / t**2 + gk.B * t**2

        return lambda z: elementwise(at, z)

    levels, _ = numeric.mesh_levels(V_failing_beyond(1e3), 4)
    assert levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-12)
    with pytest.raises(OverflowError, match="past 2.0"):
        numeric.mesh_levels(V_failing_beyond(2.0), 4)


# verify --n-max 2 on the r x omega_hat grid of tests/corpus.py
GRID = [(1.0, r, oh / (1.5 + r)) for r in GRID_R for oh in GRID_OMEGA_HAT]


def _scan_and_levels(V, k):
    """float.hex of z_v, v_min, z_top, the levels and their observed error,
    or the error met on the way."""
    try:
        scan = numeric._scanned(V)
        z_v, v_min = numeric._well(scan)
        z_top = numeric._first_above(scan, z_v, 16 * k * v_min)
        levels, error = numeric.mesh_levels(V, k)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [x.hex() for x in (z_v, v_min, z_top, *levels, error)]


@pytest.mark.parametrize("point, k", [(p, 4) for p in CORNERS
                                      + FEASIBLE_TRIPLES]
                         + [(p, 3) for p in GRID])
def test_the_window_gives_the_one_point_scan_bit_for_bit(point, k,
                                                         monkeypatch):
    fp = _fp(point)
    sampled = [_scan_and_levels(_potential(fp, side), k) for side in Side]
    monkeypatch.setattr(numeric, "_scanned", lambda V: V)
    assert [_scan_and_levels(_potential(fp, side), k)
            for side in Side] == sampled


def test_a_window_point_the_scan_never_reaches_may_raise():
    # the window call raises at 2^16, beyond the top node near z = 4; the
    # scans then read V one point at a time, and the levels are the same
    gk = GKPotential(A=2.0, B=1.5)

    def at(t):
        return gk.A / t**2 + gk.B * t**2

    def raising_at_the_window_top(t):
        if t == 2.0**numeric._WINDOW:
            raise OverflowError("at the window's top")
        return at(t)

    calls = []

    def V(z):
        calls.append(np.shape(z))
        return elementwise(raising_at_the_window_top, z)

    levels, error = numeric.mesh_levels(V, 4)
    want, want_error = numeric.mesh_levels(lambda z: elementwise(at, z), 4)
    assert [x.hex() for x in levels + [error]] == [
        x.hex() for x in want + [want_error]]
    assert calls[0] == (2 * numeric._WINDOW + 1,)
    assert calls[1:-1] and set(calls[1:-1]) == {()}
    assert calls[-1] == (180,)


@pytest.mark.parametrize("k", [0, numeric.MESH_MAX_LEVELS + 1])
def test_levels_out_of_range_are_refused_before_v_is_read(k):
    def V(z):
        raise AssertionError("V was sampled")

    with pytest.raises(ValueError, match="1 to 250 levels"):
        numeric.mesh_levels(V, k)


EXTREME = solve_forward(6.68e-34, 6.77e-52, 3.21e-121)


def test_the_error_gate_refuses_a_mesh_that_misses_the_well():
    # at the extreme point the plus mesh is 1e16 times the closed-form
    # level, and the half mesh differs from it by 7 %
    with pytest.raises(NonConvergent, match=r"120-node mesh's levels differ "
                       r"from the 60-node mesh's by 0\.07\d*, above 0\.025"):
        numeric.mesh_levels(_potential(EXTREME, Side.PLUS), 3)
    levels, error = numeric.mesh_levels(_potential(EXTREME, Side.MINUS), 3)
    assert _rel(levels, energies_plus(EXTREME, 2)) <= 1e-12
    assert error <= 1e-12


POINT = ["--omega-bar", "1.7", "--rho-q", "0.8", "--d", "2.2"]


def _run(argv, capsys):
    assert main(argv + POINT) in (0, 3)
    return capsys.readouterr().out


def test_spectrum_sweep_and_verify_share_the_plus_levels(capsys):
    spectrum = json.loads(_run(["spectrum", "--n-max", "2"], capsys))
    rows = list(csv.DictReader(io.StringIO(_run(
        ["sweep", "--param", "d", "--range", "2.2:2.2", "--steps", "1"],
        capsys))))
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    plus = [row["E_numeric_plus"] for row in spectrum]
    assert plus == [rows[0][f"E{n}_numeric"] for n in range(3)]
    # verify's row is the relative error of the same three levels, and each
    # side's row notes the mesh size and that side's observed error
    doc = json.loads(_run(["verify", "--n-max", "2"], capsys))
    by_id = {e["id"]: e for e in doc["identities"]}
    residual = max(abs(float(row["E_numeric_plus"]) - float(row["E_analytic"]))
                   / abs(float(row["E_analytic"])) for row in spectrum)
    assert by_id["fd_spectrum_plus"]["residual"] == verify.fmt(residual)
    fp = solve_forward(1.7, 0.8, 2.2)
    for name, side in (("fd_spectrum_plus", Side.PLUS),
                       ("isospectrality", Side.MINUS)):
        _, error = numeric.mesh_levels(_potential(fp, side), 3)
        assert by_id[name]["note"] == ("mesh of 120 nodes, observed error "
                                       + verify.fmt(error))


def test_the_extreme_spectrum_is_a_non_convergence(capsys):
    assert main(["spectrum", "--omega-bar", "6.68e-34", "--rho-q",
                 "6.77e-52", "--d", "3.21e-121"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric non-convergence: the 120-node "
                                   "mesh's levels differ")
    assert captured.err.count("\n") == 1


@pytest.fixture
def blas_threads():
    # the OpenBLAS thread count getter, with the count set to 2 for the test
    found = numeric._blas_threads()
    if found is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = found
    before = get()
    put(2)
    yield get
    put(before)


@pytest.mark.parametrize("k, threads", [(4, {120: 1, 60: 1}),
                                        (25, {360: 1, 180: 1}),
                                        (26, {372: 2, 186: 1})])
def test_solves_up_to_the_cut_run_on_one_blas_thread(k, threads, blas_threads,
                                                     monkeypatch):
    # (rows, count) of each size's node solve and mesh solve; above 360 rows
    # numpy's count stands, and after the solve it is the count from before
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append((len(a), blas_threads()))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    numeric._laguerre_mesh.cache_clear()
    numeric.mesh_levels(_potential(solve_forward(1.0, 1.0, 1.0), Side.PLUS),
                        k)
    # the nodes of both sizes first, then the two solves
    assert seen == list(threads.items()) * 2
    assert blas_threads() == 2


def test_the_count_is_restored_after_an_error(blas_threads):
    with pytest.raises(np.linalg.LinAlgError):
        with numeric._one_blas_thread(120):
            assert blas_threads() == 1
            raise np.linalg.LinAlgError("inside the limit")
    assert blas_threads() == 2


def test_small_levels_do_not_depend_on_the_limit(blas_threads, monkeypatch):
    # the same bits on one thread and on two, at the 27 corners, k <= 4;
    # with the lookup patched to None the solves run as numpy sets them up
    def levels():
        numeric._laguerre_mesh.cache_clear()
        return [x.hex() for point, side, k in itertools.product(
                    CORNERS, Side, range(1, 5))
                for x in numeric.mesh_levels(
                    _potential(solve_forward(*point), side), k)[0]]

    limited = levels()
    monkeypatch.setattr(numeric, "_blas_threads", lambda: None)
    assert levels() == limited


def test_threads_sharing_the_limit_restore_the_count(blas_threads):
    # more threads than cores enter and leave the limit with a short switch
    # interval; inside it the count is 1, and the last to leave restores 2
    inside = set()
    matrix = np.diag(np.arange(1.0, 121.0))

    def solve():
        for _ in range(200):
            with numeric._one_blas_thread(120):
                inside.add(blas_threads())
                np.linalg.eigvalsh(matrix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert inside == {1}
    assert blas_threads() == 2
