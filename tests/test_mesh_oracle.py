"""The one spectral oracle of the commands, the Galerkin mesh in t = s z^2:
its exactness on the radial oscillator, its reading of V's asymptotes, its
accuracy over the parameter box against the closed forms and against the FD
reference, its independence from the closed forms, its error gate, its
errors, the one-BLAS-thread limit of its solves, and that ``spectrum``,
``sweep`` and ``verify`` share it."""

import csv
import dataclasses
import io
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from conftest import FEASIBLE_TRIPLES
from corpus import GRID_OMEGA_HAT, GRID_R
from reference import GKPotential, gk_eigenvalues

from swanson import numeric, verify
from swanson.cli import main
from swanson.errors import DomainError, NonConvergent
from swanson.jets import elementwise
from swanson.params import ModelParams, solve_forward, solve_inverse
from swanson.potentials import Form, Side, eval_potential_z
from swanson.spectrum import energies_plus

CORNERS = list(itertools.product([0.2, 1.0, 4.0], [0.1, 1.0, 3.0],
                                 [0.2, 1.0, 3.0]))
# the FD oracle's worst relative error at k = 4 over the corners and the
# frozen triples, both sides: the mesh must agree with FD within twice it
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
    # both sides against the closed-form ladder at k = 4 and k = 40, and
    # against the FD reference at k = 4
    fp = _fp(point)
    exact = energies_plus(fp, 39)
    for side in Side:
        V = _potential(fp, side)
        for k in (40, 4):
            solved = numeric.mesh_levels(V, k)
            assert _rel(solved.levels, exact) <= 1e-10
            assert solved.error <= 1e-5
        fd, _ = numeric.fd_levels(V, 4, [500, 1000])
        assert _rel(solved.levels, fd) <= 2 * FD_WORST


@pytest.mark.parametrize("k", [1, 4, 250])
@pytest.mark.parametrize("s", [1e-100, 1.0, 1e100])
@pytest.mark.parametrize("ell", [0.0, 0.5, 7.3, 1000.0])
def test_exact_on_the_radial_oscillator(ell, s, k):
    # -d^2/dz^2 + l(l + 1) / z^2 + s^2 z^2 has the levels s (4n + 2l + 3),
    # the mesh's own basis, at any size
    c = ell * (ell + 1)
    solved = numeric.mesh_levels(lambda z: c / (z * z) + s * s * (z * z), k)
    assert _rel(solved.levels, [s * (4 * n + 2 * ell + 3)
                                for n in range(k)]) <= 1e-12
    assert solved.a == pytest.approx(ell + 0.5, rel=1e-12)
    assert solved.s == pytest.approx(s, rel=1e-12)


@pytest.mark.parametrize("A, B, C", [(2.0, 1.5, 0.0), (-0.2, 1.5, 7.0),
                                     (1e6, 1e-200, -3e-94),
                                     (0.0, 1e200, 1e100), (0.75, 1.0, -1e3)])
def test_the_asymptotes_are_read_off_v(A, B, C):
    # l(l + 1) and s^2 of A / z^2 + B z^2 + C, about the power of 2 where
    # the two terms meet (V has no least value when A < 0)
    def V(z):
        return A / (z * z) + B * (z * z) + C

    z_v = 2.0 ** round(math.log2(max(abs(A), 1.0) / B) / 4)
    c, s2 = numeric._asymptotes(V, z_v)
    assert c == pytest.approx(A, rel=1e-12, abs=1e-15)
    assert s2 == pytest.approx(B, rel=1e-12)


def test_levels_read_no_closed_form_constant():
    # gamma and omega_hat set the closed forms the oracle checks; the mesh
    # levels do not change bit for bit when both are NaN
    fp = solve_forward(4.0, 0.1, 0.2)
    blind = dataclasses.replace(fp, gamma=math.nan, omega_hat=math.nan)
    for side in Side:
        want = numeric.mesh_levels(_potential(fp, side), 4).levels
        got = numeric.mesh_levels(_potential(blind, side), 4).levels
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_repeated_solves_are_bit_identical():
    V = _potential(solve_forward(0.2, 0.1, 0.2), Side.PLUS)
    runs = {tuple(x.hex() for x in numeric.mesh_levels(V, 4).levels)
            for _ in range(20)}
    assert len(runs) == 1


def test_a_potential_the_package_does_not_build():
    # the half-line oscillator A/z^2 + B z^2: levels 2 sqrt(B) (2n + gamma)
    gk = GKPotential(A=2.0, B=1.5)
    solved = numeric.mesh_levels(lambda z: gk.A / (z * z) + gk.B * z * z, 4)
    assert solved.levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-12)
    assert solved.error <= 1e-12


@pytest.mark.parametrize("k", [20, 40, 250])
def test_high_levels_and_their_error_estimate(k):
    # the leading block's k + 20 rows set the observed error: up to 1.5e-8
    # at k = 40 and 3.5e-8 at k = 250, both on the minus side
    fp = solve_forward(1.0, 1.0, 1.0)
    for side in Side:
        solved = numeric.mesh_levels(_potential(fp, side), k)
        assert _rel(solved.levels, energies_plus(fp, k - 1)) <= 1e-11
        assert solved.error <= 1e-5


def test_the_observed_error_bounds_the_true_error(monkeypatch):
    # the leading block's levels are the mesh's own basis cut to its first
    # rows, so each lies above the mesh's (Cauchy interlacing), to rounding;
    # their gap is at least the mesh's error against the closed forms
    # wherever that error is above 1e-13 (by a factor 186 at least)
    solves = []

    def spy(a, solve=np.linalg.eigvalsh):
        solves.append(solve(a))
        return solves[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for point in CORNERS + FEASIBLE_TRIPLES:
        fp = _fp(point)
        exact = energies_plus(fp, 39)
        for side, k in itertools.product(Side, (4, 40)):
            solves.clear()
            solved = numeric.mesh_levels(_potential(fp, side), k)
            mesh, block = (levels[:k] for levels in solves)
            assert np.all(block >= mesh - 1e-13 * abs(mesh))
            true = _rel(solved.levels, exact)
            assert true <= 1e-13 or solved.error >= true


def test_the_mesh_size_rule():
    # the leading block holds 20 rows more than the levels and the mesh
    # twice as many, at most 360: every solve stays on one BLAS thread, and
    # the block holds the 250 levels of the largest solve
    assert numeric.mesh_size(4) == (48, 24)
    assert numeric.mesh_size(160) == (360, 180)
    assert numeric.mesh_size(250) == (360, 270)
    for k in range(1, numeric.MESH_MAX_LEVELS + 1):
        n, m = numeric.mesh_size(k)
        assert k < m <= n <= numeric._ONE_THREAD_MAX_ROWS


@pytest.mark.parametrize("d", [0.2, 1.0, 3.0])
def test_no_spurious_refusal_at_the_narrowest_corners(d):
    # at omega_bar = 0.2, rho_q = 3 (r about 6.7) a mesh whose partner held
    # too few nodes per level refused right levels at these k
    fp = solve_forward(0.2, 3.0, d)
    exact = energies_plus(fp, 39)
    for k, side in itertools.product([*range(9, 20), *range(35, 41)], Side):
        solved = numeric.mesh_levels(_potential(fp, side), k)
        assert _rel(solved.levels, exact) <= 1e-10
        assert solved.error <= 1e-6


def test_the_potential_is_read_in_three_calls():
    # every point the scans visit at a box point lies in the window, so V is
    # called three times: on the window 2^-16 .. 2^16, on the points
    # z_v 2^-j and z_v 2^j, j < 30, where the asymptotes are read, and on
    # the 46 nodes of the mesh, whose leading block is the partner
    fp = solve_forward(1.0, 1.0, 1.0)
    calls = []

    def V(z):
        calls.append(z)
        return eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)

    solved = numeric.mesh_levels(V, 3)
    assert [np.shape(z) for z in calls] == [(2 * numeric._WINDOW + 1,),
                                            (2 * numeric._REACH,),
                                            (46,)]
    assert calls[0].tolist() == [2.0**j for j in range(-16, 17)]
    z_v, _ = numeric._well(V)
    assert calls[1].tolist() == [z_v * 2.0**-j for j in range(30)] + [
        z_v * 2.0**j for j in range(30)]
    nodes = np.sqrt(numeric._laguerre_rule(solved.a, 46)[0] / solved.s)
    assert calls[2].tolist() == nodes.tolist()


@pytest.mark.parametrize("omega_hat, one_point", [(1e150, 18),
                                                   (1e-150, 0)])
def test_the_walk_past_the_window_reads_v_in_blocks(omega_hat, one_point):
    # at r = 1 the well sits near z = 2^-248 (2^248): past the window the
    # walk reads 16, 32, 64 and 128 points a call, where one point a call
    # took about 250 calls.  At 1e150 w^2 overflows at the window's top, so
    # the window's call raises and the walk reads the window one point at
    # a time
    fp = solve_forward(1.0, 1.0, omega_hat / 2.5)
    calls = []

    def V(z):
        calls.append(np.shape(z))
        return eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)

    numeric.mesh_levels(V, 3)
    assert [c for c in calls if c != ()] == [
        (33,), (16,), (32,), (64,), (128,), (2 * numeric._REACH,), (46,)]
    assert calls.count(()) == one_point


def _oscillator_with(bad):
    # A/z^2 + B z^2, with the value at one mesh node replaced: the middle
    # one of the 48 nodes that mesh_levels(V, 4) samples at once
    gk = GKPotential(A=2.0, B=1.5)

    def V(z):
        v = gk.A / (z * z) + gk.B * z * z
        if np.shape(z) == (48,):
            v[len(v) // 2] = bad
        return v

    return V


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_sample_is_a_floating_point_error(bad):
    # not numpy's LinAlgError from inside eigvalsh
    with pytest.raises(FloatingPointError, match="non-finite potential"):
        numeric.mesh_levels(_oscillator_with(bad), 4)


def test_the_asymptote_read_ends_where_v_raises():
    # the points of the read beyond 1e3 raise, so V is read one point at a
    # time and s^2 from the last point below 1e3; an error of the nodes'
    # call leaves the mesh as it is
    gk = GKPotential(A=2.0, B=1.5)
    calls = []

    def V_failing_beyond(z_bad):
        def at(t):
            if t > z_bad:
                raise OverflowError(f"past {z_bad}")
            return gk.A / t**2 + gk.B * t**2

        def V(z):
            calls.append(np.shape(z))
            return elementwise(at, z)

        return V

    solved = numeric.mesh_levels(V_failing_beyond(1e3), 4)
    assert solved.levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-12)
    assert solved.s == math.sqrt(1.5 + gk.A / 512.0**4)
    # the window's call raises too, and the scans read one point at a time
    read = calls.index((60,))
    assert calls[0] == (33,) and calls[-1] == (48,)
    assert set(calls[1:read] + calls[read + 1:-1]) == {()}
    with pytest.raises(OverflowError, match="past 2.0"):
        numeric.mesh_levels(V_failing_beyond(2.0), 4)


@pytest.mark.parametrize("raises, c, s2", [
    # below 0.01 the read of l(l + 1) ends at 2^-6, above 100 that of s^2 at
    # 2^6; both reads are exact in floats, and the nodes lie between
    (lambda t: t < 0.01, 2.0 + 1.5 * 2.0**-24, 1.5),
    (lambda t: t > 100.0, 2.0, 1.5 + 2.0**-23)])
def test_a_domain_error_ends_its_side_of_the_read(raises, c, s2):
    gk = GKPotential(A=2.0, B=1.5)

    def at(t):
        if raises(t):
            raise DomainError("out of range")
        return gk.A / t**2 + gk.B * t**2

    solved = numeric.mesh_levels(lambda z: elementwise(at, z), 4)
    assert (solved.a, solved.s) == (math.sqrt(c + 0.25), math.sqrt(s2))
    assert solved.levels == pytest.approx(gk_eigenvalues(gk, 3), rel=1e-6)


# verify --n-max 2 on the r x omega_hat grid of tests/corpus.py
GRID = [(1.0, r, oh / (1.5 + r)) for r in GRID_R for oh in GRID_OMEGA_HAT]


def _scan_and_levels(V, k):
    """float.hex of z_v, v_min, the mesh's a and s, the levels and their
    observed error, or the error met on the way."""
    try:
        z_v, v_min = numeric._well(V)
        solved = numeric.mesh_levels(V, k)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [x.hex() for x in (z_v, v_min, solved.a, solved.s, *solved.levels,
                              solved.error)]


@pytest.mark.parametrize("point, k", [(p, 4) for p in CORNERS
                                      + FEASIBLE_TRIPLES]
                         + [(p, 3) for p in GRID])
def test_the_window_gives_the_one_point_scan_bit_for_bit(point, k,
                                                         monkeypatch):
    # with every call on several points refused, the walk reads V one
    # point at a time; otherwise from the window's call and, past the
    # window, from calls on blocks of points
    fp = _fp(point)
    sampled = [_scan_and_levels(_potential(fp, side), k) for side in Side]
    monkeypatch.setattr(numeric, "_served",
                        lambda V, z: dict.fromkeys(z.tolist()))
    assert [_scan_and_levels(_potential(fp, side), k)
            for side in Side] == sampled


def test_a_window_point_the_scan_never_reaches_may_raise():
    # the window call raises at 2^16, where the scans never go, and so does
    # the call of the asymptotes' read, whose s^2 then ends at 2^15; both
    # read V one point at a time, and the levels are the same
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

    got = numeric.mesh_levels(V, 4)
    want = numeric.mesh_levels(lambda z: elementwise(at, z), 4)
    assert [x.hex() for x in got.levels + [got.error]] == [
        x.hex() for x in want.levels + [want.error]]
    read = calls.index((2 * numeric._REACH,))
    assert calls[0] == (2 * numeric._WINDOW + 1,)
    assert calls[1:read] and set(calls[1:read] + calls[read + 1:-1]) == {()}
    assert calls[-1] == (48,)


@pytest.mark.parametrize("k", [0, numeric.MESH_MAX_LEVELS + 1])
def test_levels_out_of_range_are_refused_before_v_is_read(k):
    def V(z):
        raise AssertionError("V was sampled")

    with pytest.raises(ValueError, match="1 to 250 levels"):
        numeric.mesh_levels(V, k)


EXTREME = solve_forward(6.68e-34, 6.77e-52, 3.21e-121)


# r = 1e-30, omega_hat = 1e-30: V+ is rounding noise at small z
SMALL_R = solve_forward(1.0, 1e-30, 1e-30 / 1.5)


def test_the_error_gate_refuses_a_mesh_that_misses_the_well():
    # at r = 1e-30, omega_hat = 1e-30 the plus mesh is 1e5 times the
    # closed-form level, and its leading block differs from it by 97 %
    with pytest.raises(NonConvergent, match=r"46-node mesh's levels differ "
                       r"from its leading 23-row block's by 0\.97\d*, "
                       r"above 0\.025"):
        numeric.mesh_levels(_potential(SMALL_R, Side.PLUS), 3)
    solved = numeric.mesh_levels(_potential(SMALL_R, Side.MINUS), 3)
    assert _rel(solved.levels, energies_plus(SMALL_R, 2)) <= 1e-10
    assert solved.error <= 1e-6


def test_a_plus_side_that_reads_zero_admits_no_mesh():
    # at the extreme point V+ reads 0 about z = 1, so s^2 is 0; the minus
    # side is within 8.9e-11 there (observed error 1.2e-8)
    with pytest.raises(FloatingPointError, match=r"no mesh for the "
                       r"potential's asymptotes l\(l \+ 1\) = 0, s\^2 = 0"):
        numeric.mesh_levels(_potential(EXTREME, Side.PLUS), 3)
    solved = numeric.mesh_levels(_potential(EXTREME, Side.MINUS), 3)
    assert _rel(solved.levels, energies_plus(EXTREME, 2)) <= 1e-10
    assert solved.error <= 1e-6


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
        solved = numeric.mesh_levels(_potential(fp, side), 3)
        assert by_id[name]["note"] == (
            f"mesh of 46 nodes, leading block of 23, "
            f"a = {verify.fmt(solved.a)}, "
            f"s = {verify.fmt(solved.s)}, observed error "
            f"{verify.fmt(solved.error)}")


EXTREME_ARGV = ["--omega-bar", "6.68e-34", "--rho-q", "6.77e-52", "--d",
                "3.21e-121"]


def test_the_extreme_spectrum_ends_in_one_stderr_line(capsys):
    assert main(["spectrum"] + EXTREME_ARGV) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: FloatingPointError: no "
                                   "mesh for the potential's asymptotes")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    EXTREME_ARGV, ["--omega-bar", "1", "--rho-q", "1e-30", "--d",
                   repr(1e-150 / 1.5)]])
def test_verify_keeps_its_document_where_the_plus_mesh_fails(argv, capsys):
    # the plus side's read admits no mesh: its row fails, with the reason
    assert main(["verify", "--n-max", "2"] + argv) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    by_id = {e["id"]: e for e in json.loads(captured.out)["identities"]}
    assert by_id["fd_spectrum_plus"]["note"].startswith(
        "numeric failure: FloatingPointError: no mesh for the potential's "
        "asymptotes")
    assert by_id["fd_spectrum_plus"]["status"] == "FAIL"


def test_250_levels_take_under_a_second(capsys):
    start = time.perf_counter()
    assert main(["spectrum", "--n-max", "249"]) == 0
    elapsed = time.perf_counter() - start
    assert len(json.loads(capsys.readouterr().out)) == 250
    assert elapsed < 1.0


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


@pytest.mark.parametrize("k, n, m", [(4, 48, 24), (160, 360, 180),
                                     (250, 360, 270)])
def test_every_solve_runs_on_one_blas_thread(k, n, m, blas_threads,
                                             monkeypatch):
    # (solver, rows, count) of the rule and of each solve, and after the
    # solve the count from before
    seen = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, name=name, solve=getattr(np.linalg, name)):
            seen.append((name, len(a), blas_threads()))
            return solve(a)

        monkeypatch.setattr(np.linalg, name, spy)
    numeric.mesh_levels(_potential(solve_forward(1.0, 1.0, 1.0), Side.PLUS),
                        k)
    # the rule first, then the mesh and its leading block
    assert seen == [("eigh", n, 1), ("eigvalsh", n, 1), ("eigvalsh", m, 1)]
    assert blas_threads() == 2


def test_a_solve_above_the_cut_keeps_numpys_count(blas_threads):
    with numeric._one_blas_thread(numeric._ONE_THREAD_MAX_ROWS + 1):
        assert blas_threads() == 2
    with numeric._one_blas_thread(numeric._ONE_THREAD_MAX_ROWS):
        assert blas_threads() == 1
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
        return [x.hex() for point, side, k in itertools.product(
                    CORNERS, Side, range(1, 5))
                for x in numeric.mesh_levels(
                    _potential(solve_forward(*point), side), k).levels]

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
