"""The grid's status table: ``verify --n-max 2`` at omega_bar = 1 on the
r x omega_hat grid of ``tests/corpus.py --grid``, run in-process.

Each exit code, and the exact set of (r, omega_hat, row id) whose identity
row does not PASS, must equal the table below, both ways: a point that
starts to pass fails the test until the table loses it, as a strict xfail
does.  A change that moves an entry edits the table and says why.
"""

import contextlib
import io
import itertools
import json

from swanson.cli import main

import corpus

R, OMEGA_HAT = corpus.GRID_R, corpus.GRID_OMEGA_HAT


def _at(rs, omega_hats) -> set:
    return set(itertools.product(rs, omega_hats))


# row id -> the (r, omega_hat) where it does not PASS, with its cause
EXPECTED_FAILURES = {
    # SAMPLE_Z is fixed at z in [0.31, 3.3], so away from omega_hat ~ 1 the
    # states are not where the samples are (29 floor, 52 NaN)
    "eigen_residual_minus": (
        _at(R, (1e-150, 1e-100, 1e-30, 1e-6, 1e6, 1e30, 1e100, 1e150))
        | _at((1e3,), (1.0,))),
    # the same; NaN at omega_hat >= 1e6, where the states vanish at every
    # sample (15 floor, 52 NaN, 6 V+ at r <= 1e-20, omega_hat <= 1e-30)
    "eigen_residual_plus": (
        _at(R, (1e-150, 1e-100, 1e-30, 1e6, 1e30, 1e100, 1e150))
        | _at((1e2, 1e3), (1e-6,)) | _at((1e3,), (1.0,))),
    # omega_hat >= 1e6 at every r, and r = 1000 at omega_hat <= 1: an
    # absolute gap on a quantity of size omega_hat (floor)
    "transformed_minus_residual_profile": (
        _at(R, (1e6, 1e30, 1e100, 1e150))
        | _at((1e3,), (1e-150, 1e-100, 1e-30, 1e-6, 1.0))),
    # omega_hat >= 1e30, and r = 10 at omega_hat = 1e6: the residual is
    # exactly 0.5 (cancellation of c1's O(1) part next to mu = -omega_hat)
    **{name: _at(R, (1e30, 1e100, 1e150)) | _at((10.0,), (1e6,))
       for name in ("factorization_minus", "factorization_plus")},
    # NaN at omega_hat >= 1e100
    "ladder_closed_vs_operator": _at(R, (1e100, 1e150)),
    # inf at omega_hat = 1e150 (overflow)
    **{f"potential_{form}_minus": _at(R, (1e150,))
       for form in ("matched", "expanded", "reduced")},
    # r <= 1e-20 and omega_hat <= 1e-30: the plus mesh is refused (V+)
    "fd_spectrum_plus": _at((1e-30, 1e-20), (1e-150, 1e-100, 1e-30)),
}


def test_the_grid_statuses_equal_the_table():
    failing, codes = set(), {}
    for argv, (r, oh) in zip(corpus.grid_argv(),
                             itertools.product(R, OMEGA_HAT)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes[r, oh] = main(argv)
        assert err.getvalue() == ""
        failing |= {(r, oh, e["id"])
                    for e in json.loads(out.getvalue())["identities"]
                    if e["status"] != "PASS"}
    expected = {(r, oh, name) for name, points in EXPECTED_FAILURES.items()
                for r, oh in points}
    assert sorted(failing - expected) == []
    assert sorted(expected - failing) == []
    points = {(r, oh) for r, oh, _ in expected}
    assert codes == {point: 3 if point in points else 0
                     for point in itertools.product(R, OMEGA_HAT)}
    assert list(codes.values()).count(0) == 9
