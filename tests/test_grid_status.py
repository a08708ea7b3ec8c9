"""The status tables of the corpus's ``verify`` runs, run in-process:
``verify --n-max 2`` at omega_bar = 1 on the r x omega_hat grid of
``tests/corpus.py --grid``, and the 34 other ``verify`` argv of
``corpus.byte_identity_argv()`` (the default point, the 27 corners, the
frozen triples and the extreme point).

Each exit code, and the exact set of row ids of each run whose identity
row does not PASS, must equal the tables below, both ways: a run that
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


# the other verify argv -> the row ids that do not PASS; every other argv
# passes every row
OTHER_FAILURES = {
    " ".join(["verify"] + corpus.EXTREME): {
        # SAMPLE_Z is fixed at z in [0.31, 3.3], far from the states at
        # omega_hat = 3.2e-154, where the canonical h+ reads -1.1e-16 for
        # E0 = 3.2e-153 (cancellation of its O(1/z^2) pieces)
        "eigen_residual_plus", "eigen_residual_minus",
        # r = 2.6e-35, omega_hat = 3.2e-154: the plus mesh is refused (V+)
        "fd_spectrum_plus"},
}


def _run(argv) -> tuple[int, set]:
    """The exit code of one in-process run and the ids of its identity rows
    that do not PASS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, {e["id"] for e in json.loads(out.getvalue())["identities"]
                  if e["status"] != "PASS"}


def test_the_grid_statuses_equal_the_table():
    failing, codes = set(), {}
    for argv, (r, oh) in zip(corpus.grid_argv(),
                             itertools.product(R, OMEGA_HAT)):
        codes[r, oh], ids = _run(argv)
        failing |= {(r, oh, name) for name in ids}
    expected = {(r, oh, name) for name, points in EXPECTED_FAILURES.items()
                for r, oh in points}
    assert sorted(failing - expected) == []
    assert sorted(expected - failing) == []
    points = {(r, oh) for r, oh, _ in expected}
    assert codes == {point: 3 if point in points else 0
                     for point in itertools.product(R, OMEGA_HAT)}
    assert list(codes.values()).count(0) == 9


def test_the_other_verify_statuses_equal_the_table():
    argvs = {" ".join(argv): argv for argv in corpus.byte_identity_argv()
             if argv[0] == "verify"}
    assert len(argvs) == 34
    runs = {key: _run(argv) for key, argv in argvs.items()}
    assert {key: ids for key, (_, ids) in runs.items() if ids} \
        == OTHER_FAILURES
    assert {key: code for key, (code, _) in runs.items()} == {
        key: 3 if key in OTHER_FAILURES else 0 for key in argvs}
