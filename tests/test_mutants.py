"""Fault injection: what the ``verify`` battery catches.

Each mutant changes one closed form, coefficient or parameter of the
package by ``monkeypatch`` and pins the exact set of identity rows it newly
FAILs (rows that PASS unmutated) at three points: the default point, the
same r at omega_hat = 1e-6, and the first frozen inverse triple (DeMillo,
Lipton & Sayward, Computer 11(4), 1978).  Every identity row is killed by
some mutant; a mutant that kills none is a survivor, and the one known
survivor is pinned as such.
"""

import dataclasses
import math

import pytest

from swanson import diffop, params, potentials, spectrum, verify
from swanson.cli import DEFAULT_TOLS, RunConfig
from swanson.params import ModelParams
from swanson.potentials import Form, Side
from conftest import FEASIBLE_TRIPLES

# omega_bar, rho_q, d: the default point, and r = 1 at omega_hat = 1e-6
FORWARD = {"default": (1.0, 1.0, 1.0), "small": (1.0, 1.0, 4e-7)}
MODULES = (potentials, diffop, spectrum, verify)


def _failing() -> tuple[frozenset, ...]:
    """The FAILing identity rows at the default point, the small-omega_hat
    point and the first frozen triple, each run looked up at call time."""
    runs = [(params.solve_forward(*point), None)
            for point in FORWARD.values()]
    mp = ModelParams(*FEASIBLE_TRIPLES[0])
    runs.append((params.solve_inverse(mp)[0], mp))
    return tuple(frozenset(
        e["id"] for e in verify.run(RunConfig(), fp, mp)[0]
        if e["status"] == "FAIL") for fp, mp in runs)


def _everywhere(name: str, wrap):
    """A mutant that replaces the function ``name`` by ``wrap(original)`` in
    every module that binds it."""
    def patch(monkeypatch):
        original = next(getattr(m, name) for m in MODULES if hasattr(m, name))
        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrap(original))

    return patch


def _scaled(name: str):
    return _everywhere(name, lambda f: lambda *a, **k: f(*a, **k) * 1.001)


def _parameter(field: str):
    """fp.<field> x 1.001 wherever the parameters are solved for (inverse
    mode solves through solve_forward)."""
    def patch(monkeypatch):
        solve = params.solve_forward

        def mutated(*args):
            fp = solve(*args)
            return dataclasses.replace(fp, **{field: getattr(fp, field)
                                              * 1.001})

        monkeypatch.setattr(params, "solve_forward", mutated)

    return patch


def _h_tilde(side: Side):
    """w^2 +- 1.001 w' on one side."""
    def wrap(h_tilde):
        def mutated(s, z, fp, order):
            if s is not side:
                return h_tilde(s, z, fp, order)
            wj = potentials.w_of_z_jet(z, fp, order + 1)
            sign = 1.001 if side is Side.PLUS else -1.001
            return wj * wj + sign * wj.shift(1)
        return mutated

    return _everywhere("h_tilde_jet", wrap)


def _h_zeroth(side: Side):
    return _everywhere("h_zeroth_jet", lambda f: lambda s, *a: (
        f(s, *a) + 1e-3 if s is side else f(s, *a)))


def _printed(side: Side, form: Form, name: str = "eval_potential"):
    """One printed potential form x 1.001 (``name`` evaluates it)."""
    return _everywhere(name, lambda f: lambda s, fm, *a: (
        f(s, fm, *a) * 1.001 if (s, fm) == (side, form) else f(s, fm, *a)))


# rows that no mutant newly fails at omega_hat = 1e-6: the first FAILs
# unmutated there, and the second compares values far below 1 absolutely
# (numeric.max_rel_gap's max(1, |r|) floor), so it is blind at that scale
SMALL_MISSES = {"eigen_residual_minus", "ladder_closed_vs_operator"}
STATES = {"eigen_residual_plus", "eigen_residual_minus",
          "ladder_closed_vs_operator"}
FD = {"fd_spectrum_plus", "isospectrality"}
SHAPE = {"potential_transformed_plus", "transformed_minus_residual_profile"}


def _rows(*groups, inverse=()):
    """The newly failing rows at the default point, at omega_hat = 1e-6 and
    at the first frozen triple, which adds the inverse-only ``inverse``."""
    rows = set().union(*groups)
    return rows, rows - SMALL_MISSES, rows | set(inverse)


MUTANTS = {
    "w_x1.001": (_scaled("w_of_z_jet"), _rows(
        STATES, FD, SHAPE, {"transform_shift_minus", "transform_shift_plus"})),
    "omega_hat_x1.001": (_parameter("omega_hat"), _rows(STATES, FD)),
    "gamma_x1.001": (_parameter("gamma"), _rows(STATES)),
    **{f"{field}_x1.001": (_parameter(field), _rows(STATES, FD, SHAPE, {
        "potential_reduced_minus", "potential_reduced_plus"}))
       for field in ("mu", "lam")},
    "log_ratio_+log1.001": (
        _everywhere("_log_ratio", lambda f: lambda *a: f(*a)
                    + math.log(1.001)),
        _rows({"orthonormality_plus"})),
    "energies_plus_x1.001": (
        _everywhere("energies_plus", lambda f: lambda *a: [
            e * 1.001 for e in f(*a)]),
        _rows(STATES - {"ladder_closed_vs_operator"}, FD)),
    # the closed minus state reads the one Laguerre index gamma, the plus
    # state gamma - 1: shifted alike, the closed and operator minus states
    # still agree to rounding, so ladder_closed_vs_operator survives
    "laguerre_alpha_plus_1": (
        _everywhere("laguerre", lambda f: lambda n, a, t: f(n, a + 1, t)),
        _rows(STATES - {"ladder_closed_vs_operator"},
              {"orthonormality_plus"})),
    "h_tilde_plus_dw_x1.001": (_h_tilde(Side.PLUS), _rows({
        "potential_transformed_plus", "transform_shift_plus",
        "eigen_residual_plus", "fd_spectrum_plus"})),
    "h_tilde_minus_dw_x1.001": (_h_tilde(Side.MINUS), _rows({
        "transform_shift_minus", "transformed_minus_residual_profile",
        "eigen_residual_minus", "isospectrality"})),
    "h_zeroth_plus_+1e-3": (_h_zeroth(Side.PLUS), _rows({
        "factorization_plus", "potential_reduced_plus",
        "transform_shift_plus"},
        inverse={"metric_intertwining"})),
    "h_zeroth_minus_+1e-3": (_h_zeroth(Side.MINUS), _rows({
        "factorization_minus", "potential_matched_minus",
        "potential_expanded_minus", "potential_reduced_minus",
        "transform_shift_minus"},
        inverse={"metric_intertwining"})),
    # the x chart alone reads b~ (w is written in z), so the shifted h+-
    # no longer match the canonical half-line potentials plus the shift
    "b_tilde_+1e-3": (
        _everywhere("_b_tilde", lambda f: lambda *a: f(*a) + 1e-3),
        _rows({"potential_matched_minus", "potential_expanded_minus",
               "potential_reduced_minus", "potential_reduced_plus",
               "transform_shift_minus", "transform_shift_plus"})),
    "matched_minus_x1.001": (_printed(Side.MINUS, Form.MATCHED),
                             _rows({"potential_matched_minus"})),
    "expanded_minus_x1.001": (_printed(Side.MINUS, Form.EXPANDED),
                              _rows({"potential_expanded_minus"})),
    "reduced_minus_x1.001": (_printed(Side.MINUS, Form.REDUCED),
                             _rows({"potential_reduced_minus"})),
    "reduced_plus_x1.001": (_printed(Side.PLUS, Form.REDUCED),
                            _rows({"potential_reduced_plus"})),
    "transformed_plus_x1.001": (
        _printed(Side.PLUS, Form.TRANSFORMED, "eval_potential_z"),
        _rows({"potential_transformed_plus"})),
    "dlog_rho_x1.001": (_scaled("dlog_rho_jet"), _rows(inverse={
        "partner_similarity", "metric_intertwining"})),
    "b1_jet_x1.001": (_scaled("b1_jet"), _rows()),
}

SURVIVORS = {"b1_jet_x1.001"}


@pytest.fixture(scope="module")
def unmutated():
    return _failing()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_fails_exactly_its_rows(name, monkeypatch, unmutated):
    patch, want = MUTANTS[name]
    patch(monkeypatch)
    got = tuple(sorted(f - u) for f, u in zip(_failing(), unmutated))
    assert got == tuple(sorted(rows) for rows in want)


def test_every_identity_row_is_killed_by_some_mutant():
    killed = set().union(*(rows for _, want in MUTANTS.values()
                           for rows in want))
    assert set(DEFAULT_TOLS) - killed == set()


def test_the_known_survivors_kill_nothing():
    # b1 enters H+- and the metric's (log rho)' alike, so every identity
    # that reads it still closes
    assert {name for name, (_, want) in MUTANTS.items()
            if not any(want)} == SURVIVORS
