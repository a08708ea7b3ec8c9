"""The battery of ``swanson verify`` as one table of checks.

Each row of ``ROWS`` holds its ids, their tolerance (None for an erratum: a
suspect printed form, reported and never failed), its note, whether it needs
inverse-mode parameters, and its residual function (a tuple for several ids).
``run`` builds the intermediates once and measures the rows in order: each
side's ladder of states n < N_STATES is one state call, and h+- at
SAMPLE_X, which the form and errata rows share, is evaluated once, on first
use.  Every row evaluates its sample points in one call (an ndarray of
SAMPLE_X or SAMPLE_Z), with numpy's warnings off, and reduces through
``numeric.max_rel_gap`` or ``numeric.worst``, so a NaN anywhere fails it.
Each identity row is meant to measure a fact that no other row implies: a row
that holds by construction, or repeats another's gap on another scale, has
no place here (``tests/test_mutants.py`` pins the rows each injected fault
fails).  So the intertwinings, which follow from the factorizations, are
not rows, nor are the half-line factorizations and the parity of h+-, which
read 0 by construction, nor the raising ladder (w + d/dz) phi_n^- = sqrt(E_n)
phi_n^+, which on phi_n^- = (w - d/dz) phi_n^+ is eigen_residual_plus's gap,
nor the first-order coefficient of rho H- rho^-1 against h-: h- and h+ share
their first- and second-order coefficients h1, h2, so it tests b1 =
2 h2 (log rho)', as the first-order coefficient of partner_similarity does.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NonConvergent
from .potentials import (Form, Side, coord_x, dlog_rho_jet, eval_potential,
                         eval_potential_z, transform_shift, w_of_z_jet)
from . import diffop, numeric, spectrum

# Sample points away from the singular loci; the ladder checks use the first
# eight of SAMPLE_Z.
SAMPLE_X = [-3.1, -2.3, -1.7, -1.3, -0.9, -0.62, -0.41, -0.3,
            0.33, 0.47, 0.71, 1.1, 1.55, 2.1, 2.7, 3.4, 4.1, 4.8, 0.85, -4.6]
SAMPLE_Z = [0.31, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5, 1.8, 2.1, 2.5,
            2.9, 3.3, 0.37, 0.52, 0.68, 0.92, 1.12, 1.65, 1.95, 2.3]

N_STATES = 6  # the spectral checks use the states n < N_STATES
LADDER = range(N_STATES)


def fmt(x: float) -> str:
    """The one number format of every output: 17 significant digits."""
    return f"{float(x):.17g}"


def ladder_operators(fp) -> list[diffop.LinDiffOp]:
    """A, A-dagger and their products h- = A-dagger A, h+ = A A-dagger."""
    return [diffop.build(n, fp) for n in ("A", "A_dag", "h_minus", "h_plus")]


def _at_order_0(coeffs: list) -> list:
    """Coefficient jets evaluated to a higher order, truncated to order 0."""
    return [c.truncate(0) for c in coeffs]


def factorization_residuals(A, Ad, hm, hp):
    """Residuals of h- = A-dagger A and h+ = A A-dagger at SAMPLE_X, A and
    A-dagger evaluated once each, to order 1, for both products."""
    x = np.array(SAMPLE_X)
    with np.errstate(all="ignore"):
        a, ad = A.at(x, 1), Ad.at(x, 1)
        return (diffop.gap(hm.at(x, 0), diffop.leibniz(_at_order_0(ad), a, 0)),
                diffop.gap(hp.at(x, 0), diffop.leibniz(_at_order_0(a), ad, 0)))


def numeric_levels(fp, side: Side, k: int) -> numeric.MeshLevels:
    """The k lowest mesh levels of one canonical half-line potential, their
    observed error and the mesh (``numeric.mesh_levels``); more levels than
    one mesh solve takes is a configuration error, raised before any matrix
    is built."""
    if k > numeric.MESH_MAX_LEVELS:
        raise ConfigError(f"{k} levels exceed the {numeric.MESH_MAX_LEVELS} "
                          "that one mesh solve takes")
    return numeric.mesh_levels(
        lambda z: eval_potential_z(side, Form.CANONICAL, z, fp), k)


class _Run:
    """The operators, levels and samples the checks read, built once."""

    def __init__(self, cfg, fp, mp):
        self.cfg, self.fp, self.mp = cfg, fp, mp
        self.A, self.Ad, self.hm, self.hp = ladder_operators(fp)
        self.energies = spectrum.energies_plus(fp, N_STATES - 1)
        self._mesh: dict[Side, numeric.MeshLevels] = {}
        self._h: dict[Side, np.ndarray] = {}
        self.x, self.z = np.array(SAMPLE_X), np.array(SAMPLE_Z)
        # the canonical and printed minus potentials and w on all of SAMPLE_Z
        # at once
        self.v = {side: eval_potential_z(side, Form.CANONICAL, self.z, fp)
                  for side in Side}
        self.v_printed_minus = eval_potential_z(Side.MINUS, Form.TRANSFORMED,
                                                self.z, fp)
        w = w_of_z_jet(self.z, fp, 2)
        self.w = w.value
        # the order-2 ladders n < N_STATES on all of SAMPLE_Z, one jet per
        # side with coefficients of shape (N_STATES, points), from one plus
        # ladder to order 3: the minus states are (w - d/dz) of it, as
        # phi_minus_jet's "operator" method forms them
        plus = spectrum.phi_plus_jet(fp, LADDER, self.z, 3)
        self.states = {Side.PLUS: plus.truncate(2),
                       Side.MINUS: spectrum.lowered(w, plus)}
        if mp is not None:
            self.Hm, self.Hp, self.e1 = (diffop.build(n, fp, mp) for n in (
                "H_minus", "H_plus", "eta1_constructed"))
            # the similarity rho^-1 h+ rho
            self.rho_hp = diffop.conjugate(self.hp, lambda x, order: (
                dlog_rho_jet(x, fp, mp, order)), -1)
            self.gauge = diffop.infer_delta(mp, fp, SAMPLE_X)

    def h(self, side: Side) -> np.ndarray:
        """h+- at SAMPLE_X, evaluated on first use, so that an evaluation
        that fails fails only the rows that read it."""
        if side not in self._h:
            self._h[side] = eval_potential(side, Form.OPERATOR_PRODUCT,
                                           self.x, self.fp)
        return self._h[side]

    def mesh(self, side: Side) -> numeric.MeshLevels:
        """One side's mesh levels for the spectral rows, n <= min(n_max, 3),
        solved on first use, so that a solve that fails fails only its own
        side's row."""
        if side not in self._mesh:
            self._mesh[side] = numeric_levels(self.fp, side,
                                              min(self.cfg.n_max + 1, 4))
        return self._mesh[side]


def _form(side: Side, form: Form):
    """A printed x-chart potential against the canonical h+- coefficient."""
    return lambda r: numeric.max_rel_gap([(
        eval_potential(side, form, r.x, r.fp, r.mp), r.h(side))])


def _transform_shift(side: Side):
    """The canonical half-line potential is h+- at x(z) plus the shift."""
    def shifted(r, x):
        return (eval_potential(side, Form.OPERATOR_PRODUCT, x, r.fp)
                + transform_shift(x, r.fp.omega_bar))

    return lambda r: numeric.max_rel_gap([
        (r.v[side], shifted(r, coord_x(r.z, r.fp.omega_bar)))])


def _column(values) -> np.ndarray:
    """One number per state, as a column against the sample points."""
    return np.array(values)[:, None]


def _scale(j) -> np.ndarray:
    """max|phi_n| over the sample points, one per state."""
    return np.max(abs(j.value), axis=1, keepdims=True)


def _eigen_residual(r: _Run, side: Side) -> float:
    """max |-phi'' + (V - E) phi| / (|E| max|phi|) over states and SAMPLE_Z."""
    j, en = r.states[side], _column(r.energies)
    return numeric.worst(abs(-j.derivative(2) + (r.v[side] - en) * j.value)
                         / (abs(en) * _scale(j)))


def _vanishing(side: Side) -> Callable[[_Run], str | None]:
    """The note of a row scaled by max|phi|: why it reads NaN where a
    closed-form state underflows at every sample point."""
    def note(r: _Run) -> str | None:
        if not np.all(np.any(r.states[side].value, axis=1)):
            return "the closed-form states vanish at every sample point"
        return None

    return note


def _orthonormality(r: _Run) -> float:
    """max |<phi_m, phi_n> - delta_mn| over m, n < N_STATES: in
    t = omega_hat z^2 each product is t^(gamma-1) e^-t dt times a polynomial
    of degree 2(N_STATES - 1), which one Gauss-Laguerre call takes exactly
    for the whole Gram matrix."""
    def gram(z):
        phi = spectrum.phi_plus_jet(r.fp, LADDER, z, 0).value
        return phi[:, None] * phi[None, :]

    return numeric.worst(abs(numeric.quad_halfline(
        gram, r.fp.omega_hat, r.fp.gamma - 1, 2 * (N_STATES - 1))
        - np.eye(N_STATES)))


def _mesh_gap(side: Side) -> Callable[[_Run], float]:
    """One side's mesh levels against the ladder, index by index, each
    relative to |E_n|; a spurious level below E_0 shifts every rung."""
    def gap(r: _Run) -> float:
        return numeric.worst(abs(x - e) / abs(e) for x, e in zip(
            r.mesh(side).levels, r.energies))

    return gap


def _mesh_note(side: Side) -> Callable[[_Run], str]:
    """The note of a spectral row: the sizes of its mesh and of the leading
    block, the mesh's a and s, and the observed error."""
    def note(r: _Run) -> str:
        m = r.mesh(side)
        nodes, block = numeric.mesh_size(len(m.levels))
        return (f"mesh of {fmt(nodes)} nodes, leading block of "
                f"{fmt(block)}, a = {fmt(m.a)}, s = {fmt(m.s)}, observed "
                f"error {fmt(m.error)}")

    return note


def _minus_profile(r: _Run) -> float:
    """Printed minus transform less canonical, against its profile."""
    d, ob = r.fp.d, r.fp.omega_bar
    z2 = r.z * r.z
    q = 1 + d * ob * z2
    return numeric.worst(abs((r.v_printed_minus - r.v[Side.MINUS])
                             - 4 * d**2 * ob**2 * z2 / (q * q)))


def _printed_ladder(r: _Run) -> float:
    d, ob, oh, rq = r.fp.d, r.fp.omega_bar, r.fp.omega_hat, r.fp.rho_q
    sw = math.sqrt(ob)
    z = r.z
    return numeric.worst(abs((oh * z + (rq / sw) / z
                              + 2 * d * ob * z / (1 + d * ob * (z * z)))
                             - r.w))


def _printed_normalization(r: _Run) -> float:
    """The printed integrals of the excited states against one quadrature,
    both at omega_hat = 1: each carries the factor omega_hat^-(gamma + 1)
    and otherwise depends on gamma alone, so the relative gap is the same
    at every omega_hat, and at omega_hat = 1 the integrals are finite
    unless gamma is large."""
    fp = dataclasses.replace(r.fp, omega_hat=1.0)
    excited = range(1, N_STATES)
    q = spectrum.j_integral(fp, excited, "quadrature")
    return numeric.worst([
        abs(q - spectrum.j_integral(fp, excited, "closed")) / abs(q)])


def _intertwining(r: _Run) -> float:
    """eta1 H- against H+ eta1 at SAMPLE_X, eta1 evaluated once, to order 2,
    for both products."""
    e1 = r.e1.at(r.x, 2)
    return diffop.gap(diffop.leibniz(_at_order_0(e1), r.Hm.at(r.x, 1), 0),
                      diffop.leibniz(r.Hp.at(r.x, 0), e1, 0))


@dataclass(frozen=True)
class Row:
    ids: str | tuple[str, ...]
    tol: float | None          # None: an erratum, REPORTED and never failed
    fn: Callable[[_Run], float | tuple[float, ...]]
    note: str | Callable[[_Run], str] | None = None
    inverse_only: bool = False

    @property
    def names(self) -> tuple[str, ...]:
        return (self.ids,) if isinstance(self.ids, str) else self.ids


ROWS = (
    # operator identities
    Row(("factorization_minus", "factorization_plus"), 1e-10,
        lambda r: factorization_residuals(r.A, r.Ad, r.hm, r.hp)),
    # potential-form agreement
    Row("potential_matched_minus", 1e-10, _form(Side.MINUS, Form.MATCHED)),
    Row("potential_expanded_minus", 1e-10, _form(Side.MINUS, Form.EXPANDED)),
    Row("potential_reduced_minus", 1e-10, _form(Side.MINUS, Form.REDUCED)),
    Row("potential_reduced_plus", 1e-10, _form(Side.PLUS, Form.REDUCED)),
    Row("potential_transformed_plus", 1e-10, lambda r: numeric.max_rel_gap([(
        eval_potential_z(Side.PLUS, Form.TRANSFORMED, r.z, r.fp),
        r.v[Side.PLUS])])),
    Row("transform_shift_minus", 1e-10, _transform_shift(Side.MINUS)),
    Row("transform_shift_plus", 1e-10, _transform_shift(Side.PLUS)),
    # closed-form spectral data
    Row("eigen_residual_plus", 1e-8, lambda r: _eigen_residual(r, Side.PLUS),
        _vanishing(Side.PLUS)),
    Row("eigen_residual_minus", 1e-8,
        lambda r: _eigen_residual(r, Side.MINUS), _vanishing(Side.MINUS)),
    Row("ladder_closed_vs_operator", 1e-9, lambda r: numeric.max_rel_gap([
        (spectrum.phi_minus_jet(r.fp, LADDER, r.z[:8], "closed", 0).value,
         r.states[Side.MINUS].value[:, :8])])),
    Row("orthonormality_plus", 1e-8, _orthonormality),
    # the mesh oracle, one solve per side
    Row("fd_spectrum_plus", 1e-5, _mesh_gap(Side.PLUS),
        _mesh_note(Side.PLUS)),
    Row("isospectrality", 1e-5, _mesh_gap(Side.MINUS),
        _mesh_note(Side.MINUS)),
    Row("transformed_minus_residual_profile", 1e-9, _minus_profile),
    # inverse mode: the non-Hermitian pair, its metric and the intertwiner
    Row("partner_similarity", 1e-9, lambda r: diffop.residual(
        r.rho_hp, r.Hp, SAMPLE_X), inverse_only=True),
    Row("metric_intertwining", 1e-9, _intertwining, inverse_only=True),
    # errata: suspect printed forms, reported but never failed
    Row("partner_general_form", None, _form(Side.PLUS, Form.GENERAL),
        "printed partner expansion with second derivatives where first "
        "derivatives belong"),
    Row("matched_plus_form", None, _form(Side.PLUS, Form.MATCHED),
        "printed plus-side expansion carries a spurious term in the "
        "quadratic coefficient of the rational numerator"),
    Row("expanded_plus_form", None, _form(Side.PLUS, Form.EXPANDED),
        "printed regrouped plus-side expansion has an extra factor on the "
        "quadratic growth coefficient"),
    Row("transformed_minus_printed", None, lambda r: numeric.worst(
        abs(r.v_printed_minus - r.v[Side.MINUS])),
        "printed half-line minus potential doubles one numerator term; "
        "residual follows the documented rational profile"),
    Row("ladder_printed_form", None, _printed_ladder,
        "printed first-order ladder operator drops the 1/z piece of the "
        "half-line superpotential"),
    Row("normalization_integral_printed", None, _printed_normalization,
        "printed diagonal closed form keeps only the leading term of the "
        "exact sum; exact at the ground state only"),
    Row("rational_ansatz_minus", None, _form(Side.MINUS, Form.RATIONAL_ANSATZ),
        "depends on the gauge constant and the over-determined matching "
        "residuals", inverse_only=True),
    Row("intertwiner_printed", None, lambda r: diffop.residual(
        diffop.build("eta1_explicit", r.fp, r.mp), r.e1, SAMPLE_X),
        "printed explicit intertwiner vs the metric-conjugated construction",
        inverse_only=True),
    Row("gauge_constant_fit", None, lambda r: r.gauge[1],
        lambda r: f"least-squares gauge constant delta = {fmt(r.gauge[0])}",
        inverse_only=True),
)

DEFAULT_TOLS = {name: row.tol for row in ROWS if row.tol is not None
                for name in row.names}


def run(cfg, fp, mp=None) -> tuple[list[dict], list[dict]]:
    """(identities, errata) entries of the rows that apply, with cfg.tols
    over the table's tolerances; an oracle that does not converge, or
    arithmetic that overflows, gives residual inf and the reason as the
    note (with numpy's warnings off, a grid overflows to inf in silence)."""
    with np.errstate(all="ignore"):
        r = _Run(cfg, fp, mp)
    tols = {**DEFAULT_TOLS, **cfg.tols}
    identities, errata = [], []
    for row in ROWS:
        if row.inverse_only and mp is None:
            continue
        try:
            with np.errstate(all="ignore"):
                values = row.fn(r)
            residuals = (values,) if isinstance(row.ids, str) else values
            note = row.note(r) if callable(row.note) else row.note
        except NonConvergent as exc:
            residuals = (math.inf,) * len(row.names)
            note = f"numeric non-convergence: {exc}"
        except ArithmeticError as exc:
            residuals = (math.inf,) * len(row.names)
            note = f"numeric failure: {type(exc).__name__}: {exc}"
        for name, res in zip(row.names, residuals):
            entry = {"id": name, "residual": fmt(res)}
            if row.tol is None:
                errata.append({**entry, "status": "REPORTED", "note": note})
                continue
            entry["tolerance"] = fmt(tols[name])
            entry["status"] = "PASS" if res <= tols[name] else "FAIL"
            if note is not None:
                entry["note"] = note
            identities.append(entry)
    return identities, errata
