"""The battery of ``swanson verify`` as one table of checks.

Each row of ``ROWS`` holds its ids, their tolerance (None for an erratum: a
suspect printed form, reported and never failed), its note, whether it needs
inverse-mode parameters, and its residual function (a tuple for several ids).
``run`` builds the intermediates once and measures the rows in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, NonConvergent
from .potentials import (Form, Side, coord_x, dlog_rho_jet, eval_potential,
                         eval_potential_z, transform_shift, w_of_z_jet)
from .specialfn import laguerre
from . import diffop, numeric, spectrum

# Sample points away from the singular loci; some checks use the first eight.
SAMPLE_X = [-3.1, -2.3, -1.7, -1.3, -0.9, -0.62, -0.41, -0.3,
            0.33, 0.47, 0.71, 1.1, 1.55, 2.1, 2.7, 3.4, 4.1, 4.8, 0.85, -4.6]
SAMPLE_Z = [0.31, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5, 1.8, 2.1, 2.5,
            2.9, 3.3, 0.37, 0.52, 0.68, 0.92, 1.12, 1.65, 1.95, 2.3]

N_STATES = 6  # the spectral checks use the states n < N_STATES


def fmt(x: float) -> str:
    """The one number format of every output: 17 significant digits."""
    return f"{float(x):.17g}"


def ladder_operators(fp) -> list[diffop.LinDiffOp]:
    """A, A-dagger and their products h- = A-dagger A, h+ = A A-dagger."""
    return [diffop.build(n, fp) for n in ("A", "A_dag", "h_minus", "h_plus")]


def factorization_residuals(A, Ad, hm, hp, points=SAMPLE_X):
    """Residuals of h- = A-dagger A and h+ = A A-dagger at the points."""
    return (diffop.residual(hm, diffop.compose(Ad, A), points),
            diffop.residual(hp, diffop.compose(A, Ad), points))


def numeric_spectra(cfg, fp, k: int, adaptive: bool = False):
    """The k lowest FD levels of both half-line potentials, extrapolated."""
    # below two grids refine_extrapolate adds one of half the first
    coarsest = cfg.grids[0] // 2 if len(cfg.grids) == 2 else cfg.grids[0]
    if k > coarsest:
        raise ConfigError(f"{k} levels do not fit the coarsest grid "
                          f"of {coarsest} points")
    z_min = cfg.z_min
    if adaptive:
        # Dirichlet truncation error at the inner wall scales like
        # z_min^(2 gamma - 1); pull the wall in until that is below 1e-9
        z_min = min(z_min, 10.0 ** (-9.0 / (2 * fp.gamma - 1)))
    return [numeric.refine_extrapolate(
        lambda z: eval_potential_z(side, Form.CANONICAL, z, fp), k, cfg.grids,
        z_min, cfg.z_max)[0] for side in (Side.PLUS, Side.MINUS)]


class _Run:
    """The operators, levels and samples the checks read, built once."""

    def __init__(self, cfg, fp, mp):
        self.cfg, self.fp, self.mp = cfg, fp, mp
        self.A, self.Ad, self.hm, self.hp = ladder_operators(fp)
        self.At = diffop.build("Atilde", fp)
        self.Atd = diffop.build("Atilde_dag", fp)
        self.energies = spectrum.energies_plus(fp, N_STATES - 1)
        # canonical half-line potentials at SAMPLE_Z, and the printed minus one
        self.v = {side: [eval_potential_z(side, Form.CANONICAL, z, fp)
                         for z in SAMPLE_Z] for side in Side}
        self.v_printed_minus = [
            eval_potential_z(Side.MINUS, Form.TRANSFORMED, z, fp)
            for z in SAMPLE_Z]
        # the order-2 closed-form states and w (an order-1 jet) at SAMPLE_Z
        self.states = {side: [[
            spectrum.phi_plus_jet(fp, n, z, 2) if side is Side.PLUS
            else spectrum.phi_minus_jet(fp, n, z, "operator", 2)
            for z in SAMPLE_Z] for n in range(N_STATES)] for side in Side}
        self.w = [w_of_z_jet(z, fp, 1) for z in SAMPLE_Z]
        if mp is not None:
            self.Hm, self.Hp, self.e1 = (diffop.build(n, fp, mp) for n in (
                "H_minus", "H_plus", "eta1_constructed"))
            # the similarities rho H- rho^-1 and rho^-1 h+ rho
            dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
            self.rho_Hm = diffop.conjugate(self.Hm, dlr, +1)
            self.rho_hp = diffop.conjugate(self.hp, dlr, -1)
            self.gauge = diffop.infer_delta(mp, fp, SAMPLE_X)


def _form(side: Side, form: Form):
    """A printed x-chart potential against the canonical h+- coefficient."""
    return lambda r: numeric.max_rel_gap(
        (eval_potential(side, form, x, r.fp, r.mp),
         eval_potential(side, Form.OPERATOR_PRODUCT, x, r.fp))
        for x in SAMPLE_X)


def _transform_shift(side: Side):
    """The canonical half-line potential is h+- at x(z) plus the shift."""
    def shifted(r, z):
        x = coord_x(z, r.fp.omega_bar)
        return (eval_potential(side, Form.OPERATOR_PRODUCT, x, r.fp)
                + transform_shift(x, r.fp.omega_bar))

    return lambda r: numeric.max_rel_gap(
        (v, shifted(r, z)) for z, v in zip(SAMPLE_Z, r.v[side]))


def _eigen_residual(r: _Run, side: Side) -> float:
    """max |-phi'' + (V - E) phi| / (|E| max|phi|) over states and SAMPLE_Z."""
    worst = 0.0
    for en, jets in zip(r.energies, r.states[side]):
        scale = max(abs(j.value) for j in jets)
        for j, v in zip(jets, r.v[side]):
            res = -j.derivative(2) + (v - en) * j.value
            worst = max(worst, abs(res) / (abs(en) * scale))
    return worst


def _ladder_up(r: _Run) -> float:
    """(w + d/dz) phi_n^- = sqrt(E_n) phi_n^+ on the first eight points."""
    worst = 0.0
    for n, (en, jets) in enumerate(zip(r.energies, r.states[Side.PLUS])):
        scale = max(abs(j.value) for j in jets)
        for z, w, j in zip(SAMPLE_Z[:8], r.w, jets):
            lower = spectrum.phi_minus_jet(r.fp, n, z, "normalized", order=1)
            raised = w.value * lower.value + lower.derivative(1)
            target = math.sqrt(en) * j.value
            worst = max(worst, abs(raised - target) / (math.sqrt(en) * scale))
    return worst


def _normalization(r: _Run, state, target: float) -> float:
    """max |int_0^inf state^2 dz - target| over the closed-form states."""
    return max(abs(numeric.quad_halfline(
        lambda z: state(r.fp, n, z, 0).value ** 2, r.fp.omega_hat) - target)
        for n in range(N_STATES))


def _orthogonality(r: _Run) -> float:
    g, oh = r.fp.gamma, r.fp.omega_hat

    def gap(n):
        q = numeric.quad_halfline(
            lambda z: z ** (2 * g - 1) * math.exp(-oh * z * z)
            * laguerre(n, g - 1, oh * z * z) ** 2, oh)
        closed = (math.exp(math.lgamma(n + g) - math.lgamma(n + 1))
                  / (2 * oh**g))
        return abs(q - closed) / abs(closed)

    return max(gap(n) for n in range(N_STATES))


def _fd_spectra(r: _Run) -> tuple[float, float]:
    """FD plus-side levels against the ladder, and the minus side matched."""
    k = min(r.cfg.n_max + 1, 4)
    ep, em = numeric_spectra(r.cfg, r.fp, k, adaptive=True)
    fd = max(abs(ep[n] - e) / abs(e) for n, e in enumerate(r.energies[:k]))
    comp = numeric.compare_spectra(r.energies[:k], em)
    return fd, (comp.max_rel_error if not comp.unmatched_numeric_levels
                else math.inf)


def _minus_profile(r: _Run) -> float:
    """Printed minus transform less canonical, against its profile."""
    d, ob = r.fp.d, r.fp.omega_bar
    return max(0.0, *(
        abs((printed - canon)
            - 4 * d**2 * ob**2 * z**2 / (1 + d * ob * z**2) ** 2)
        for z, printed, canon in zip(SAMPLE_Z, r.v_printed_minus,
                                     r.v[Side.MINUS])))


def _printed_ladder(r: _Run) -> float:
    d, ob, oh, rq = r.fp.d, r.fp.omega_bar, r.fp.omega_hat, r.fp.rho_q
    sw = math.sqrt(ob)
    return max(0.0, *(
        abs((oh * z + (rq / sw) / z
             + 2 * d * ob * z / (1 + d * ob * z**2)) - w.value)
        for z, w in zip(SAMPLE_Z, r.w)))


def _printed_normalization(r: _Run) -> float:
    def gap(n):
        q = spectrum.j_integral(r.fp, n, n, "quadrature")
        return abs(q - spectrum.j_integral(r.fp, n, n, "closed")) / abs(q)

    return max(gap(n) for n in range(1, N_STATES))


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
    Row(("intertwining_down", "intertwining_up"), 1e-9, lambda r: tuple(
        diffop.residual(diffop.compose(h, L), diffop.compose(L, h2), SAMPLE_X)
        for h, L, h2 in ((r.hm, r.Ad, r.hp), (r.hp, r.A, r.hm)))),
    Row(("z_factorization_minus", "z_factorization_plus"), 1e-10,
        lambda r: factorization_residuals(
            r.At, r.Atd, diffop.build("h_tilde_minus", r.fp),
            diffop.build("h_tilde_plus", r.fp), SAMPLE_Z)),
    # potential-form agreement
    Row("potential_matched_minus", 1e-10, _form(Side.MINUS, Form.MATCHED)),
    Row("potential_expanded_minus", 1e-10, _form(Side.MINUS, Form.EXPANDED)),
    Row("potential_reduced_minus", 1e-10, _form(Side.MINUS, Form.REDUCED)),
    Row("potential_reduced_plus", 1e-10, _form(Side.PLUS, Form.REDUCED)),
    Row("potential_transformed_plus", 1e-10, lambda r: numeric.max_rel_gap(
        (eval_potential_z(Side.PLUS, Form.TRANSFORMED, z, r.fp), v)
        for z, v in zip(SAMPLE_Z, r.v[Side.PLUS]))),
    Row("transform_shift_minus", 1e-10, _transform_shift(Side.MINUS)),
    Row("transform_shift_plus", 1e-10, _transform_shift(Side.PLUS)),
    Row("shape_invariance", 1e-10, lambda r: numeric.max_rel_gap(
        (2 * w.derivative(1), vp - vm)
        for w, vp, vm in zip(r.w, r.v[Side.PLUS], r.v[Side.MINUS]))),
    Row("parity", 1e-10, lambda r: numeric.max_rel_gap(
        (eval_potential(side, Form.OPERATOR_PRODUCT, -x, r.fp),
         eval_potential(side, Form.OPERATOR_PRODUCT, x, r.fp))
        for x in SAMPLE_X for side in (Side.MINUS, Side.PLUS))),
    Row(("omega_hat_mu_identity", "omega_hat_gamma_identity"), 1e-12,
        lambda r: tuple(abs(r.fp.omega_hat - v) / max(1.0, r.fp.omega_hat)
                        for v in (abs(r.fp.mu) * math.sqrt(r.fp.omega_bar),
                                  r.fp.d * r.fp.omega_bar * r.fp.gamma))),
    # closed-form spectral data
    Row("eigen_residual_plus", 1e-8, lambda r: _eigen_residual(r, Side.PLUS)),
    Row("eigen_residual_minus", 1e-8,
        lambda r: _eigen_residual(r, Side.MINUS)),
    Row("ladder_closed_vs_operator", 1e-9, lambda r: numeric.max_rel_gap(
        (spectrum.phi_minus_jet(r.fp, n, z, "closed").value, j.value)
        for n, jets in enumerate(r.states[Side.MINUS])
        for z, j in zip(SAMPLE_Z[:8], jets))),
    Row("ladder_up_consistency", 1e-8, _ladder_up),
    Row("normalization_diagonal", 1e-8,
        lambda r: _normalization(r, spectrum.phi_plus_jet, 1.0)),
    Row("orthogonality_weighted", 1e-8, _orthogonality),
    # finite-difference oracle: one run gives both
    Row(("fd_spectrum_plus", "isospectrality"), 1e-5, _fd_spectra),
    Row("transformed_minus_residual_profile", 1e-9, _minus_profile),
    # inverse mode: the non-Hermitian pair, its metric and the intertwiner
    Row("similarity_first_order", 1e-10, lambda r: numeric.max_rel_gap(
        (r.rho_Hm.coeff(1)(x, 0).value, r.hm.coeff(1)(x, 0).value)
        for x in SAMPLE_X), inverse_only=True),
    Row("partner_similarity", 1e-9, lambda r: diffop.residual(
        r.rho_hp, r.Hp, SAMPLE_X), inverse_only=True),
    Row("metric_intertwining", 1e-9, lambda r: diffop.residual(
        diffop.compose(r.e1, r.Hm), diffop.compose(r.Hp, r.e1), SAMPLE_X),
        inverse_only=True),
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
    Row("transformed_minus_printed", None, lambda r: max(0.0, *(
        abs(printed - canon)
        for printed, canon in zip(r.v_printed_minus, r.v[Side.MINUS]))),
        "printed half-line minus potential doubles one numerator term; "
        "residual follows the documented rational profile"),
    Row("ladder_printed_form", None, _printed_ladder,
        "printed first-order ladder operator drops the 1/z piece of the "
        "half-line superpotential"),
    Row("normalization_integral_printed", None, _printed_normalization,
        "printed diagonal closed form keeps only the leading term of the "
        "exact sum; exact at the ground state only"),
    Row("psi_norm_measure", None, lambda r: _normalization(
        r, spectrum.psi_plus_jet, 1.0 / r.fp.omega_bar),
        "pre-transform normalization reproduces 1/omega_bar at the ground "
        "state only"),
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
    note."""
    r = _Run(cfg, fp, mp)
    tols = {**DEFAULT_TOLS, **cfg.tols}
    identities, errata = [], []
    for row in ROWS:
        if row.inverse_only and mp is None:
            continue
        try:
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
