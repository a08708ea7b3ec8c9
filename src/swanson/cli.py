"""Command-line interface.

Commands: solve, spectrum, wavefunctions, verify, sweep.  A run is described
by a JSON config document; every config field can be overridden by a flag
(flags win).  All numeric output uses fixed 17-significant-digit formatting
and fixed row ordering, so identical configs produce byte-identical files.

Exit codes: 0 success, 1 config error, 2 infeasible parameters, 3 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import (BranchViolation, Infeasible4X, NoPositiveRoot,
                     NonConvergent, SwansonError)
from .params import ModelParams, solve_forward, solve_inverse
from .potentials import (Form, Side, coord_x, dlog_rho_jet, eval_potential,
                         eval_potential_z, transform_shift, w_of_z_jet)
from .specialfn import gamma_fn, kummer, pochhammer
from . import diffop, numeric, spectrum

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


class ConfigError(Exception):
    pass


def _finite(v) -> bool:
    return type(v) in (int, float) and -math.inf < v < math.inf


# field -> (test, what it must be), checked by RunConfig.validate
_FIELD_RULES = {
    **{name: (_finite, "a finite number") for name in
       ("omega_bar", "rho_q", "d", "delta", "z_min", "z_max")},
    **{name: (lambda v: v is None or _finite(v), "a finite number or null")
       for name in ("omega", "alpha", "beta")},
    "n_max": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "sweep_steps": (lambda v: type(v) is int, "an integer"),
    "n_list": (lambda v: isinstance(v, list)
               and all(type(n) is int and n >= 0 for n in v),
               "a list of non-negative integers"),
    "z_grid": (lambda v: isinstance(v, list) and all(map(_finite, v)),
               "a list of finite numbers"),
    "sweep_range": (lambda v: isinstance(v, tuple) and len(v) == 2
                    and all(map(_finite, v)), "two finite numbers"),
    "grids": (lambda v: isinstance(v, list) and len(v) >= 2
              and all(type(n) is int and n > 0 for n in v)
              and all(b == 2 * a for a, b in zip(v, v[1:])),
              "two or more positive integers, each twice the one before"),
    "side": (lambda v: v in ("plus", "minus"), "plus or minus"),
    "out": (lambda v: v is None or isinstance(v, str), "a file path or null"),
}


@dataclass
class RunConfig:
    mode: str = "forward"
    omega_bar: float = 1.0
    rho_q: float = 1.0
    d: float = 1.0
    omega: float | None = None
    alpha: float | None = None
    beta: float | None = None
    delta: float = 0.0
    n_max: int = 2
    z_min: float = 1e-3
    z_max: float = 10.0
    grids: list[int] = field(default_factory=lambda: [2000, 4000])
    out: str | None = None
    format: str = "json"
    tols: dict[str, float] = field(default_factory=dict)
    side: str = "plus"
    n_list: list[int] = field(default_factory=lambda: [0])
    z_grid: list[float] = field(default_factory=lambda: [0.5, 1.0, 1.5])
    sweep_param: str = "rho_q"
    sweep_range: tuple[float, float] = (0.5, 2.0)
    sweep_steps: int = 4

    def validate(self):
        if self.mode not in ("forward", "inverse"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        for name, (ok, what) in _FIELD_RULES.items():
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {what}, "
                                  f"got {getattr(self, name)!r}")
        if self.mode == "forward":
            if not (self.omega_bar > 0 and self.rho_q > 0 and self.d > 0):
                raise ConfigError("forward mode needs omega_bar, rho_q, d > 0")
        else:
            if self.omega is None or self.alpha is None or self.beta is None:
                raise ConfigError("inverse mode needs omega, alpha, beta")
            if self.alpha == self.beta:
                raise ConfigError("invariant violated: alpha must differ from beta")
            if not self.omega - self.alpha - self.beta > 0:
                raise ConfigError("invariant violated: omega - alpha - beta "
                                  "must be positive")
        if not (0 < self.z_min < self.z_max):
            raise ConfigError("need 0 < z_min < z_max")
        if not isinstance(self.tols, dict):
            raise ConfigError("tols must map tolerance ids to numbers")
        for name, value in self.tols.items():
            if name not in DEFAULT_TOLS:
                raise ConfigError(f"unknown tolerance id {name!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"tolerance {name!r} must be a number")


def _solve_params(cfg: RunConfig):
    """Returns (fp, mp, report) for the configured mode."""
    if cfg.mode == "forward":
        return solve_forward(cfg.omega_bar, cfg.rho_q, cfg.d), None, None
    mp = ModelParams(cfg.omega, cfg.alpha, cfg.beta, delta_gauge=cfg.delta)
    fp, report = solve_inverse(mp)
    return fp, mp, report


# ---------------------------------------------------------------------------
# output helpers


def _emit(cfg: RunConfig, text: str) -> None:
    if not cfg.out:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc.strerror}")


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_rows(cfg: RunConfig, rows: list[list], header: list[str]) -> None:
    if cfg.format == "csv":
        _emit(cfg, _csv(rows, header))
    else:
        _emit(cfg, _json_text([dict(zip(header, [r[0]] + [fmt(v) for v in r[1:]]))
                               for r in rows]))


def _constraint_residuals(report) -> dict:
    return {
        "mu_strength": fmt(report.res_mu_strength),
        "quadratic": fmt(report.res_quadratic),
        "constant": fmt(report.res_constant),
        "rational_quad": fmt(report.res_rational_quad),
        "rational_cubic": fmt(report.res_rational_cubic),
    }


def _fp_dict(fp) -> dict:
    out = {
        "omega_bar": fmt(fp.omega_bar), "rho_q": fmt(fp.rho_q), "d": fmt(fp.d),
        "mu": fmt(fp.mu), "lambda": fmt(fp.lam),
        "omega_hat": fmt(fp.omega_hat), "gamma": fmt(fp.gamma),
    }
    if fp.c is not None:
        out["c"] = fmt(fp.c)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg: RunConfig) -> int:
    fp, mp, report = _solve_params(cfg)
    doc = {"mode": cfg.mode, "params": _fp_dict(fp)}
    if report is not None:
        doc["residuals"] = _constraint_residuals(report)
        doc["X"] = fmt(report.X)
        doc["feasible_4X"] = report.feasible_4X
        doc["d_root_count"] = report.d_root_count
    _emit(cfg, _json_text(doc))
    return EXIT_OK


def _numeric_spectra(cfg: RunConfig, fp, k: int, adaptive: bool = False):
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
    vp = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
    vm = lambda z: eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)
    ep, _ = numeric.refine_extrapolate(vp, k, cfg.grids, z_min, cfg.z_max)
    em, _ = numeric.refine_extrapolate(vm, k, cfg.grids, z_min, cfg.z_max)
    return ep, em


def cmd_spectrum(cfg: RunConfig) -> int:
    fp, _, _ = _solve_params(cfg)
    k = cfg.n_max + 1
    analytic = [l.energy for l in spectrum.energies_plus(fp, cfg.n_max)]
    ep, em = _numeric_spectra(cfg, fp, k)
    rows = []
    for n in range(k):
        rel = abs(ep[n] - analytic[n]) / max(1.0, abs(analytic[n]))
        rows.append([n, analytic[n], ep[n], em[n], rel])
    _emit_rows(cfg, rows, ["n", "E_analytic", "E_numeric_plus",
                           "E_numeric_minus", "rel_error_plus"])
    return EXIT_OK


def cmd_wavefunctions(cfg: RunConfig) -> int:
    fp, _, _ = _solve_params(cfg)
    side = Side.PLUS if cfg.side == "plus" else Side.MINUS
    rows = []
    skipped = 0
    for n in sorted(set(cfg.n_list)):
        for z in cfg.z_grid:
            if z <= 0:
                skipped += 1
                continue
            if side is Side.PLUS:
                ev = spectrum.phi_plus(fp, n, z)
            else:
                ev = spectrum.phi_minus(fp, n, z, method="normalized")
            rows.append([n, float(z), ev.value, ev.derivative])
    if skipped:
        print(f"warning: skipped {skipped} non-positive grid points",
              file=sys.stderr)
    _emit_rows(cfg, rows, ["n", "z", "value", "derivative"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification report

DEFAULT_TOLS = {
    "factorization_minus": 1e-10,
    "factorization_plus": 1e-10,
    "intertwining_down": 1e-9,
    "intertwining_up": 1e-9,
    "z_factorization_minus": 1e-10,
    "z_factorization_plus": 1e-10,
    "potential_matched_minus": 1e-10,
    "potential_expanded_minus": 1e-10,
    "potential_reduced_minus": 1e-10,
    "potential_reduced_plus": 1e-10,
    "potential_transformed_plus": 1e-10,
    "transform_shift_minus": 1e-10,
    "transform_shift_plus": 1e-10,
    "shape_invariance": 1e-10,
    "parity": 1e-10,
    "omega_hat_mu_identity": 1e-12,
    "omega_hat_gamma_identity": 1e-12,
    "eigen_residual_plus": 1e-8,
    "eigen_residual_minus": 1e-8,
    "ladder_closed_vs_operator": 1e-9,
    "ladder_up_consistency": 1e-8,
    "normalization_diagonal": 1e-8,
    "orthogonality_weighted": 1e-8,
    "fd_spectrum_plus": 1e-5,
    "isospectrality": 1e-5,
    "transformed_minus_residual_profile": 1e-9,
    # inverse-mode additions
    "similarity_first_order": 1e-10,
    "partner_similarity": 1e-9,
    "metric_intertwining": 1e-9,
}

# Sample points away from the singular loci; some checks use the first eight.
SAMPLE_X = [-3.1, -2.3, -1.7, -1.3, -0.9, -0.62, -0.41, -0.3,
            0.33, 0.47, 0.71, 1.1, 1.55, 2.1, 2.7, 3.4, 4.1, 4.8, 0.85, -4.6]
SAMPLE_Z = [0.31, 0.45, 0.6, 0.8, 1.0, 1.25, 1.5, 1.8, 2.1, 2.5,
            2.9, 3.3, 0.37, 0.52, 0.68, 0.92, 1.12, 1.65, 1.95, 2.3]


def _potential_residual(side, form, fp, points, mp=None) -> float:
    return numeric.max_rel_gap(
        (eval_potential(side, form, x, fp, mp),
         eval_potential(side, Form.OPERATOR_PRODUCT, x, fp)) for x in points)


def build_verification(cfg: RunConfig) -> tuple[dict, bool]:
    """Assemble the verification report; returns (document, all_pass)."""
    fp, mp, inv_report = _solve_params(cfg)
    tols = dict(DEFAULT_TOLS)
    tols.update(cfg.tols)
    entries = []

    def check(name: str, residual: float, note: str | None = None):
        tol = tols.get(name, 1e-9)
        entries.append({"id": name, "residual": fmt(residual),
                        "tolerance": fmt(tol),
                        "status": "PASS" if residual <= tol else "FAIL"})
        if note is not None:
            entries[-1]["note"] = note

    def oracle(record, names, compute, note=None):
        """Record compute()'s residuals, or inf with the non-convergence."""
        try:
            residuals = compute()
        except NonConvergent as exc:
            residuals = [math.inf] * len(names)
            note = f"numeric non-convergence: {exc}"
        for name, residual in zip(names, residuals):
            record(name, residual, note)

    xs, zs = SAMPLE_X, SAMPLE_Z

    # operator identities
    A = diffop.build("A", fp)
    Ad = diffop.build("A_dag", fp)
    hm = diffop.build("h_minus", fp)
    hp = diffop.build("h_plus", fp)
    check("factorization_minus", diffop.residual(hm, diffop.compose(Ad, A), xs))
    check("factorization_plus", diffop.residual(hp, diffop.compose(A, Ad), xs))
    check("intertwining_down",
          diffop.residual(diffop.compose(hm, Ad), diffop.compose(Ad, hp), xs))
    check("intertwining_up",
          diffop.residual(diffop.compose(hp, A), diffop.compose(A, hm), xs))
    At = diffop.build("Atilde", fp)
    Atd = diffop.build("Atilde_dag", fp)
    check("z_factorization_minus",
          diffop.residual(diffop.build("h_tilde_minus", fp),
                          diffop.compose(Atd, At), zs))
    check("z_factorization_plus",
          diffop.residual(diffop.build("h_tilde_plus", fp),
                          diffop.compose(At, Atd), zs))

    # potential-form agreement
    check("potential_matched_minus",
          _potential_residual(Side.MINUS, Form.MATCHED, fp, xs))
    check("potential_expanded_minus",
          _potential_residual(Side.MINUS, Form.EXPANDED, fp, xs))
    check("potential_reduced_minus",
          _potential_residual(Side.MINUS, Form.REDUCED, fp, xs))
    check("potential_reduced_plus",
          _potential_residual(Side.PLUS, Form.REDUCED, fp, xs))
    check("potential_transformed_plus", numeric.max_rel_gap(
        (eval_potential_z(Side.PLUS, Form.TRANSFORMED, z, fp),
         eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)) for z in zs))

    def shifted(side, z):
        x = coord_x(z, fp.omega_bar)
        return (eval_potential(side, Form.OPERATOR_PRODUCT, x, fp)
                + transform_shift(x, fp.omega_bar))

    for name, side in (("transform_shift_minus", Side.MINUS),
                       ("transform_shift_plus", Side.PLUS)):
        check(name, numeric.max_rel_gap(
            (eval_potential_z(side, Form.CANONICAL, z, fp), shifted(side, z))
            for z in zs))

    check("shape_invariance", numeric.max_rel_gap(
        (2 * w_of_z_jet(z, fp, 1).derivative(1),
         eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
         - eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)) for z in zs))

    check("parity", numeric.max_rel_gap(
        (eval_potential(side, Form.OPERATOR_PRODUCT, -x, fp),
         eval_potential(side, Form.OPERATOR_PRODUCT, x, fp))
        for x in xs for side in (Side.MINUS, Side.PLUS)))

    sw = math.sqrt(fp.omega_bar)
    check("omega_hat_mu_identity",
          abs(fp.omega_hat - abs(fp.mu) * sw) / max(1.0, fp.omega_hat))
    check("omega_hat_gamma_identity",
          abs(fp.omega_hat - fp.d * fp.omega_bar * fp.gamma)
          / max(1.0, fp.omega_hat))

    # closed-form spectral data
    energies = [l.energy for l in spectrum.energies_plus(fp, 5)]
    for name, side, wf in (
            ("eigen_residual_plus", Side.PLUS, spectrum.phi_plus_jet),
            ("eigen_residual_minus", Side.MINUS,
             lambda f, n, z, order: spectrum.phi_minus_jet(f, n, z, "operator",
                                                           order))):
        worst = 0.0
        for n in range(6):
            scale = max(abs(wf(fp, n, z, 2).value) for z in zs)
            for z in zs:
                j = wf(fp, n, z, 2)
                v = eval_potential_z(side, Form.CANONICAL, z, fp)
                res = -j.derivative(2) + (v - energies[n]) * j.value
                worst = max(worst, abs(res) / (abs(energies[n]) * scale))
        check(name, worst)

    check("ladder_closed_vs_operator", numeric.max_rel_gap(
        (spectrum.phi_minus_jet(fp, n, z, "closed").value,
         spectrum.phi_minus_jet(fp, n, z, "operator").value)
        for n in range(6) for z in zs[:8]))

    worst = 0.0
    for n in range(6):
        scale = max(abs(spectrum.phi_plus_jet(fp, n, z, 0).value) for z in zs)
        for z in zs[:8]:
            lower = spectrum.phi_minus_jet(fp, n, z, "normalized", order=1)
            wj = w_of_z_jet(z, fp, 0)
            raised = wj.value * lower.value + lower.derivative(1)
            target = math.sqrt(energies[n]) * spectrum.phi_plus_jet(fp, n, z, 0).value
            worst = max(worst, abs(raised - target)
                        / (math.sqrt(energies[n]) * scale))
    check("ladder_up_consistency", worst)

    g, oh = fp.gamma, fp.omega_hat
    oracle(check, ["normalization_diagonal"], lambda: [max(
        abs(numeric.quad_halfline(
            lambda z: spectrum.phi_plus_jet(fp, n, z, 0).value ** 2, oh) - 1.0)
        for n in range(6))])

    def orthogonality_gap(n):
        q = numeric.quad_halfline(
            lambda z: z ** (2 * g - 1) * math.exp(-oh * z * z)
            * kummer(n, g, oh * z * z) ** 2, oh)
        closed = (math.factorial(n) * gamma_fn(g)
                  / (2 * oh ** g * pochhammer(g, n)))
        return abs(q - closed) / abs(closed)

    oracle(check, ["orthogonality_weighted"],
           lambda: [max(orthogonality_gap(n) for n in range(6))])

    # finite-difference oracle
    k = min(cfg.n_max + 1, 4)

    def fd_gaps():
        ep, em = _numeric_spectra(cfg, fp, k, adaptive=True)
        fd = max(abs(ep[n] - energies[n]) / abs(energies[n]) for n in range(k))
        comp = numeric.compare_spectra(energies[:k], em)
        return [fd, comp.max_rel_error if not comp.unmatched_numeric_levels
                else math.inf]

    oracle(check, ["fd_spectrum_plus", "isospectrality"], fd_gaps)

    # printed minus-side half-line form: residual must match the profile
    d, ob = fp.d, fp.omega_bar
    worst = 0.0
    for z in zs:
        printed = eval_potential_z(Side.MINUS, Form.TRANSFORMED, z, fp)
        canon = eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)
        profile = 4 * d**2 * ob**2 * z**2 / (1 + d * ob * z**2) ** 2
        worst = max(worst, abs((printed - canon) - profile))
    check("transformed_minus_residual_profile", worst)

    # inverse-mode identities
    if mp is not None:
        dlr = lambda x, order: dlog_rho_jet(x, fp, mp, order)
        Hm = diffop.build("H_minus", fp, mp)
        Hp = diffop.build("H_plus", fp, mp)
        conj = diffop.conjugate(Hm, dlr, +1)
        check("similarity_first_order", numeric.max_rel_gap(
            (conj.coeff(1)(x, 0).value, hm.coeff(1)(x, 0).value) for x in xs))
        check("partner_similarity",
              diffop.residual(diffop.conjugate(hp, dlr, -1), Hp, xs))
        e1 = diffop.build("eta1_constructed", fp, mp)
        check("metric_intertwining",
              diffop.residual(diffop.compose(e1, Hm),
                              diffop.compose(Hp, e1), xs))

    # -- errata: suspect printed forms, reported but never failed ----------
    errata = []

    def report(name: str, residual: float, note: str):
        errata.append({"id": name, "residual": fmt(residual),
                       "status": "REPORTED", "note": note})

    report("partner_general_form",
           _potential_residual(Side.PLUS, Form.GENERAL, fp, xs),
           "printed partner expansion with second derivatives where first "
           "derivatives belong")
    report("matched_plus_form",
           _potential_residual(Side.PLUS, Form.MATCHED, fp, xs),
           "printed plus-side expansion carries a spurious term in the "
           "quadratic coefficient of the rational numerator")
    report("expanded_plus_form",
           _potential_residual(Side.PLUS, Form.EXPANDED, fp, xs),
           "printed regrouped plus-side expansion has an extra factor on the "
           "quadratic growth coefficient")
    worst = 0.0
    for z in zs:
        printed = eval_potential_z(Side.MINUS, Form.TRANSFORMED, z, fp)
        canon = eval_potential_z(Side.MINUS, Form.CANONICAL, z, fp)
        worst = max(worst, abs(printed - canon))
    report("transformed_minus_printed", worst,
           "printed half-line minus potential doubles one numerator term; "
           "residual follows the documented rational profile")
    worst = 0.0
    for z in zs:
        printed_w = (oh * z + (fp.rho_q / sw) / z
                     + 2 * d * ob * z / (1 + d * ob * z**2))
        worst = max(worst, abs(printed_w - w_of_z_jet(z, fp, 0).value))
    report("ladder_printed_form", worst,
           "printed first-order ladder operator drops the 1/z piece of the "
           "half-line superpotential")

    def printed_normalization_gap(n):
        q = spectrum.j_integral(fp, n, n, "quadrature")
        return abs(q - spectrum.j_integral(fp, n, n, "closed")) / abs(q)

    oracle(report, ["normalization_integral_printed"],
           lambda: [max(printed_normalization_gap(n) for n in range(1, 6))],
           "printed diagonal closed form keeps only the leading term of the "
           "exact sum; exact at the ground state only")
    oracle(report, ["psi_norm_measure"], lambda: [max(
        abs(numeric.quad_halfline(
            lambda z: spectrum.psi_plus_jet(fp, n, z, 0).value ** 2, oh)
            - 1.0 / fp.omega_bar) for n in range(6))],
           "pre-transform normalization reproduces 1/omega_bar at the ground "
           "state only")
    if mp is not None:
        report("rational_ansatz_minus",
               _potential_residual(Side.MINUS, Form.RATIONAL_ANSATZ, fp, xs, mp),
               "depends on the gauge constant and the over-determined "
               "matching residuals")
        e1x = diffop.build("eta1_explicit", fp, mp)
        report("intertwiner_printed", diffop.residual(e1x, e1, xs),
               "printed explicit intertwiner vs the metric-conjugated "
               "construction")
        delta, fit = diffop.infer_delta(mp, fp, xs)
        report("gauge_constant_fit", fit,
               f"least-squares gauge constant delta = {fmt(delta)}")

    all_pass = all(e["status"] == "PASS" for e in entries)
    doc = {
        "mode": cfg.mode,
        "params": _fp_dict(fp),
        "identities": entries,
        "errata": errata,
        "environment": {
            "package": f"swanson {__version__}",
            "python": platform.python_version(),
        },
    }
    if inv_report is not None:
        doc["constraint_residuals"] = _constraint_residuals(inv_report)
    return doc, all_pass


def cmd_verify(cfg: RunConfig) -> int:
    doc, all_pass = build_verification(cfg)
    _emit(cfg, _json_text(doc))
    return EXIT_OK if all_pass else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# sweep


def _sweep_one(cfg: RunConfig, value: float):
    kw = {"omega_bar": cfg.omega_bar, "rho_q": cfg.rho_q, "d": cfg.d}
    kw[cfg.sweep_param] = value
    try:
        fp = solve_forward(kw["omega_bar"], kw["rho_q"], kw["d"])
        analytic = [l.energy for l in spectrum.energies_plus(fp, 2)]
        vp = lambda z: eval_potential_z(Side.PLUS, Form.CANONICAL, z, fp)
        ep, _ = numeric.refine_extrapolate(vp, 3, cfg.grids, cfg.z_min,
                                           cfg.z_max)
        xs = SAMPLE_X
        A = diffop.build("A", fp)
        Ad = diffop.build("A_dag", fp)
        res = max(
            diffop.residual(diffop.build("h_minus", fp),
                            diffop.compose(Ad, A), xs),
            diffop.residual(diffop.build("h_plus", fp),
                            diffop.compose(A, Ad), xs))
        return [value] + analytic + ep[:3] + [res, "ok"]
    except SwansonError as exc:
        return [value] + [math.nan] * 7 + [type(exc).__name__]
    except ValueError as exc:
        return [value] + [math.nan] * 7 + ["ValueError"]


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.mode != "forward":
        raise ConfigError("sweep runs in forward mode")
    if cfg.sweep_param not in ("rho_q", "d", "omega_bar"):
        raise ConfigError(f"cannot sweep {cfg.sweep_param!r}")
    lo, hi = cfg.sweep_range
    if cfg.sweep_steps < 1:
        raise ConfigError("need at least one sweep step")
    if cfg.sweep_steps == 1:
        values = [lo]
    else:
        values = list(np.linspace(lo, hi, cfg.sweep_steps))
    rows = [_sweep_one(cfg, float(v)) for v in values]
    header = [cfg.sweep_param, "E0_analytic", "E1_analytic", "E2_analytic",
              "E0_numeric", "E1_numeric", "E2_numeric", "max_identity_residual",
              "status"]
    _emit(cfg, _csv(rows, header))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    p = _Parser(prog="swanson",
                description="Non-Hermitian oscillator hierarchy toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "spectrum", "wavefunctions", "verify", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--mode", choices=["forward", "inverse"])
        sp.add_argument("--omega-bar", type=float, dest="omega_bar")
        sp.add_argument("--rho-q", type=float, dest="rho_q")
        sp.add_argument("--d", type=float)
        sp.add_argument("--omega", type=float)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--n-max", type=int, dest="n_max")
        sp.add_argument("--z-min", type=float, dest="z_min")
        sp.add_argument("--z-max", type=float, dest="z_max")
        sp.add_argument("--grids", type=str)
        sp.add_argument("--out", type=str)
        sp.add_argument("--format", choices=["json", "csv"])
        sp.add_argument("--tol", action="append", default=[],
                        metavar="NAME=VALUE")
        if name == "wavefunctions":
            sp.add_argument("--side", choices=["plus", "minus"])
            sp.add_argument("--n-list", type=str, dest="n_list")
            sp.add_argument("--z-grid", type=str, dest="z_grid")
        if name == "sweep":
            sp.add_argument("--param", choices=["rho_q", "d", "omega_bar"],
                            dest="sweep_param")
            sp.add_argument("--range", type=str, dest="sweep_range")
            sp.add_argument("--steps", type=int, dest="sweep_steps")
    return p


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, value)
    for key in ("mode", "omega_bar", "rho_q", "d", "omega", "alpha", "beta",
                "delta", "n_max", "z_min", "z_max", "out", "format", "side",
                "sweep_param", "sweep_steps"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    for key, item in (("grids", int), ("n_list", int), ("z_grid", float)):
        text = getattr(args, key, None)
        if text is not None:
            setattr(cfg, key, [item(t) for t in text.split(",") if t != ""])
    if getattr(args, "sweep_range", None):
        parts = args.sweep_range.split(":")
        if len(parts) != 2:
            raise ConfigError("--range expects lo:hi")
        cfg.sweep_range = (float(parts[0]), float(parts[1]))
    for item in getattr(args, "tol", []):
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            cfg.tols[name] = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance value in {item!r}")
    if isinstance(cfg.sweep_range, list):
        cfg.sweep_range = tuple(cfg.sweep_range)
    cfg.validate()
    return cfg


COMMANDS = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "wavefunctions": cmd_wavefunctions,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        cfg = _load_config(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoPositiveRoot, Infeasible4X, BranchViolation) as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonConvergent as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
