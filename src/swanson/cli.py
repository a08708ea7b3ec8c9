"""Command-line interface: configuration, commands and their output.

Commands: solve, spectrum, wavefunctions, verify, sweep (the checks of verify
are the table in ``swanson.verify``).  A run is described by a JSON config
document; every config field can be overridden by a flag (flags win).  All
numeric output uses fixed 17-significant-digit formatting and fixed row
ordering, so identical configs produce byte-identical files.

Exit codes: 0 success, 1 config error, 2 infeasible parameters, 3 numeric
failure (a failed check, non-convergence, a value out of float range).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import platform
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .errors import (BranchViolation, ConfigError, Infeasible4X,
                     NoPositiveRoot, NonConvergent, SwansonError)
from .params import ModelParams, solve_forward, solve_inverse
from .potentials import Side
from .verify import DEFAULT_TOLS, fmt
from . import spectrum, verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERIC = 3


def _finite(v) -> bool:
    return type(v) in (int, float) and -math.inf < v < math.inf


# field -> (test, what it must be), checked by RunConfig.validate
_FIELD_RULES = {
    "mode": (lambda v: v in ("forward", "inverse"), "forward or inverse"),
    "format": (lambda v: v in ("json", "csv"), "json or csv"),
    **{name: (_finite, "a finite number") for name in
       ("omega_bar", "rho_q", "d")},
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
    n_max: int = 2
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
        if not isinstance(self.tols, dict):
            raise ConfigError("tols must map tolerance ids to numbers")
        for name, value in self.tols.items():
            if name not in DEFAULT_TOLS:
                raise ConfigError(f"unknown tolerance id {name!r}")
            if not (_finite(value) and value >= 0):
                raise ConfigError(f"tolerance {name!r} must be a finite "
                                  f"number >= 0, got {value!r}")


def _solve_params(cfg: RunConfig):
    """Returns (fp, mp, report) for the configured mode."""
    if cfg.mode == "forward":
        return solve_forward(cfg.omega_bar, cfg.rho_q, cfg.d), None, None
    mp = ModelParams(cfg.omega, cfg.alpha, cfg.beta)
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
    """The sweep table, through ``csv.writer``: its status cell holds an
    error message, which needs quoting where it holds a comma, a quote or a
    line break; the other cells are written as they are."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [fmt(v) if isinstance(v, float) else str(v) for v in row]
        for row in [header, *rows])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_rows(cfg: RunConfig, rows: list[tuple], header: list[str]) -> None:
    """The spectrum and wavefunctions tables: rows of an int n and floats.
    As csv, each row is one %-template, ``%d`` then ``,%.17g`` per float
    (``fmt``'s digits), since no such cell needs csv quoting; as JSON, one
    object per row."""
    if cfg.format == "csv":
        row = "%d" + ",%.17g" * (len(header) - 1) + "\n"
        _emit(cfg, ",".join(header) + "\n" + "".join(map(row.__mod__, rows)))
    else:
        _emit(cfg, _json_text([dict(zip(header, [r[0]] + [fmt(v) for v in r[1:]]))
                               for r in rows]))


def _constraint_residuals(report) -> dict:
    return {name: fmt(getattr(report, "res_" + name)) for name in
            ("mu_strength", "quadratic", "constant", "rational_quad",
             "rational_cubic")}


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


def cmd_spectrum(cfg: RunConfig) -> int:
    fp, _, _ = _solve_params(cfg)
    k = cfg.n_max + 1
    ep, em = (verify.numeric_levels(fp, side, k).levels
              for side in (Side.PLUS, Side.MINUS))
    analytic = spectrum.energies_plus(fp, cfg.n_max)
    rows = [(n, analytic[n], ep[n], em[n],
             abs(ep[n] - analytic[n]) / abs(analytic[n])) for n in range(k)]
    _emit_rows(cfg, rows, ["n", "E_analytic", "E_numeric_plus",
                           "E_numeric_minus", "rel_error_plus"])
    return EXIT_OK


def cmd_wavefunctions(cfg: RunConfig) -> int:
    fp, _, _ = _solve_params(cfg)

    def state(n, z):
        """(value, derivative) of the order-1 jet of degree n, the one row of
        the ladder range(n, n + 1); a value out of float range (inf, or NaN
        from 0 times inf) is an OverflowError, not a row."""
        if cfg.side == "plus":
            j = spectrum.phi_plus_jet(fp, range(n, n + 1), z, 1)
        else:
            j = spectrum.phi_minus_jet(fp, range(n, n + 1), z,
                                       "normalized", 1)
        v, dv = j.value[0], j.derivative(1)[0]
        if not (np.isfinite(v).all() and np.isfinite(dv).all()):
            raise OverflowError(f"state {n} leaves the float range at "
                                f"z = {z!r}")
        return v, dv

    ns = sorted(set(cfg.n_list))
    z = np.array([float(v) for v in cfg.z_grid if v > 0])
    rows = []
    for n in ns:
        try:
            v, dv = state(n, z)
        except (SwansonError, ArithmeticError, ValueError):
            # the grid runs each stage of the state on every point before
            # the next stage; report the error of the first failing point
            for zi in z.tolist():
                state(n, zi)
            raise
        rows += zip(itertools.repeat(n), z.tolist(), v.tolist(), dv.tolist())
    skipped = len(cfg.z_grid) - len(z)
    if skipped and ns:
        print(f"warning: skipped {skipped} non-positive grid points",
              file=sys.stderr)
    _emit_rows(cfg, rows, ["n", "z", "value", "derivative"])
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    fp, mp, report = _solve_params(cfg)
    identities, errata = verify.run(cfg, fp, mp)
    doc = {"mode": cfg.mode, "params": _fp_dict(fp),
           "identities": identities, "errata": errata,
           "environment": {"package": f"swanson {__version__}",
                           "python": platform.python_version()}}
    if report is not None:
        doc["constraint_residuals"] = _constraint_residuals(report)
    _emit(cfg, _json_text(doc))
    all_pass = all(e["status"] == "PASS" for e in identities)
    return EXIT_OK if all_pass else EXIT_NUMERIC


def _sweep_one(cfg: RunConfig, value: float):
    """One row: the swept value, the levels, the residual and a status, "ok"
    or "<stage>: <error type>: <message>" for the stage that failed."""
    kw = {"omega_bar": cfg.omega_bar, "rho_q": cfg.rho_q, "d": cfg.d,
          cfg.sweep_param: value}
    stage = "solve"
    try:
        fp = solve_forward(**kw)
        stage = "analytic"
        analytic = spectrum.energies_plus(fp, 2)
        stage = "mesh"
        ep = verify.numeric_levels(fp, Side.PLUS, 3).levels
        stage = "identity"
        res = max(verify.factorization_residuals(
            *verify.ladder_operators(fp)))
        return [value] + analytic + ep[:3] + [res, "ok"]
    except (SwansonError, ValueError, ArithmeticError) as exc:
        return ([value] + [math.nan] * 7
                + [f"{stage}: {type(exc).__name__}: {exc}"])


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.mode != "forward":
        raise ConfigError("sweep runs in forward mode")
    if cfg.sweep_param not in ("rho_q", "d", "omega_bar"):
        raise ConfigError(f"cannot sweep {cfg.sweep_param!r}")
    lo, hi = cfg.sweep_range
    if cfg.sweep_steps < 1:
        raise ConfigError("need at least one sweep step")
    values = [lo] if cfg.sweep_steps == 1 else np.linspace(lo, hi,
                                                          cfg.sweep_steps)
    rows = [_sweep_one(cfg, float(v)) for v in values]
    header = [cfg.sweep_param, "E0_analytic", "E1_analytic", "E2_analytic",
              "E0_numeric", "E1_numeric", "E2_numeric", "max_identity_residual",
              "status"]
    _emit(cfg, _csv(rows, header))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts like a negative number ("-2.5e-3", "-1:2",
        # "-inf", "-nan") is a value; argparse's own pattern misses
        # exponents, ranges and non-numbers and takes such a token for an
        # option name
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    def error(self, message):
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


# the output formats each command writes
_FORMATS = {"solve": ["json"], "spectrum": ["json", "csv"],
            "wavefunctions": ["json", "csv"], "verify": ["json"],
            "sweep": ["csv"]}


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on the first ``main`` call."""
    p = _Parser(prog="swanson",
                description="Non-Hermitian oscillator hierarchy toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _FORMATS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--mode", choices=["forward", "inverse"])
        for flag in ("--omega-bar", "--rho-q", "--d", "--omega", "--alpha",
                     "--beta"):
            sp.add_argument(flag, type=float)
        sp.add_argument("--n-max", type=int)
        sp.add_argument("--out", type=str)
        sp.add_argument("--format", choices=_FORMATS[name])
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
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("the config document must be a JSON object")
        names = {f.name for f in fields(cfg)}
        for key, value in data.items():
            if key not in names:
                raise ConfigError(f"unknown config field {key!r}")
            setattr(cfg, key, value)
    for key in ("mode", "omega_bar", "rho_q", "d", "omega", "alpha", "beta",
                "n_max", "out", "format", "side",
                "sweep_param", "sweep_steps"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    for key, item in (("n_list", int), ("z_grid", float)):
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
            value = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance value in {item!r}")
        if isinstance(cfg.tols, dict):  # validate reports any other tols
            cfg.tols[name] = value
    if isinstance(cfg.sweep_range, list):
        cfg.sweep_range = tuple(cfg.sweep_range)
    cfg.validate()
    # a format the config sets is refused as the --format flag refuses it;
    # the default json is not checked: sweep writes csv whatever it holds
    formats = _FORMATS[args.command]
    if "format" in data and cfg.format not in formats:
        raise ConfigError(f"{args.command} writes {' or '.join(formats)}, "
                          f"not {cfg.format!r}")
    return cfg


COMMANDS = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "wavefunctions": cmd_wavefunctions,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except (SwansonError, ArithmeticError, ValueError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
