"""Command-line interface: configuration, commands and their output.

Commands: solve, spectrum, wavefunctions, verify, sweep (the checks of verify
are the table in ``swanson.verify``).  A run is described by a JSON config
document; every config field can be overridden by a flag (flags win), taken
before or after the command, and one check refuses a bad value whoever set
it.  All numeric output uses fixed 17-significant-digit formatting and fixed
row ordering, so identical configs produce byte-identical files.

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


# field -> (test, what it must be), checked by RunConfig.validate whether a
# flag or the config document set it; each field here has one flag
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
    "sweep_range": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                    and all(map(_finite, v)), "two finite numbers"),
    "side": (lambda v: v in ("plus", "minus"), "plus or minus"),
    "sweep_param": (lambda v: v in ("rho_q", "d", "omega_bar"),
                    "rho_q, d or omega_bar"),
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

    def validate(self, command: str, format_set: bool):
        """The rules, the mode's invariants, the tolerances, and a format
        that was set (not the default: sweep writes csv whatever it holds)."""
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
        formats = _COMMAND_ARGS[command][0]
        if format_set and self.format not in formats:
            raise ConfigError(f"{command} writes {' or '.join(formats)}, "
                              f"not {self.format!r}")


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
    ns = sorted(set(cfg.n_list))
    z = np.array([float(v) for v in cfg.z_grid if v > 0])
    rows = []
    for n in ns:
        # the order-1 jet of the one-row ladder range(n, n + 1); a value or
        # derivative out of float range (inf, or NaN from 0 times inf) is
        # an OverflowError at the first grid point where it leaves
        if cfg.side == "plus":
            j = spectrum.phi_plus_jet(fp, range(n, n + 1), z, 1)
        else:
            j = spectrum.phi_minus_jet(fp, range(n, n + 1), z,
                                       "normalized", 1)
        v, dv = j.value[0], j.derivative(1)[0]
        bad = ~(np.isfinite(v) & np.isfinite(dv))
        if bad.any():
            raise OverflowError(f"state {n} leaves the float range at "
                                f"z = {z[bad.argmax()].item()!r}")
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
    def error(self, message):
        print(f"config error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _items(item, sep: str):
    """The type of a flag's text of ``item``s joined by ``sep``; argparse
    names ``item`` in its "invalid <name> value" error."""
    def parse(text: str) -> list:
        return [item(t) for t in text.split(sep) if t != ""]
    parse.__name__ = item.__name__
    return parse


def _tolerance(text: str) -> tuple[str, float]:
    name, _, value = text.partition("=")
    return name, float(value)


_tolerance.__name__ = "NAME=VALUE"  # argparse's "invalid NAME=VALUE value"

# RunConfig field -> the type of its flag's text, where it is not a string
_FLAG_TYPES = {**dict.fromkeys(("omega_bar", "rho_q", "d", "omega", "alpha",
                                "beta"), float), "n_max": int,
               "sweep_steps": int, "n_list": _items(int, ","),
               "z_grid": _items(float, ","), "sweep_range": _items(float, ":")}

# command -> (the formats it writes, the fields whose flags only it takes)
_COMMAND_ARGS = {
    "solve": (("json",), ()), "verify": (("json",), ()),
    "spectrum": (("json", "csv"), ()),
    "wavefunctions": (("json", "csv"), ("side", "n_list", "z_grid")),
    "sweep": (("csv",), ("sweep_param", "sweep_range", "sweep_steps"))}
_FLAG_OWNER = {name: command for command, (_, own) in _COMMAND_ARGS.items()
               for name in own}
# RunConfig field -> its flag: the name with dashes, less "sweep_"
_FLAGS = {name: "--" + name.removeprefix("sweep_").replace("_", "-")
          for name in _FIELD_RULES}


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process, built on the first ``main`` call.  Its
    namespace holds the command and only the flags that were given."""
    p = _Parser(prog="swanson", argument_default=argparse.SUPPRESS,
                description="Non-Hermitian oscillator hierarchy toolkit")
    # a token that starts like a negative number ("-2.5e-3", "-1:2", "-inf",
    # "-nan") is a value; argparse's own pattern misses exponents, ranges and
    # non-numbers and takes such a token for an option name
    p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.I)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config")
    for name in _FIELD_RULES:
        p.add_argument(_FLAGS[name], dest=name, type=_FLAG_TYPES.get(name),
                       help=_FLAG_OWNER.get(name) and
                       f"{_FLAG_OWNER[name]} only")
    p.add_argument("--tol", action="append", dest="tols", type=_tolerance,
                   metavar="NAME=VALUE")
    return p


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, then the config document's fields, then the flags that
    were given, checked as one (``RunConfig.validate``)."""
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config", None)
    cfg = RunConfig()
    data = {}
    if path:
        try:
            with open(path) as fh:
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
    for name, value in flags.items():
        owner = _FLAG_OWNER.get(name, command)
        if owner != command:
            raise ConfigError(f"{_FLAGS[name]} is a flag of {owner}, "
                              f"not of {command}")
        if name != "tols":
            setattr(cfg, name, value)
        elif isinstance(cfg.tols, dict):  # validate reports any other tols
            cfg.tols.update(value)
    cfg.validate(command, "format" in data or "format" in flags)
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
