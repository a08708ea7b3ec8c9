"""The names the benchmark tracer reads from the package.

``perfbench/tracing.py`` wraps package functions and ``Jet`` methods by name
and ``perfbench/run.py`` drives ``cli.main`` with ``cli.DEFAULT_TOLS``; a
name removed from the package breaks the benchmark, not the CLI.  The tracer
is loaded by path and only read.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from conftest import FEASIBLE_TRIPLES
from swanson import cli
from swanson.jets import Jet

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(tracing):
    names = [(mod, attr) for mod, attr, _ in tracing.SPANS] + tracing.MARKERS
    missing = [f"swanson.{mod}.{attr}" for mod, attr in names
               if not callable(getattr(importlib.import_module(
                   f"swanson.{mod}"), attr, None))]
    assert missing == []


def test_every_counted_jet_operation_is_a_jet_method(tracing):
    assert [op for op in tracing.JET_OPS if op not in Jet.__dict__] == []


def test_the_driver_entry_points_exist():
    assert isinstance(cli.DEFAULT_TOLS, dict) and cli.DEFAULT_TOLS
    assert callable(cli.main)


def test_a_traced_run_counts_the_layers_and_restores_them(tracing):
    # the tracer still wraps the FD functions, which no command reaches; an
    # inverse verify reaches diffop.residual (sweep and the forward rows
    # take their products from evaluated coefficient jets).  No command
    # makes a Jet operation, so one product made under the tracer is
    # counted alone
    from swanson import numeric
    plain = numeric.refine_extrapolate
    plain_ops = {op: Jet.__dict__[op] for op in tracing.JET_OPS}
    om, al, be = FEASIBLE_TRIPLES[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_case()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--mode", "inverse", "--omega", repr(om),
                           "--alpha", repr(al), "--beta", repr(be)])
        counts = tracer.end_case(1.0)
        tracer.begin_case()
        Jet.variable(0.5, 2) * Jet.variable(1.5, 2)
        product = tracer.end_case(1.0)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert numeric.refine_extrapolate is plain
    assert counts["diffop.residual.points"] > 0
    assert product["jets.Jet.ops"] == 1
    assert {op: Jet.__dict__[op] for op in tracing.JET_OPS} == plain_ops


def test_the_fd_extras_read_the_arguments_by_position(tracing):
    # the tracer reads the levels and rows of tridiag_eigs(sys, k) and the
    # points of fd_discretize(V, z_min, z_max, n_points) by position
    from swanson import numeric
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_case()
        sys_ = numeric.fd_discretize(lambda z: z * z, 1e-3, 10.0, 40)
        numeric.tridiag_eigs(sys_, 3)
        counts = tracer.end_case(1.0)
    finally:
        tracer.uninstall()
    assert counts["numeric.tridiag_eigs.levels"] == 3
    assert counts["numeric.tridiag_eigs.rows"] == 40
    assert counts["numeric.fd_discretize.points"] == 40


@pytest.fixture
def jet_ops(tracing, monkeypatch) -> list[str]:
    """The Jet operations made while the test runs, by name: each operation
    the tracer counts is wrapped here by name, as the tracer wraps it."""
    counted = []
    for name in tracing.JET_OPS:
        def wrapper(*args, _name=name, _op=getattr(Jet, name), **kwargs):
            counted.append(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(Jet, name, wrapper)
    return counted


def _ops_of(counted: list[str], calls: dict) -> dict:
    """The Jet operations each call makes."""
    ops = {}
    for name, call in calls.items():
        counted.clear()
        call()
        ops[name] = list(counted)
    return ops


def test_the_z_chart_makes_no_jet_operations(jet_ops):
    # w, V+-, the plus states and both minus states are closed forms on
    # plain arrays; the operator minus states take the product w phi on
    # the plain coefficients
    import numpy as np
    from swanson import potentials, spectrum
    from swanson.params import solve_forward

    fp = solve_forward(1.0, 1.0, 1.0)
    z = np.array([0.3, 1.0, 2.5])
    ladder = range(6)
    calls = {
        "eval_potential_z": lambda: [potentials.eval_potential_z(
            side, potentials.Form.CANONICAL, z, fp)
            for side in potentials.Side],
        "w_of_z_jet": lambda: potentials.w_of_z_jet(z, fp, 3),
        "phi_plus_jet": lambda: spectrum.phi_plus_jet(fp, ladder, z, 3),
        "closed": lambda: spectrum.phi_minus_jet(fp, ladder, z, "closed", 3),
        "operator": lambda: spectrum.phi_minus_jet(fp, ladder, z,
                                                   "operator", 2),
        "normalized": lambda: spectrum.phi_minus_jet(fp, ladder, z,
                                                     "normalized", 2),
    }
    assert _ops_of(jet_ops, calls) == {name: [] for name in calls}


def test_the_x_chart_and_the_commands_make_no_jet_operations(jet_ops):
    # every x-chart coefficient is a closed form on plain arrays, and the
    # operators' products, adjoints and conjugations act on the coefficient
    # tuples: no command path makes a Jet operation
    import numpy as np
    from swanson import diffop, potentials
    from swanson.params import ModelParams, solve_inverse
    from swanson.potentials import Side

    mp = ModelParams(*FEASIBLE_TRIPLES[0])
    fp = solve_inverse(mp)[0]
    x = np.array([-2.3, -0.41, 0.47, 3.4])
    calls = {
        "power_jet": lambda: potentials.power_jet(x, 2, 3),
        "b_tilde_jet": lambda: potentials.b_tilde_jet(x, fp, 4),
        "b_plain_jet": lambda: potentials.b_plain_jet(x, fp, 4),
        "b1_jet": lambda: potentials.b1_jet(x, fp, mp, 4),
        "c1_jet": lambda: potentials.c1_jet(x, fp, mp, 3, delta=0.37),
        "dlog_rho_jet": lambda: potentials.dlog_rho_jet(x, fp, mp, 3),
        "eta1_explicit_jet": lambda: potentials.eta1_explicit_jet(
            x, fp, mp, 3),
        **{f"h_zeroth_jet {side.value}": (
            lambda side=side: potentials.h_zeroth_jet(side, x, fp, 3))
           for side in Side},
        **{f"H_zeroth_jet {side.value}": (
            lambda side=side: potentials.H_zeroth_jet(side, x, fp, mp, 3))
           for side in Side},
        **{f"build {which}": (
            lambda which=which: diffop.build(which, fp, mp).at(x, 2))
           for which in ("A", "A_dag", "h_minus", "h_plus", "H_minus",
                         "H_plus", "eta1_constructed", "eta1_explicit")},
    }
    om, al, be = FEASIBLE_TRIPLES[0]
    for name, argv in {
            "sweep": ["sweep"], "verify": ["verify"],
            "verify inverse": ["verify", "--mode", "inverse", "--omega",
                               repr(om), "--alpha", repr(al), "--beta",
                               repr(be)]}.items():
        def run(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
        calls[f"cli {name}"] = run
    assert _ops_of(jet_ops, calls) == {name: [] for name in calls}
