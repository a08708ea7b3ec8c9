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
    from swanson import numeric
    plain = numeric.refine_extrapolate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_case()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", "--grids", "250,500", "--steps", "1"])
        counts = tracer.end_case(1.0)
    finally:
        tracer.uninstall()
    assert rc == 0
    assert numeric.refine_extrapolate is plain
    assert counts["numeric.tridiag_eigs.rows"] > 0
    assert counts["numeric.fd_discretize.points"] > 0
    assert counts["diffop.residual.points"] > 0
    assert counts["jets.Jet.ops"] > 0
