"""Shared fixtures: the reference parameter set, frozen feasible inverse
triples, and the generic sample-point sets used by the identity checks."""

import os
from pathlib import Path

import numpy as np
import pytest

import swanson
from swanson import verify
from swanson.params import ModelParams, solve_forward, solve_inverse

# Reference forward solution used throughout the suite.
PSTAR = dict(omega_bar=1.0, rho_q=1.0, d=1.0)

# Frozen (omega, alpha, beta) triples for which the inverse matching problem
# is feasible (positive cubic root, correct branch for c, positive rho_q).
FEASIBLE_TRIPLES = [
    (0.0375710788598238, -2.4421921617411186, 0.8317834733059061),
    (-0.04972304300243702, -0.44820697619758043, 0.11360053437380646),
    (-0.2598833450661626, 0.7390455133687768, -3.116496031644873),
    (-1.4295989748215783, -3.1741300961429753, 0.6827385366812224),
    (0.43525445662819795, 0.3009118010171472, -1.9386463668915057),
]

# The sample points of the verify battery, in ascending order.
SAMPLE_X = sorted(verify.SAMPLE_X)
SAMPLE_Z = sorted(verify.SAMPLE_Z)


def subprocess_env() -> dict:
    """Environment in which a child interpreter imports this swanson."""
    src = str(Path(swanson.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture(scope="session")
def fp_star():
    return solve_forward(**PSTAR)


@pytest.fixture(scope="session")
def inverse_sets():
    out = []
    for om, al, be in FEASIBLE_TRIPLES:
        mp = ModelParams(om, al, be)
        fp, report = solve_inverse(mp)
        out.append((mp, fp, report))
    return out


def random_forward_sets(count, seed=0):
    """Deterministic randomized forward parameter sets."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        ob = float(rng.uniform(0.2, 4.0))
        rq = float(rng.uniform(0.1, 3.0))
        d = float(rng.uniform(0.2, 3.0))
        out.append(solve_forward(ob, rq, d))
    return out


def pointwise_hex(jet, size: int) -> list[list[str]]:
    """The coefficients of a jet at each of its ``size`` points, by
    ``float.hex`` (a float coefficient is the same at every point)."""
    cols = [np.broadcast_to(c, size).tolist() for c in jet.coeffs]
    return [[float(col[i]).hex() for col in cols] for i in range(size)]


def random_box_points(count: int, seed: int) -> np.ndarray:
    """``count`` points log-uniform in [1e-4, 16], the z range of the
    states' bit-identity checks."""
    rng = np.random.default_rng(seed)
    return 10 ** rng.uniform(-4, np.log10(16), size=count)
