"""Shared fixtures: the reference parameter set, frozen feasible inverse
triples, and the generic sample-point sets used by the identity checks."""

import os
from pathlib import Path

import numpy as np
import pytest

import swanson
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

# Generic sample points keeping |x| in [0.3, 5] away from the singular loci.
SAMPLE_X = [-4.6, -3.1, -2.3, -1.7, -1.3, -0.9, -0.62, -0.41, -0.3, 0.33,
            0.47, 0.71, 0.85, 1.1, 1.55, 2.1, 2.7, 3.4, 4.1, 4.8]
SAMPLE_Z = [0.31, 0.37, 0.45, 0.52, 0.6, 0.68, 0.8, 0.92, 1.0, 1.12,
            1.25, 1.5, 1.65, 1.8, 1.95, 2.1, 2.3, 2.5, 2.9, 3.3]


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
