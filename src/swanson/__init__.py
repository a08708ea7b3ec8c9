"""Exactly solvable non-Hermitian oscillator hierarchy.

A quadratic non-Hermitian oscillator, its Hermitian equivalents built from a
rational superpotential, and the half-line oscillator pair they transform
into.  The package solves the forward and inverse parameter-matching
problems, evaluates every potential form and operator of the hierarchy,
produces closed-form spectra and eigenfunctions, and checks all of it against
independent finite-difference and quadrature oracles.  It holds only what
the ``swanson`` commands run; the reference formulas the tests check it
against live in ``tests/reference.py``.
"""

__version__ = "0.1.0"

from .errors import (BranchViolation, DomainError, Infeasible4X,
                     JetOrderExceeded, ModeError, NonConvergent,
                     NoPositiveRoot, SwansonError)
from .jets import Jet
from .params import (ConstraintReport, DerivedConstants, FactorizationParams,
                     ModelParams, check_constraints, derive_constants,
                     solve_forward, solve_inverse)
from .potentials import (Form, Side, coord_x, eval_potential,
                         eval_potential_z, transform_shift)
from .diffop import LinDiffOp, build, compose, conjugate, formal_adjoint, residual
from .spectrum import (energies_plus, j_integral, phi_minus_jet, phi_plus_jet,
                       psi_plus_jet, psi_plus_norm)
from .numeric import (SpectrumComparison, TridiagSystem, compare_spectra,
                      fd_discretize, quad_halfline, refine_extrapolate,
                      tridiag_eigs)

__all__ = [
    "__version__",
    "SwansonError", "DomainError", "ModeError", "NoPositiveRoot",
    "Infeasible4X", "BranchViolation", "JetOrderExceeded", "NonConvergent",
    "Jet",
    "ModelParams", "DerivedConstants", "FactorizationParams",
    "ConstraintReport", "derive_constants", "solve_forward", "solve_inverse",
    "check_constraints",
    "Side", "Form", "eval_potential", "eval_potential_z", "transform_shift",
    "coord_x",
    "LinDiffOp", "build", "compose", "formal_adjoint", "conjugate", "residual",
    "energies_plus", "phi_plus_jet", "phi_minus_jet", "psi_plus_jet",
    "psi_plus_norm", "j_integral",
    "TridiagSystem", "SpectrumComparison", "fd_discretize", "tridiag_eigs",
    "refine_extrapolate", "quad_halfline", "compare_spectra",
]
