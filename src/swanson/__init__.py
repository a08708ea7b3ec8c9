"""Exactly solvable non-Hermitian oscillator hierarchy.

A quadratic non-Hermitian oscillator, its Hermitian equivalents built from a
rational superpotential, and the half-line oscillator pair they transform
into.  The package solves the forward and inverse parameter-matching
problems, evaluates every potential form and operator of the hierarchy,
produces closed-form spectra and eigenfunctions, and checks all of it against
independent finite-difference and quadrature oracles.
"""

__version__ = "0.1.0"

from .errors import (BranchViolation, DomainError, Infeasible4X,
                     JetOrderExceeded, ModeError, NonConvergent,
                     NoPositiveRoot, PoleAtNonPositiveInteger,
                     PoleConfiguration, SwansonError)
from .jets import Jet
from .params import (ConstraintReport, DerivedConstants, FactorizationParams,
                     ModelParams, check_constraints, derive_constants,
                     solve_forward, solve_inverse)
from .potentials import (Form, PointFunctions, Side, coord_x, coord_z,
                         eval_potential, eval_potential_z, log_rho,
                         point_functions, transform_shift, unit_commutator_b)
from .diffop import LinDiffOp, build, compose, conjugate, formal_adjoint, residual
from .spectrum import (GKPotential, SpectralLine, WavefunctionEval,
                       energies_plus, energy_shift, gk_eigenvalues, gk_of,
                       gk_wavefunction, j_integral, phi_minus, phi_plus,
                       psi_plus, psi_plus_norm)
from .numeric import (SpectrumComparison, TridiagSystem, compare_spectra,
                      fd_discretize, quad_halfline, refine_extrapolate,
                      tridiag_eigs)

__all__ = [
    "__version__",
    "SwansonError", "DomainError", "ModeError", "NoPositiveRoot",
    "Infeasible4X", "BranchViolation", "PoleAtNonPositiveInteger",
    "PoleConfiguration", "JetOrderExceeded", "NonConvergent",
    "Jet",
    "ModelParams", "DerivedConstants", "FactorizationParams",
    "ConstraintReport", "derive_constants", "solve_forward", "solve_inverse",
    "check_constraints",
    "Side", "Form", "PointFunctions", "point_functions", "eval_potential",
    "eval_potential_z", "transform_shift", "coord_x", "coord_z", "log_rho",
    "unit_commutator_b",
    "LinDiffOp", "build", "compose", "formal_adjoint", "conjugate", "residual",
    "GKPotential", "SpectralLine", "WavefunctionEval", "gk_eigenvalues",
    "gk_wavefunction", "gk_of", "energy_shift", "energies_plus", "phi_plus",
    "phi_minus", "psi_plus", "psi_plus_norm", "j_integral",
    "TridiagSystem", "SpectrumComparison", "fd_discretize", "tridiag_eigs",
    "refine_extrapolate", "quad_halfline", "compare_spectra",
]
