"""Exactly solvable non-Hermitian oscillator hierarchy.

A quadratic non-Hermitian oscillator, its Hermitian equivalents built from a
rational superpotential, and the half-line oscillator pair they transform
into.  The package solves the forward and inverse parameter-matching
problems, evaluates every potential form and operator of the hierarchy,
produces closed-form spectra and eigenfunctions, and checks all of it against
independent oracles: the Gauss-rule Galerkin mesh in t = s z^2 and the
Gauss-Laguerre quadrature.  It re-exports
nothing: ``swanson.cli`` runs the commands and imports every module.  Kept
besides what the commands run: the FD pipeline of ``numeric`` and
``specialfn.kummer`` (the benchmark tracer wraps them; the tests' references),
``Jet.exp``, ``Jet.log``, ``Jet.power`` and ``Jet.sqrt`` (the tracer counts
them) and ``diffop.formal_adjoint`` (to build the paper's H- from its
definition).
"""

__version__ = "0.1.0"
