"""Shared exception types."""


class ConfigError(Exception):
    """A run configuration the program cannot use (exit code 1)."""


class SwansonError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SwansonError):
    """Evaluation requested at a singular or out-of-range point."""


class ModeError(SwansonError):
    """Operation needs parameters that the current solver mode does not carry."""


class NoPositiveRoot(SwansonError):
    """The cubic for the pole parameter has no positive real root."""


class Infeasible4X(SwansonError):
    """The feasibility bound on the oscillator-strength combination fails."""


class BranchViolation(SwansonError):
    """The selected coupling branch violates its sign/magnitude restrictions."""


class PoleAtNonPositiveInteger(DomainError):
    """Gamma function evaluated at a pole."""


class PoleConfiguration(DomainError):
    """Hypergeometric closed form hits a pole configuration."""


class JetOrderExceeded(SwansonError):
    """A composition would need Taylor data beyond the configured jet budget."""


class NonConvergent(SwansonError):
    """An iterative numerical routine failed to reach its tolerance."""
