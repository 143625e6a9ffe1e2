"""Exception types shared across the package.

Plain ``ValueError`` is used for ordinary bad arguments; the classes here
mark contract violations a caller may want to handle individually.
"""


class VanHoveError(ValueError):
    """Base class for all package-specific errors."""


class GridMismatchError(VanHoveError):
    """Two kernel objects do not live on the same energy or phase grid."""


class IncompatibleBasisError(VanHoveError):
    """State and observable matrices are indexed by different bases."""


class DomainMismatchError(VanHoveError):
    """Requested energy is unreachable on the given phase-space window."""


class InvalidShellError(VanHoveError):
    """A degeneracy-shell block is not Hermitian within tolerance."""


class NotEquilibratedError(VanHoveError):
    """Operation requires a weak-limit state but cross-shell blocks remain."""


class InvalidPotentialError(VanHoveError):
    """Potential is negative inside its support, or a table vanishes inside it."""


class DegenerateSupportError(VanHoveError):
    """A mollified constraint product has (numerically) empty support."""

    def __init__(self, message: str, raw_mass: float = 0.0):
        super().__init__(message)
        self.raw_mass = raw_mass


class ConfigError(VanHoveError):
    """Experiment configuration failed to parse or validate."""
