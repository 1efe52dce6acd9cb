"""Exception types shared across the package."""


class LoraProError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(LoraProError, ValueError):
    """Operands have incompatible or invalid shapes."""


class NonFiniteError(LoraProError, ValueError):
    """A computation produced or received NaN/Inf entries."""


class FactorizationError(LoraProError, RuntimeError):
    """Cholesky factorization failed even after damping.

    ``leading_minor`` is the 1-based index of the first non-positive-definite
    leading minor reported by the factorization.
    """

    def __init__(self, message: str, leading_minor: int = 0):
        super().__init__(message)
        self.leading_minor = leading_minor


class EigenDecompositionError(LoraProError, RuntimeError):
    """Symmetric eigendecomposition did not converge."""


class SpectrumError(LoraProError, RuntimeError):
    """An eigenvalue-pair sum fell at or below the solvability floor.

    Carries the offending ``(lam, mu)`` pair so callers can report which
    coefficient spectra collided.
    """

    def __init__(self, message: str, pair: tuple = (0.0, 0.0)):
        super().__init__(message)
        self.pair = pair


class DescentViolationError(LoraProError, RuntimeError):
    """The predicted loss change came out positive, which the theory forbids."""


class RankDeficiencyError(LoraProError, RuntimeError):
    """A full-rank precondition does not hold numerically."""


class ConfigError(LoraProError, ValueError):
    """Invalid run configuration; the message names the offending key."""


class StateError(LoraProError, ValueError):
    """An optimizer state a step cannot write in place: its moments are
    read-only or may share memory; the message names the fault."""


class CheckpointError(LoraProError, ValueError):
    """A checkpoint file is damaged or is not a checkpoint; the message names the fault."""
