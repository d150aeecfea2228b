"""Exception types shared across the engine.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse raises the closest builtin instead.
"""


class QmmeError(Exception):
    """Base class for all engine-specific errors."""


class DimensionMismatch(QmmeError, ValueError):
    """Operands have incompatible shapes or a vector is not a square length."""


class NotHermitian(QmmeError, ValueError):
    """A matrix required to be Hermitian fails the tolerance check."""


class NotHermitianZeta(NotHermitian):
    """A bath principal-value matrix zeta(omega) is not Hermitian."""


class NotUnitary(QmmeError, ValueError):
    """An evaluated operator drifts from unitarity beyond tolerance."""


class NotPSD(QmmeError, ValueError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""

    frequency = None  # the bath frequency at which it failed, when known


class NoConvergence(QmmeError, RuntimeError):
    """An iterative routine exhausted its refinement budget."""


class Overflow(QmmeError, ArithmeticError):
    """A computation produced non-finite intermediates."""


class UnknownFrequency(QmmeError, KeyError):
    """A requested frequency is not in the decomposition's frequency set."""


class OrderViolation(QmmeError, ValueError):
    """Two-time arguments supplied in the wrong order (s > t)."""


class SpectralViolation(QmmeError, ValueError):
    """A generator spectrum breaks a structural guarantee (positive real part,
    missing zero eigenvalue, or broken conjugation symmetry)."""


class Defective(QmmeError, ValueError):
    """A generator is numerically non-diagonalizable (eigenvector condition
    number beyond threshold), so eigen-expansion based analysis is refused."""


class InsufficientDecay(QmmeError, ValueError):
    """A trajectory never approaches its limit cycle closely enough to fit an
    asymptotic decay rate."""


class InadmissibleModel(QmmeError, ValueError):
    """A model failed its admissibility checks; the generator build is refused.

    Carries the ValidationReport as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(QmmeError, ValueError):
    """A model or state file cannot be parsed; message carries location context."""


class SchemaVersionMismatch(ParseError):
    """A model file declares an unsupported schema version."""
