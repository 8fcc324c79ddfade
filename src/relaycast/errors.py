"""Exception types shared across the package."""


class RelaycastError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParameterError(RelaycastError, ValueError):
    """A parameter is outside its documented domain (e.g. q = 0)."""


class InvalidMatrixError(RelaycastError, ValueError):
    """A matrix argument is not a square 1x1 or 2x2 matrix, or has an
    entry that is not a nonnegative ``int``."""


class EnumerationCapError(RelaycastError):
    """Enumerating words, or synthesis's power-graph paths, exceeds a cap."""


class StreamFormatError(RelaycastError, ValueError):
    """A symbol stream or bit string could not be parsed."""


class InfeasibleRateError(RelaycastError):
    """The requested p bits per block exceed what the constraint supports."""


class StateSplitError(RelaycastError):
    """State splitting could not form a required edge partition.

    Raised for an invalid weight vector, and also for some valid ones:
    the greedy cut in :func:`split_states` can miss a partition that
    exists, e.g. ``build_encoder(3, 6, 5)`` with the vector (7, 3) that
    :func:`find_approximate_eigenvector` returns.
    """


class EncoderBuildError(RelaycastError):
    """Encoder synthesis failed."""


class InsufficientDegreeError(EncoderBuildError):
    """A state has fewer outgoing edges than the 2**p required."""


class NonUniformLabelError(EncoderBuildError):
    """Edge labels do not all have the expected block length."""


class AmbiguousEncoderError(EncoderBuildError):
    """No bounded lookahead can tell two encoding paths apart."""


class UnknownCodewordError(RelaycastError):
    """A received block matches no outgoing transition (corrupt stream
    or wrong encoder)."""


class FramingError(RelaycastError, ValueError):
    """Stream length and frame header disagree."""


class EncoderFormatError(RelaycastError, ValueError):
    """Serialized encoder text is malformed."""


class TopologyError(RelaycastError, ValueError):
    """A tree topology description failed validation.

    ``reason`` carries a stable code: one of ``"empty"``, ``"format"``,
    ``"multiple-parents"``, ``"multiple-roots"``, ``"bad-root-id"``,
    ``"unknown-parent"``, ``"cycle"``.
    """

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason


class UnsupportedParameterError(RelaycastError):
    """The operation is only defined for specific parameter values."""
