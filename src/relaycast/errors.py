"""Exception types shared across the package."""


class RelaycastError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidParameterError(RelaycastError, ValueError):
    """A parameter is outside its documented domain (e.g. q = 0)."""


class InvalidMatrixError(RelaycastError, ValueError):
    """``spectral_radius``'s matrix is not a square 1x1 or 2x2 matrix of
    nonnegative ``int`` entries, or its radius passes the largest float."""


class EnumerationCapError(RelaycastError):
    """Enumerating words, or synthesis's power-graph paths, exceeds a cap."""


class StreamFormatError(RelaycastError, ValueError):
    """A symbol stream or bit string could not be parsed."""


class InfeasibleRateError(RelaycastError):
    """The requested p bits per block exceed what the constraint supports."""


class StateSplitError(RelaycastError):
    """State splitting's greedy cut found no edge partition for a state.

    The cut in :func:`build_encoder`'s split stage can miss a partition
    that exists, e.g. ``build_encoder(3, 6, 5)`` with the vector (7, 3)
    of least sum.
    """


class EncoderBuildError(RelaycastError):
    """A machine, however it was made, fails a check of its construction.

    Not raised itself: its one subclass is
    :class:`AmbiguousEncoderError`.
    """


class AmbiguousEncoderError(EncoderBuildError):
    """No bounded lookahead can tell two encoding paths apart."""


class UnknownCodewordError(RelaycastError):
    """A received block matches no outgoing transition (corrupt stream
    or wrong encoder)."""


class FramingError(RelaycastError, ValueError):
    """Stream length and frame header disagree."""


class EncoderFormatError(RelaycastError, ValueError):
    """An encoder's text or transition table is malformed."""


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
