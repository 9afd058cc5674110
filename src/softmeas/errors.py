"""Exception types shared across the package.

Everything derives from :class:`SoftMeasError` (a ``ValueError``), so callers
can catch either the specific condition or the whole family. A check on a
stack of matrices gives the first failing member in the exception's
``index``; the exception, and nothing else, formats it into the message.
Such a check raises through ``softmeas.matcore._refuse``, the one place
that finds that member; only the correlation-matrix check, which gathers
failures before raising, finds it itself.
"""

from __future__ import annotations


class SoftMeasError(ValueError):
    """Base class for all validation and domain errors raised here.

    ``index`` locates the failure in the leading (stack) axes of a checked
    ``(..., D, D)`` array: the index of the first member, in C order, that
    failed. It is None when the input was a single matrix (an empty index
    is stored as None). The message names that member in one place only:
    ``str()`` ends in `` (stack member [i, j])`` when ``index`` is set, so a
    caller that moves the failure in a larger stack (a sweep naming its grid
    row) changes ``index`` and the message follows.
    """

    def __init__(self, *args: object, index: tuple[int, ...] | None = None) -> None:
        super().__init__(*args)
        self.index = index or None

    def __str__(self) -> str:
        text = super().__str__()
        if self.index is None:
            return text
        return f"{text} (stack member [{', '.join(map(str, self.index))}])"


class NotHermitian(SoftMeasError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSD(SoftMeasError):
    """Hermitian matrix has an eigenvalue below the negativity tolerance."""


class DimensionMismatch(SoftMeasError):
    """Operand dimensions are incompatible."""


class InvalidState(SoftMeasError):
    """Density-matrix invariants (Hermitian, PSD, unit trace) are violated."""


class InvalidMeasurement(SoftMeasError):
    """Measurement parameterization fails its validity checks."""


class InvalidChannel(SoftMeasError):
    """Kraus operators do not form a trace-preserving channel."""


class InvalidParams(SoftMeasError):
    """Scalar parameter bundle violates its invariants."""


class OutOfRange(SoftMeasError):
    """Scalar argument outside its documented range."""


class ConfigError(SoftMeasError):
    """Sweep configuration is malformed or out of range."""
