"""Exception types shared across the package.

Everything derives from :class:`SoftMeasError` (a ``ValueError``), so callers
can catch either the specific condition or the whole family.
"""

from __future__ import annotations


class SoftMeasError(ValueError):
    """Base class for all validation and domain errors raised here.

    ``index`` locates the failure in the leading (stack) axes of a checked
    ``(..., D, D)`` array: the index of the first member, in C order, that
    failed. It is None when the input was a single matrix. ``indices``
    lists every stack index that the message names, in the order it names
    them; by default just ``index``.
    """

    def __init__(
        self,
        *args: object,
        index: tuple[int, ...] | None = None,
        indices: tuple[tuple[int, ...], ...] | None = None,
    ) -> None:
        super().__init__(*args)
        self.index = index
        self.indices = indices if indices is not None else (index,) if index else ()


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
