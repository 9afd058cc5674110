"""Exception types shared across the package, one per kind of refused object.

Everything derives from :class:`SoftMeasError` (a ``ValueError``), so callers
can catch either the specific condition or the whole family:

- :class:`DimensionMismatch`: operand shapes or dimensions;
- :class:`InvalidState`: a matrix that must be Hermitian, PSD or of unit
  trace (a density matrix, or an eigensolver or square-root input);
- :class:`InvalidMeasurement`: a measurement's correlation matrices;
- :class:`InvalidChannel`: a set of Kraus operators;
- :class:`InvalidParams`: a scalar parameter, or a bundle of them;
- :class:`ConfigError`: a sweep's configuration or output.

A check on a stack of matrices gives the first failing member in the
exception's ``index``; the exception, and nothing else, formats it into the
message. Every such check raises through ``softmeas.matcore._refuse``, the
one place that finds that member, by one of two rules: a check of
sequential rules names the first rule that fails, at its first failing
member; a check that gathers its rules (a measurement's) names every rule
that fails at the first failing member, joined with ``"; "``.
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


class DimensionMismatch(SoftMeasError):
    """Operand dimensions are incompatible."""


class InvalidState(SoftMeasError):
    """A matrix fails the Hermitian, PSD or unit-trace invariant its use requires."""


class InvalidMeasurement(SoftMeasError):
    """Measurement parameterization fails its validity checks."""


class InvalidChannel(SoftMeasError):
    """Kraus operators do not form a trace-preserving channel."""


class InvalidParams(SoftMeasError):
    """A scalar parameter, alone or in a bundle, lies outside its domain."""


class ConfigError(SoftMeasError):
    """Sweep configuration is malformed or out of range."""
