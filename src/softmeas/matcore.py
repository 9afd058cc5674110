"""Dense complex linear-algebra kernel shared by the measurement modules.

Provides Hermitian eigendecomposition, principal square roots of PSD
matrices, partial traces over tensor factors, and von Neumann entropy in
bits. All functions are pure; inputs are never mutated. Every check uses the
tolerances below; no function takes a tolerance argument.

Shape contract: :func:`herm_eig`, :func:`matrix_sqrt_psd`,
:func:`validate_density_matrix` and :func:`von_neumann_entropy` take either
one ``(D, D)`` matrix or a stack of shape ``(..., D, D)``, and a stack
gives, member by member, the same floats as the calls on its members one at
a time (a single matrix runs the same code as a stack of one). Results keep
the stack axes in front; a scalar result such as an entropy is a ``float``
for one matrix and an array of the stack shape otherwise. A check that
fails on a stack names the index of the first failing member (C order) in
its message and in the exception's ``index``. :func:`partial_trace` takes
one matrix.

Each check decomposes a matrix once: :func:`validate_density_matrix`
returns the ascending eigenvalues it checked (shape ``(..., D)``), and
:func:`von_neumann_entropy` takes its entropy from them;
``_checked_density`` can return the eigenvectors of the same decomposition.

Working dimensions are small (<= 64), so everything is backed by dense
LAPACK routines through ``numpy.linalg``, which loops over a stack in C.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidState, NotHermitian, NotPSD

# Tolerances, fixed once for the whole package. Double precision leaves a
# wide margin at these dimensions.
TAU_HERM = 1e-10
TAU_PSD = 1e-10
TAU_TRACE = 1e-9
TAU_RECON = 1e-9

# Entropy treats eigenvalues in [-ENTROPY_CLAMP, 0) as exact zeros; anything
# more negative is a genuine invariant violation.
ENTROPY_CLAMP = 1e-10


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of a stack of them.

    ``eigenvalues`` are real and ascending along the last axis; column ``i``
    of ``eigenvectors`` (``eigenvectors[..., :, i]``) is the unit
    eigenvector for ``eigenvalues[..., i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """Largest ``|M - M^dagger|`` entry of each matrix; NaN if an entry is not finite."""
    with np.errstate(invalid="ignore"):
        return np.max(np.abs(m - _dagger(m)), axis=(-2, -1), initial=0.0)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True member of ``bad`` in C order; None if there is none.

    A 0-d ``bad`` (one matrix) yields the empty index ``()``.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _label(index: tuple[int, ...]) -> str:
    """``[i, j]`` for a stack member, empty for a single matrix."""
    return f"[{', '.join(map(str, index))}]" if index else ""


def _member(index: tuple[int, ...]) -> str:
    return f" (stack member {_label(index)})" if index else ""


def _entrywise(fn, *arrays, dtype: type = float) -> np.ndarray:
    """``fn`` applied to each entry of the broadcast ``arrays``, as Python numbers.

    For libm functions (``math.log2``, ``math.cos``, ``pow``, ``cmath.exp``...)
    whose numpy loops may round differently in the last ulp: the result holds
    exactly the values of the scalar calls, without a Python-level loop per
    entry. ``dtype`` is ``complex`` for a function with complex results.
    """
    arrays = np.broadcast_arrays(*arrays)
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, dtype, arrays[0].size).reshape(arrays[0].shape)


def herm_eig(matrix: np.ndarray) -> Spectrum:
    """Eigendecompose a Hermitian matrix or a stack of them.

    Raises :class:`NotHermitian` if any entry of ``matrix - matrix^dagger``
    exceeds ``TAU_HERM`` in modulus, or is not finite. The decomposition
    itself runs on the Hermitian part, which makes results deterministic for
    inputs that are Hermitian only up to rounding.
    """
    m = _as_square(matrix)
    dev = _hermitian_deviation(m)
    i = _first(~(dev <= TAU_HERM))
    if i is not None:
        raise NotHermitian(
            f"max |M - M^dagger| entry {dev[i]:.3e} exceeds {TAU_HERM:.1e}{_member(i)}",
            index=i or None,
        )
    w, v = np.linalg.eigh(_hermitian_part(m))
    return Spectrum(eigenvalues=w, eigenvectors=v)


def matrix_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix or of each in a stack.

    Eigenvalues in ``[-TAU_PSD, 0)`` are clamped to zero; anything more
    negative raises :class:`NotPSD`. The result is Hermitian PSD and squares
    back to the input within reconstruction tolerance.
    """
    w, v = herm_eig(matrix)
    i = _first(w[..., 0] < -TAU_PSD)
    if i is not None:
        raise NotPSD(
            f"smallest eigenvalue {w[i][0]:.3e} below -{TAU_PSD:.1e}{_member(i)}",
            index=i or None,
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ _dagger(v)
    return _hermitian_part(root)


def partial_trace(
    rho: np.ndarray, dims: Sequence[int], keep: Iterable[int] | int
) -> np.ndarray:
    """Trace out all tensor factors of ``rho`` except those in ``keep``.

    ``dims`` lists the factor dimensions in tensor order (their product must
    equal the side of ``rho``); ``keep`` is a factor index or a collection of
    them. Kept factors retain their original relative order.
    """
    rho = _as_square(rho, "rho")
    if rho.ndim != 2:
        raise DimensionMismatch(f"rho must be one matrix, got shape {rho.shape}")
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != rho.shape[0]:
        raise DimensionMismatch(
            f"product of dims {dims} is {total}, but rho has side {rho.shape[0]}"
        )
    if isinstance(keep, (int, np.integer)):
        keep = [keep]
    keep_list = sorted({int(k) for k in keep})
    if not keep_list:
        raise DimensionMismatch("keep must name at least one factor")
    if keep_list[0] < 0 or keep_list[-1] >= len(dims):
        raise DimensionMismatch(f"keep indices {keep_list} out of range for {len(dims)} factors")

    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep_list), reverse=True):
        m = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + m)
    side = int(np.prod([dims[k] for k in keep_list]))
    return reshaped.reshape(side, side)


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Raise :class:`InvalidState` unless ``rho`` is a valid density matrix,
    or, for a stack, unless every member is.

    Checks Hermiticity (within ``TAU_HERM``; a non-finite entry fails it),
    unit trace (within ``TAU_TRACE``) and positive semidefiniteness (within
    ``TAU_PSD``), naming the violated invariant, and for a stack the first
    member that violates it, in the message. Returns the ascending
    eigenvalues of the Hermitian part that the PSD check computed, shape
    ``(..., D)``, so that a caller needing the spectrum (an entropy, say)
    does not decompose the matrix again.
    """
    return _checked_density(rho, name, vectors=False)[0]


def _checked_density(
    rho: np.ndarray, name: str, vectors: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The checks of :func:`validate_density_matrix`. Returns the ascending
    eigenvalues of the Hermitian part that the PSD check computed and, with
    ``vectors``, their eigenvectors from the same ``eigh`` call (else None),
    for a caller that needs the eigenvectors too."""
    m = _as_square(rho, name)
    dev = _hermitian_deviation(m)
    i = _first(~(dev <= TAU_HERM))
    if i is not None:
        raise InvalidState(
            f"{name}{_label(i)} not Hermitian: deviation {dev[i]:.3e} > {TAU_HERM:.1e}",
            index=i or None,
        )
    tr = np.trace(m, axis1=-2, axis2=-1)
    i = _first(np.abs(tr - 1.0) > TAU_TRACE)
    if i is not None:
        raise InvalidState(
            f"{name}{_label(i)} trace {complex(tr[i]):.12g} differs from 1 "
            f"by more than {TAU_TRACE:.1e}",
            index=i or None,
        )
    h = _hermitian_part(m)
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    i = _first(w[..., 0] < -TAU_PSD)
    if i is not None:
        raise InvalidState(
            f"{name}{_label(i)} not PSD: smallest eigenvalue {w[i][0]:.3e} < -{TAU_PSD:.1e}",
            index=i or None,
        )
    return w, v


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy of a density matrix, in bits; for a stack, one
    entropy per member.

    ``rho`` is checked by :func:`validate_density_matrix`, and the entropy
    is taken from the spectrum that check computed, so one eigensolve serves
    both. Eigenvalues are clamped to ``[0, 1]`` with the convention
    ``0 * log2(0) = 0``. Negative eigenvalues within ``ENTROPY_CLAMP`` are
    treated as zero; larger violations raise :class:`InvalidState`.
    """
    return _entropy(validate_density_matrix(rho))


def _unchecked_entropy(rho: np.ndarray) -> float | np.ndarray:
    """:func:`von_neumann_entropy` without the density checks, for library
    code whose argument is a density matrix by construction; only the
    eigenvalue clamp of :func:`_entropy` still applies."""
    return _entropy(np.linalg.eigvalsh(_hermitian_part(_as_square(rho, "rho"))))


def _entropy(w: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits from ascending eigenvalues ``w`` of shape
    ``(..., D)``, as :func:`von_neumann_entropy` defines it."""
    i = _first(w[..., 0] < -ENTROPY_CLAMP)
    if i is not None:
        raise InvalidState(
            f"eigenvalue {w[i][0]:.3e} below -{ENTROPY_CLAMP:.1e}{_member(i)}", index=i or None
        )
    w = np.clip(w, 0.0, 1.0)
    terms = w * np.log2(np.where(w > 0.0, w, 1.0))
    entropy = np.asarray(-terms.sum(axis=-1) + 0.0)
    if w.shape[-1] >= 8:
        # numpy sums eight or more terms pairwise, so the zero terms of
        # clamped eigenvalues regroup the sum; sum the positive terms only.
        for i in map(tuple, np.argwhere(np.any(w == 0.0, axis=-1))):
            positive = w[i][w[i] > 0.0]
            entropy[i] = -(positive * np.log2(positive)).sum() + 0.0
    return float(entropy) if entropy.ndim == 0 else entropy
