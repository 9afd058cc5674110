"""Dense complex linear-algebra kernel shared by the measurement modules.

Provides Hermitian eigendecomposition, principal square roots of PSD
matrices, partial traces over tensor factors, and von Neumann entropy in
bits. All functions are pure; inputs are never mutated. Every check uses the
tolerances below; no function takes a tolerance argument.

Shape contract: :func:`herm_eig`, :func:`matrix_sqrt_psd`,
:func:`validate_density_matrix`, :class:`DensityMatrix` and
:func:`von_neumann_entropy` take either one ``(D, D)`` matrix or a stack of
shape ``(..., D, D)``, and a stack gives, member by member, the same floats
as the calls on its members one at a time (a single matrix runs the same
code as a stack of one). Results keep the stack axes in front; a scalar
result such as an entropy is a ``float`` for one matrix and an array of the
stack shape otherwise. A check that fails on a stack puts the index of the
first failing member (C order) in the exception's ``index``, and its message
ends in `` (stack member [i, j])`` (see :class:`~softmeas.errors.SoftMeasError`);
a single matrix gives no index. Such a check raises through ``_refuse``,
the one place that finds that member and reads the message's values at
it; only the two checks that gather failures before raising
(``_check_correlation_matrix`` and ``_check_unit_interval``) find it
themselves. :func:`partial_trace` takes one matrix.

Each check decomposes a matrix once: :func:`validate_density_matrix`
returns the ascending eigenvalues it checked (shape ``(..., D)``);
``_checked_density`` can return the eigenvectors of the same decomposition.
A state is checked once, where it enters: a :class:`DensityMatrix` runs the
check when it is built and keeps those eigenvalues. The functions that take
a state accept a raw array, which they check by building a
:class:`DensityMatrix`, or a :class:`DensityMatrix`, which they do not check
again (only ``coherent_info_channel`` decomposes it once more, for the
eigenvectors of its purification); so :func:`von_neumann_entropy` of a
:class:`DensityMatrix` makes no eigensolve. A state the library derives from
checked parts (a Schur product of states and correlation matrices, a meter
state) is valid by construction and is not checked at all: its entropy is
``_unchecked_entropy``, whose spectrum is the ``eigvalsh`` of the Hermitian
part that the check takes, so it has the same floats, and whose clamp still
raises on an eigenvalue below ``-ENTROPY_CLAMP``. A Gram matrix derived so
(the Schur power ``Q**n`` of a checked ``Q``) likewise takes its root through
``_unchecked_sqrt``, the decomposition and root of :func:`matrix_sqrt_psd`
without its checks, and a checked type that holds derived values is built
through ``_unchecked``, without its ``__post_init__``. Checking them again
would only add up the tolerances of their factors.

Working dimensions are small (<= 64), so everything is backed by dense
LAPACK routines through ``numpy.linalg``, which loops over a stack in C.
A stacked matrix product still makes one BLAS call per member, so where the
right factor is shared by many members (a receiver's meter states by every
grid point, a basis rotation by a column of the grid) the library multiplies
through ``_matmul``: one product per shared factor, the members along the
shared axes joined into one tall left factor. Each entry is the same
length-``D`` dot product either way, and the result equals the stacked
``a @ b`` bit for bit; a test pins that equality, so a BLAS that rounds a
tall product differently fails it rather than moving the outputs. A shared
left factor (the rotation of a column of the ``fig3`` grid, met by every
dephased state in it) takes the same route through ``(b^T @ a^T)^T`` when
it is a float array: each product is then one real product, or a pair of
them for a complex right factor, which commute exactly, so the result
equals ``a @ b`` under ``==``, though an exact zero may change sign. A
complex left factor keeps the plain product, because transposing complex
factors moves bits. ``eve_bob_semiclassical`` gives it a float rotation
whenever none of its factors has an imaginary part, as on ``fig3``: it then
runs its whole rotate, dephase and rotate-back chain in float64, whose
products are those of the complex chain without the exact zeros.

Every eigenvalue-only solve is one ``np.linalg.eigvalsh`` call. One rule
rests on LAPACK's floats: a rigid receiver's spectra are its sorted
populations, the floats that LAPACK returns for a diagonal state. So
``eve_bob_semiclassical`` takes a rigid receiver's spectra (meter states
exactly the basis vectors, as on the ``fig3`` surface) from its
populations, sorted only when ``D > 2`` (an entropy of two terms does not
depend on their order), and builds no output states; a test pins that this
gives the floats of the matrix route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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

# The square root treats a member's eigenvalues at most
# ``D * SQRT_RANK_EPS * max(lambda_max, 0)`` as exact zeros: below that they
# are rounding noise of the decomposition, whose root would be ~sqrt(eps).
SQRT_RANK_EPS = float(np.finfo(float).eps)


def _cast(value, dtype: type) -> np.ndarray:
    """``value`` as an array of ``dtype``. A value past the range of
    ``dtype`` (a ``longdouble`` beyond float64's, say) becomes an infinity,
    which the caller's finiteness checks refuse, with no overflow warning."""
    with np.errstate(over="ignore"):
        return np.asarray(value, dtype=dtype)


def _as_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = _cast(matrix, complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not m.shape[-1]:
        raise DimensionMismatch(f"{name} must be square of side >= 1, got shape {m.shape}")
    return m


def _integer(value, name: str) -> int:
    """``value`` as an ``int``: an integer, or a real float of integral
    value (``2``, ``np.int64(2)``, ``2.0``); :class:`DimensionMismatch`
    names ``name`` for anything else, a bool or an array included."""
    if type(value) is int:
        return value
    v = np.asarray(value)
    if v.ndim or v.dtype.kind not in "iuf" or not (np.isfinite(v) and v == np.floor(v)):
        raise DimensionMismatch(f"{name} must be an integer, got {value!r}")
    return int(v)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices, with one product per shared factor.

    A stack axis that ``b`` lacks, or has of size 1 where ``a``'s is longer,
    shares ``b`` between the members of ``a`` along it. Those axes of ``a``
    are moved next to its row axis and joined with it, so that each ``b``
    meets one tall matrix (for a 2-D ``b``, ``a.reshape(-1, k) @ b``); the
    layout is then restored. With no shared axis this is plain ``a @ b``.
    Each entry is the same length-``k`` dot product either way, so the
    result equals ``a @ b`` bit for bit on the BLAS this is tested with.

    The mirror case, an ``a`` shared along axes where ``b`` varies and a
    ``b`` shared along none, becomes ``(b^T @ a^T)^T``, whose right factor
    ``a^T`` is shared, when ``a`` is real (a float array). Then each
    product ``a_kj * b_jl`` is one real product, or for a complex ``b``
    the pair ``a_kj * b_r`` and ``a_kj * b_i``, which commute exactly, so
    every entry equals ``a @ b`` under ``==``; only the sign of an exact
    zero may differ. A complex ``a`` keeps plain ``a @ b``, because
    transposing complex factors moves bits.
    """
    nd = max(a.ndim, b.ndim) - 2
    a_stack = (1,) * (nd + 2 - a.ndim) + a.shape[:-2]
    b_stack = (1,) * (nd + 2 - b.ndim) + b.shape[:-2]
    shared = [i for i in range(nd) if b_stack[i] == 1 and a_stack[i] > 1]
    if not shared:
        if any(i == 1 < j for i, j in zip(a_stack, b_stack)) and not np.iscomplexobj(a):
            return _matmul(b.swapaxes(-1, -2), a.swapaxes(-1, -2)).swapaxes(-1, -2)
        return a @ b
    kept = [i for i in range(nd) if i not in shared]
    (m, k), n = a.shape[-2:], b.shape[-1]
    a = a.reshape(a_stack + (m, k)).transpose(*kept, *shared, nd, nd + 1)
    rows = a.shape[len(kept) : -1]  # the shared axes, then the row axis
    tall = a.reshape(a.shape[: len(kept)] + (math.prod(rows), k))
    out = tall @ b.reshape(tuple(b_stack[i] for i in kept) + (k, n))
    out = out.reshape(out.shape[: len(kept)] + rows + (n,))
    return out.transpose(*np.argsort(kept + shared), nd, nd + 1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _hermitian_deviation(m: np.ndarray) -> np.ndarray:
    """Largest ``|M - M^dagger|`` entry of each matrix; NaN or inf if an
    entry is not finite or the difference overflows."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.max(np.abs(m - _dagger(m)), axis=(-2, -1), initial=0.0)


def _finite_hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian part of each matrix, and whether each has only finite
    entries: an entry near the largest float overflows the sum to inf,
    which no eigensolver takes."""
    with np.errstate(invalid="ignore", over="ignore"):
        h = _hermitian_part(m)
    return h, np.isfinite(h).all(axis=(-2, -1))


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first True member of ``bad`` in C order; None if there is none.

    A 0-d ``bad`` (one matrix) yields the empty index ``()``.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


def _refuse(bad: np.ndarray, error: type, message: str, *values) -> None:
    """Raise ``error`` at the first True member of ``bad`` (C order), if any.

    The message is ``message.format`` of ``values`` at that member: a value
    with stack axes (``bad``'s) is read at the member, one without (a name,
    a tolerance) goes in as it is, so a caller's name never passes through
    the template. The member is the exception's ``index``; a 0-d ``bad``
    (one matrix) gives none.
    """
    i = _first(bad)
    if i is not None:
        raise error(message.format(*(v[i] if np.ndim(v) else v for v in values)), index=i)


def _entrywise(fn, *arrays, dtype: type = float) -> np.ndarray:
    """``fn`` applied to each entry of the broadcast ``arrays``, as Python numbers.

    For libm functions (``math.log2``, ``math.cos``, ``cmath.exp``...) whose
    numpy loops may round differently in the last ulp: the result holds
    exactly the values of the scalar calls, without a Python-level loop per
    entry. ``dtype`` is ``complex`` for a function with complex results.
    Powers need no such call: ``np.float_power``'s float loop is libm's
    ``pow``, with no SIMD variant, so it gives ``pow``'s floats. numpy's
    ``log2``, ``exp``, ``expm1`` and ``log1p`` have SIMD loops that part from
    libm on some entries, so logarithms and exponentials come through here.
    """
    arrays = np.broadcast_arrays(*arrays)
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, dtype, arrays[0].size).reshape(arrays[0].shape)


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix or a stack of them.

    Returns numpy's ``(eigenvalues, eigenvectors)`` pair: the eigenvalues
    are real and ascending along the last axis, and column ``i`` of the
    eigenvectors (``eigenvectors[..., :, i]``) is the unit eigenvector for
    ``eigenvalues[..., i]``.

    Raises :class:`NotHermitian` if any entry of ``matrix - matrix^dagger``
    exceeds ``TAU_HERM`` in modulus, or is not finite, and if an entry of
    the Hermitian part overflows. The decomposition itself runs on the
    Hermitian part, which makes results deterministic for inputs that are
    Hermitian only up to rounding.
    """
    m = _as_square(matrix)
    dev = _hermitian_deviation(m)
    message = "max |M - M^dagger| entry {:.3e} exceeds {:.1e}"
    _refuse(~(dev <= TAU_HERM), NotHermitian, message, dev, TAU_HERM)
    h, finite = _finite_hermitian_part(m)
    _refuse(~finite, NotHermitian, "(M + M^dagger) / 2 has an entry that overflows")
    return np.linalg.eigh(h)


def matrix_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix or of each in a stack.

    Eigenvalues in ``[-TAU_PSD, 0)`` are clamped to zero; anything more
    negative raises :class:`NotPSD`. Eigenvalues at most
    ``D * SQRT_RANK_EPS`` times the member's largest one are zeros too, so a
    rank-deficient matrix has a root of the same rank. The result is
    Hermitian PSD and squares back to the input within reconstruction
    tolerance.
    """
    w, v = herm_eig(matrix)
    message = "smallest eigenvalue {:.3e} below -{:.1e}"
    _refuse(w[..., 0] < -TAU_PSD, NotPSD, message, w[..., 0], TAU_PSD)
    return _root_of_spectrum(w, v)


def _unchecked(cls: type, **fields):
    """An instance of the dataclass ``cls`` holding ``fields``, built without
    running its ``__post_init__`` checks: for values that library code
    derives from checked parts, which are valid by construction."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _unchecked_sqrt(matrix: np.ndarray) -> np.ndarray:
    """:func:`matrix_sqrt_psd` of a matrix (or stack) that is PSD by
    construction, without its checks: the same decomposition of the
    Hermitian part and the same root, so the same floats."""
    return _root_of_spectrum(*np.linalg.eigh(_hermitian_part(matrix)))


def _root_of_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The principal root of ``v diag(w) v^dagger``, eigenvalues at most
    ``D * SQRT_RANK_EPS`` times the member's largest one (and the negative
    ones) taken as zeros."""
    floor = w.shape[-1] * SQRT_RANK_EPS * np.maximum(w[..., -1:], 0.0)
    root = (v * np.sqrt(np.where(w > floor, w, 0.0))[..., None, :]) @ _dagger(v)
    return _hermitian_part(root)


def partial_trace(
    rho: np.ndarray, dims: Sequence[int], keep: Iterable[int] | int
) -> np.ndarray:
    """Trace out all tensor factors of ``rho`` except those in ``keep``.

    ``dims`` lists the factor dimensions in tensor order (their product must
    equal the side of ``rho``); ``keep`` is a factor index or a collection of
    them. Kept factors retain their original relative order. A dimension or
    index must be an integer or a float of integral value, and ``dims`` a
    sequence of them, or :class:`DimensionMismatch` names it.
    """
    rho = _as_square(rho, "rho")
    if rho.ndim != 2:
        raise DimensionMismatch(f"rho must be one matrix, got shape {rho.shape}")
    try:
        dims = [_integer(d, "factor dimension") for d in dims]
    except TypeError:  # a number, not a sequence of them
        raise DimensionMismatch(f"dims must be a sequence of integers, got {dims!r}") from None
    if any(d < 1 for d in dims):
        raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if total != rho.shape[0]:
        raise DimensionMismatch(
            f"product of dims {dims} is {total}, but rho has side {rho.shape[0]}"
        )
    try:
        keep = list(keep)
    except TypeError:  # one index
        keep = [keep]
    keep_list = sorted({_integer(k, "keep index") for k in keep})
    if not keep_list:
        raise DimensionMismatch("keep must name at least one factor")
    if keep_list[0] < 0 or keep_list[-1] >= len(dims):
        raise DimensionMismatch(f"keep indices {keep_list} out of range for {len(dims)} factors")

    n = len(dims)
    reshaped = rho.reshape(dims + dims)
    for idx in sorted(set(range(n)) - set(keep_list), reverse=True):
        m = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + m)
    side = math.prod(dims[k] for k in keep_list)
    return reshaped.reshape(side, side)


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Raise :class:`InvalidState` unless ``rho`` is a valid density matrix,
    or, for a stack, unless every member is.

    Checks Hermiticity (within ``TAU_HERM``; a non-finite entry fails it),
    unit trace (within ``TAU_TRACE``) and positive semidefiniteness (within
    ``TAU_PSD``; an entry that overflows the Hermitian part fails it),
    naming the violated invariant, and for a stack the first member that
    violates it, in the message. Returns the ascending
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
    message = "{} not Hermitian: deviation {:.3e} > {:.1e}"
    _refuse(~(dev <= TAU_HERM), InvalidState, message, name, dev, TAU_HERM)
    with np.errstate(over="ignore"):
        tr = np.trace(m, axis1=-2, axis2=-1)
    message = "{} trace {:.12g} differs from 1 by more than {:.1e}"
    _refuse(np.abs(tr - 1.0) > TAU_TRACE, InvalidState, message, name, tr, TAU_TRACE)
    # A state of unit trace is PSD only if no entry exceeds 1 in modulus.
    h, finite = _finite_hermitian_part(m)
    _refuse(~finite, InvalidState, "{} not PSD: an entry exceeds 1 in modulus", name)
    w, v = np.linalg.eigh(h) if vectors else (np.linalg.eigvalsh(h), None)
    message = "{} not PSD: smallest eigenvalue {:.3e} < -{:.1e}"
    _refuse(w[..., 0] < -TAU_PSD, InvalidState, message, name, w[..., 0], TAU_PSD)
    return w, v


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A checked density matrix, or a checked ``(..., D, D)`` stack of them.

    ``matrix`` is checked once, when the value is built, by
    :func:`validate_density_matrix` (which raises :class:`InvalidState`,
    its messages naming the state ``name``), and ``eigenvalues`` keeps the
    ascending eigenvalues that check computed, shape ``(..., D)``. The
    functions that take a state never check a :class:`DensityMatrix` again.
    """

    matrix: np.ndarray
    name: str = field(default="rho", repr=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _cast(self.matrix, complex))
        object.__setattr__(self, "eigenvalues", validate_density_matrix(self.matrix, self.name))


# What the functions that take a state accept: a raw array, which they
# check, or a DensityMatrix, which they do not check again.
StateLike = np.ndarray | DensityMatrix


def _state(rho: StateLike, dim: int | None = None) -> DensityMatrix:
    """``rho`` as a :class:`DensityMatrix`: unchanged if it is one, else
    built, and so checked, from the raw array. With ``dim``,
    :class:`DimensionMismatch` unless the state is one ``dim x dim`` matrix."""
    state = rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)
    if dim is not None and state.matrix.shape != (dim, dim):
        raise DimensionMismatch(f"rho has shape {state.matrix.shape}, measurement dim is {dim}")
    return state


def von_neumann_entropy(rho: StateLike) -> float | np.ndarray:
    """Von Neumann entropy of a density matrix, in bits; for a stack, one
    entropy per member.

    The entropy is taken from the spectrum of the state's check, so a raw
    ``rho`` costs one eigensolve, which also checks it, and a
    :class:`DensityMatrix` none. Eigenvalues are clamped to ``[0, 1]`` with
    the convention ``0 * log2(0) = 0``. Negative eigenvalues within
    ``ENTROPY_CLAMP`` are treated as zero; larger violations raise
    :class:`InvalidState`.
    """
    return _entropy(_state(rho).eigenvalues)


def _unchecked_entropy(rho: np.ndarray) -> float | np.ndarray:
    """:func:`von_neumann_entropy` without the density checks, for library
    code whose argument is a density matrix by construction; only the
    eigenvalue clamp of :func:`_entropy` still applies."""
    return _entropy(np.linalg.eigvalsh(_hermitian_part(_as_square(rho, "rho"))))


def _entropy(w: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in bits from ascending eigenvalues ``w`` of shape
    ``(..., D)``, as :func:`von_neumann_entropy` defines it.

    Below eight eigenvalues the terms are summed column by column, left to
    right: the order of numpy's own ``sum(axis=-1)`` below eight terms, so
    the same floats, without a numpy loop of length ``D`` per member. From
    eight on the sum is ``terms.sum(axis=-1)``, with the zero terms left out
    where a member has any."""
    message = "eigenvalue {:.3e} below -{:.1e}"
    _refuse(w[..., 0] < -ENTROPY_CLAMP, InvalidState, message, w[..., 0], ENTROPY_CLAMP)
    w = np.clip(w, 0.0, 1.0)
    terms = w * np.log2(np.where(w > 0.0, w, 1.0))
    if w.shape[-1] < 8:
        # numpy adds fewer than eight terms one after another, left to right;
        # the same additions, a whole column at a time, give its floats.
        total = terms[..., 0]
        for column in range(1, w.shape[-1]):
            total = total + terms[..., column]
        entropy = np.asarray(-total + 0.0)
    else:
        entropy = np.asarray(-terms.sum(axis=-1) + 0.0)
        # numpy sums eight or more terms pairwise, so the zero terms of
        # clamped eigenvalues regroup the sum; sum the positive terms only.
        for i in map(tuple, np.argwhere(np.any(w == 0.0, axis=-1))):
            positive = w[i][w[i] > 0.0]
            entropy[i] = -(positive * np.log2(positive)).sum() + 0.0
    return float(entropy) if entropy.ndim == 0 else entropy
