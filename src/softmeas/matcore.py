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
a single matrix gives no index. Every such check raises through
``_refuse``, the one place that finds that member and reads the message's
values at it, by one of two rules. A check of sequential rules (a density
matrix, an eigensolver input, a count) refuses rule by rule, so the first
rule that fails wins, at its first failing member. A check that gathers its
rules (a soft or general measurement) names, at the first member that fails
any rule, every rule that fails there. :func:`partial_trace` takes one
matrix.

Each check decomposes a matrix once, through ``_spectrum``: the Hermitian
deviation, the overflow of the Hermitian part and its spectrum, a member
that fails either taken as the identity. :func:`validate_density_matrix`
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
factors moves bits. The ``fig3`` sweep gives it float rotations: its
whole rotate, dephase and rotate-back chain runs in float64, whose
products at ``D = 2`` are those of the complex chain of
``eve_bob_semiclassical`` without the exact zeros; a test pins that.

Every eigenvalue-only solve is one ``np.linalg.eigvalsh`` call. One rule
rests on LAPACK's floats: the spectrum of a two-level diagonal state is its
two populations, in some order, and an entropy of two terms is one
addition, which does not depend on their order. So ``fig3``'s rigid
receiver (meter states exactly the basis vectors), whose output states are
``diag(w_k)``, takes its Holevo information from the populations ``w_k``
and builds no output state. That is ``fig3``'s two-level kernel,
``information._rigid_holevo``; a test pins that it gives the floats of
``eve_bob_semiclassical``'s matrix route. The ``fig3`` sweep calls it as
the rule above has it: its dephasing matrices and rotations are derived
from parsed values (``q`` in ``[-1, 1]``, finite angles) and are not
checked again, its priors and basis states are float constants, and no
receiver is built, so the sweep makes no eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidState

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
    """``(m + m^dagger) / 2`` of each matrix, built in one buffer: halving
    in place by ``* 0.5`` gives the floats of ``/ 2.0``, since both round
    the same exact half."""
    out = m + _dagger(m)
    out *= 0.5
    return out


def _spectrum(
    m: np.ndarray, vectors: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | tuple[np.ndarray, np.ndarray]]:
    """The one decomposition of a check: each matrix's largest
    ``|M - M^dagger|`` entry (NaN or inf if an entry is not finite or the
    difference overflows), whether its Hermitian part overflows (an entry
    near the largest float sums to inf, which no eigensolver takes), and
    the ``eigvalsh`` of that part, or with ``vectors`` its ``eigh``. A
    member that fails either of the first two is decomposed as the
    identity; with none such, the eigensolver takes the Hermitian part
    itself."""
    with np.errstate(invalid="ignore", over="ignore"):
        deviation = np.max(np.abs(m - _dagger(m)), axis=(-2, -1), initial=0.0)
        h = _hermitian_part(m)
    overflow = ~np.isfinite(h).all(axis=(-2, -1))
    skipped = ~(deviation <= TAU_HERM) | overflow
    if skipped.any():
        h = np.where(skipped[..., None, None], np.eye(m.shape[-1]), h)
    return deviation, overflow, (np.linalg.eigh if vectors else np.linalg.eigvalsh)(h)


def _refuse(error: type, *checks: tuple) -> None:
    """Raise ``error`` at the first member (C order) at which a check
    fails, if any.

    Each check is ``(bad, message, *values)``, ``bad`` True at the members
    that fail it; a 0-d ``bad`` (one matrix, or a rule about no member)
    names no member and comes before every member. A check's text is
    ``message.format`` of ``values`` at the member: a value with stack axes
    (``bad``'s) is read at the member, one without (a name, a tolerance)
    goes in as it is, so a caller's name never passes through the template.
    The message joins with ``"; "`` the texts of every check that fails at
    that member, in the order given, and the member is the exception's
    ``index``. A check of sequential rules calls this once per rule, so the
    first rule that fails wins; a check that names every failure calls it
    once with all of them.
    """
    failed = []
    for bad, message, *values in checks:
        bad = np.asarray(bad)
        if bad.any():
            i = tuple(int(j) for j in np.unravel_index(int(np.argmax(bad)), bad.shape))
            failed.append((i, message.format(*(v[i] if np.ndim(v) else v for v in values))))
    if failed:
        index = min(i for i, _ in failed)
        raise error("; ".join(text for i, text in failed if i == index), index=index)


def _entrywise(fn, *arrays) -> np.ndarray:
    """``fn`` applied to each entry of the broadcast ``arrays``, as Python
    floats.

    For libm functions (``math.log2``...) whose numpy loops may round
    differently in the last ulp: the result holds exactly the values of the
    scalar calls, without a Python-level loop per entry. numpy's
    ``log2`` has SIMD loops that part from libm on some entries, and no
    vectorised libm ``log2`` is known, so logarithms come through here.
    Powers, exponentials, sines and cosines need no such call:
    ``np.float_power``'s float loop is libm's ``pow``, and :func:`_cexp`
    takes ``exp``, ``cos`` and ``sin`` through libm's ``cexp``.
    """
    arrays = np.broadcast_arrays(*arrays)
    values = map(fn, *(a.ravel().tolist() for a in arrays))
    return np.fromiter(values, float, arrays[0].size).reshape(arrays[0].shape)


def _cexp(real, imag=0.0) -> np.ndarray:
    """``exp(real + i*imag)`` for each entry of the broadcast parts, both
    taken as float64, as libm's ``cexp`` gives it.

    numpy's complex ``exp`` loop calls libm's ``cexp`` and has no SIMD
    variant, where its float ``exp`` has SIMD loops that part from libm.
    glibc's ``cexp`` of a finite argument whose real part is at most 709
    is ``exp(real)`` times the ``cos`` and ``sin`` of ``imag``, libm's own,
    so ``_cexp(0.0, a)`` holds ``(math.cos(a), math.sin(a))``,
    ``_cexp(x).real`` holds ``math.exp(x)`` and ``_cexp(x, a)`` holds
    ``cmath.exp(complex(x, a))`` for a finite ``x <= 0``, entry by entry,
    without a Python call per entry. Tests pin the three. Where ``x`` is
    ``-inf`` and ``a`` infinite, ``cexp`` gives the zero the sign of ``a``
    and ``cmath.exp`` a positive one.
    """
    real, imag = np.broadcast_arrays(_cast(real, float), _cast(imag, float))
    z = np.empty(real.shape, complex)
    z.real, z.imag = real, imag
    return np.exp(z)


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix or a stack of them.

    Returns numpy's ``(eigenvalues, eigenvectors)`` pair: the eigenvalues
    are real and ascending along the last axis, and column ``i`` of the
    eigenvectors (``eigenvectors[..., :, i]``) is the unit eigenvector for
    ``eigenvalues[..., i]``.

    Raises :class:`InvalidState` if any entry of ``matrix - matrix^dagger``
    exceeds ``TAU_HERM`` in modulus, or is not finite, and if an entry of
    the Hermitian part overflows. The decomposition itself runs on the
    Hermitian part, which makes results deterministic for inputs that are
    Hermitian only up to rounding.
    """
    dev, overflow, pair = _spectrum(_as_square(matrix), vectors=True)
    message = "max |M - M^dagger| entry {:.3e} exceeds {:.1e}"
    _refuse(InvalidState, (~(dev <= TAU_HERM), message, dev, TAU_HERM))
    _refuse(InvalidState, (overflow, "(M + M^dagger) / 2 has an entry that overflows"))
    return pair


def matrix_sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix or of each in a stack.

    Eigenvalues in ``[-TAU_PSD, 0)`` are clamped to zero; anything more
    negative raises :class:`InvalidState`. Eigenvalues at most
    ``D * SQRT_RANK_EPS`` times the member's largest one are zeros too, so a
    rank-deficient matrix has a root of the same rank. The result is
    Hermitian PSD and squares back to the input within reconstruction
    tolerance.
    """
    w, v = herm_eig(matrix)
    message = "smallest eigenvalue {:.3e} below -{:.1e}"
    _refuse(InvalidState, (w[..., 0] < -TAU_PSD, message, w[..., 0], TAU_PSD))
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
    dev, overflow, spectrum = _spectrum(m, vectors)
    message = "{} not Hermitian: deviation {:.3e} > {:.1e}"
    _refuse(InvalidState, (~(dev <= TAU_HERM), message, name, dev, TAU_HERM))
    with np.errstate(over="ignore"):
        tr = np.trace(m, axis1=-2, axis2=-1)
    message = "{} trace {:.12g} differs from 1 by more than {:.1e}"
    _refuse(InvalidState, (np.abs(tr - 1.0) > TAU_TRACE, message, name, tr, TAU_TRACE))
    # A state of unit trace is PSD only if no entry exceeds 1 in modulus.
    _refuse(InvalidState, (overflow, "{} not PSD: an entry exceeds 1 in modulus", name))
    w, v = spectrum if vectors else (spectrum, None)
    message = "{} not PSD: smallest eigenvalue {:.3e} < -{:.1e}"
    _refuse(InvalidState, (w[..., 0] < -TAU_PSD, message, name, w[..., 0], TAU_PSD))
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
    _refuse(InvalidState, (w[..., 0] < -ENTROPY_CLAMP, message, w[..., 0], ENTROPY_CLAMP))
    w = np.clip(w, 0.0, 1.0)
    terms = w * np.log2(np.where(w > 0.0, w, 1.0))
    if w.shape[-1] < 8:
        # numpy adds fewer than eight terms one after another, left to right;
        # the same additions, a whole column at a time, give its floats. So
        # this is a speed device only: on a 51 x 51 x 2 stack, of which fig3
        # takes three per pass, it takes 4-5 us against 46 us for
        # terms.sum(axis=-1) (2-vCPU Xeon).
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
