"""The library fails as cleanly as the CLI.

A public constructor or function that refuses a numeric input raises a
:class:`~softmeas.errors.SoftMeasError` subclass; a value of a non-numeric
type, a string that spells no number included, may raise numpy's or
Python's own error. The property here is the library's counterpart of
``test_main_never_raises``: it hands each public entry point that takes a
matrix, a rate, an angle or a closed form's parameter, a repetition count
or a dimension one input that may be wrong (a 0x0 matrix, a matrix of
another dimension, a stack where one matrix is required, non-finite
entries, entries at the largest float, whose sums overflow, a
``longdouble`` past float64's range where that type is the wider, a complex
value where a real one belongs, an integer that int64 cannot hold, a
fraction where an integer belongs), of any of the dtypes numpy users hand
in, and requires a result or a ``SoftMeasError``, with no warning. Every
matrix the library takes has side >= 1, a value that is real takes no
complex value, a repetition count is an integer from 1 to ``2**63 - 1``
and a dimension or factor index an integer or a float of integral value,
so a 0x0 matrix and any value that breaks one of these rules is always
refused.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmeas import (
    ContinuousLimitParams,
    DensityMatrix,
    DimensionMismatch,
    GeneralMeasurement,
    InvalidParams,
    KrausChannel,
    SoftMeasError,
    SoftMeasurement,
    StateEnsemble,
    TwoLevelMeterParams,
    apply_general,
    apply_soft,
    coherent_info_channel,
    coherent_info_soft,
    coherent_info_two_level,
    collective_representation,
    compete_coherent,
    compete_two_level,
    continuous_soft,
    discrete_step,
    eve_bob_semiclassical,
    herm_eig,
    holevo_info,
    kraus_from_choi,
    matrix_sqrt_psd,
    meter_ensemble,
    meter_state,
    partial_trace,
    repeat_soft,
    semiclassical_info_continuous,
    soft_object_channel,
    two_level_gram_sqrt,
    validate_density_matrix,
    von_neumann_entropy,
)


def state(d):
    return np.eye(d) / max(d, 1)


def correlation(d):
    return (np.ones((d, d)) + np.eye(d)) / 2.0


def blocks(d):
    return np.einsum("kl,ab->klab", correlation(d), state(2))


def choi(d):
    return np.eye(d * d)


RHO = state(2)
CORRELATION = correlation(2)
SOFT = SoftMeasurement(CORRELATION, CORRELATION)
RIGID = SoftMeasurement(np.eye(2), np.eye(2))
BASIS = StateEnsemble(np.array([0.5, 0.5]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
CONTINUOUS = continuous_soft(ContinuousLimitParams(1.0, np.array([0.0, 0.5]), 0.3, 0.2 + 0.1j))

# Each entry point that takes a matrix, by the valid matrix of side d that
# its slot takes (d = 2 where the other arguments fix the dimension), and
# the call with the drawn matrix in that slot.
MATRIX_CALLS = {
    "DensityMatrix": (state, DensityMatrix),
    "validate_density_matrix": (state, validate_density_matrix),
    "von_neumann_entropy": (state, von_neumann_entropy),
    "herm_eig": (state, herm_eig),
    "matrix_sqrt_psd": (state, matrix_sqrt_psd),
    "partial_trace": (state, lambda x: partial_trace(x, [1, 2], keep=1)),
    "SoftMeasurement.entanglement": (correlation, lambda x: SoftMeasurement(x, CORRELATION)),
    "SoftMeasurement.gram": (correlation, lambda x: SoftMeasurement(CORRELATION, x)),
    "repeat_soft": (correlation, lambda x: repeat_soft(SoftMeasurement(x, x), 3)),
    "collective_representation": (correlation, lambda x: collective_representation(x, 3)),
    "soft_object_channel": (correlation, lambda x: soft_object_channel(SoftMeasurement(x, x))),
    "GeneralMeasurement": (blocks, GeneralMeasurement),
    "apply_soft": (state, lambda x: apply_soft(SOFT, x)),
    "apply_soft.repeated": (state, lambda x: apply_soft(repeat_soft(SOFT, np.array([1, 3])), x)),
    "apply_soft.continuous": (state, lambda x: apply_soft(CONTINUOUS, x)),
    "apply_general": (state, lambda x: apply_general(GeneralMeasurement(blocks(2)), x)),
    "coherent_info_soft": (state, lambda x: coherent_info_soft(x, SOFT)),
    "coherent_info_channel": (
        state, lambda x: coherent_info_channel(soft_object_channel(SOFT), x)
    ),
    "compete_coherent": (state, lambda x: compete_coherent(x, SOFT, SOFT)),
    "meter_state": (state, lambda x: meter_state(repeat_soft(SOFT, 3), x)),
    "meter_state.continuous": (state, lambda x: meter_state(CONTINUOUS, x)),
    "kraus_from_choi": (choi, lambda x: kraus_from_choi(x, 2, 2)),
    "KrausChannel": (np.eye, lambda x: KrausChannel((x,)).validate()),
    "KrausChannel.apply": (state, lambda x: KrausChannel((np.eye(2),)).apply(x)),
    "StateEnsemble": (state, lambda x: holevo_info(StateEnsemble((0.5, 0.5), (x, RHO)))),
    "meter_ensemble": (state, lambda x: meter_ensemble(StateEnsemble((1.0,), (x,)), SOFT)),
    "eve_bob_semiclassical.eve_basis": (
        np.eye, lambda x: eve_bob_semiclassical(BASIS, x, CORRELATION, SOFT)
    ),
    "eve_bob_semiclassical.dephase": (
        correlation, lambda x: eve_bob_semiclassical(BASIS, 0.3, x, SOFT)
    ),
    "eve_bob_semiclassical.dephase.rigid": (
        correlation, lambda x: eve_bob_semiclassical(BASIS, 0.3, x, RIGID)
    ),
}

# Each entry point that takes a rate (or a time, a step or a probability), by
# whether its slot is real or complex, and the call with the drawn value in
# that slot.
RATE_CALLS = {
    "ContinuousLimitParams.kappa": (
        "real", lambda x: continuous_soft(ContinuousLimitParams(kappa=x, t=0.5))
    ),
    "ContinuousLimitParams.chi_dot": (
        "real", lambda x: continuous_soft(ContinuousLimitParams(1.0, 0.5, chi_dot=x))
    ),
    "ContinuousLimitParams.r_dot": (
        "complex", lambda x: continuous_soft(ContinuousLimitParams(1.0, 0.5, r_dot=x))
    ),
    "ContinuousLimitParams.t": (
        "real", lambda x: continuous_soft(ContinuousLimitParams(kappa=1.0, t=x))
    ),
    "semiclassical_info_continuous.kappa": (
        "real", lambda x: semiclassical_info_continuous(x, 1.0)
    ),
    "semiclassical_info_continuous.t": ("real", lambda x: semiclassical_info_continuous(1.0, x)),
    "discrete_step.kappa": ("real", lambda x: discrete_step(x, 0.0, 0.0, 0.1)),
    "discrete_step.chi_dot": ("real", lambda x: discrete_step(1.0, x, 0.0, 0.1)),
    "discrete_step.r_dot": ("complex", lambda x: discrete_step(1.0, 0.0, x, 0.1)),
    "discrete_step.dt": ("real", lambda x: discrete_step(1.0, 0.3, 0.2j, x)),
    "TwoLevelMeterParams.theta": ("real", lambda x: TwoLevelMeterParams(theta=x)),
    "TwoLevelMeterParams.phi": ("real", lambda x: TwoLevelMeterParams(theta=1.0, phi=x)),
    "TwoLevelMeterParams.chi": ("real", lambda x: TwoLevelMeterParams(theta=1.0, chi=x)),
    "coherent_info_two_level.q": ("real", lambda x: coherent_info_two_level(x, 0.5, 0.5)),
    "coherent_info_two_level.p": ("real", lambda x: coherent_info_two_level(0.5, x, 0.5)),
    "coherent_info_two_level.mu": ("real", lambda x: coherent_info_two_level(0.5, 0.5, x)),
    "compete_two_level.q_eve": ("real", lambda x: compete_two_level(x, 0.5, 0.5)),
    "compete_two_level.q_bob": ("real", lambda x: compete_two_level(0.5, x, 0.5)),
    "compete_two_level.mu": ("real", lambda x: compete_two_level(0.5, 0.5, x)),
    "StateEnsemble.probs": ("real", lambda x: StateEnsemble((x, 1.0 - x), (RHO, RHO))),
    "eve_bob_semiclassical.angle": (
        "real", lambda x: eve_bob_semiclassical(BASIS, x, CORRELATION, SOFT)
    ),
}

# Each entry point that takes a repetition count, and the call with the drawn
# count in that slot.
COUNT_CALLS = {
    "repeat_soft": lambda x: repeat_soft(SOFT, x),
    "two_level_gram_sqrt": lambda x: two_level_gram_sqrt(TwoLevelMeterParams(1.0, chi=0.3), x),
    "collective_representation": lambda x: collective_representation(CORRELATION, x),
}

# Each entry point that takes a dimension or a factor index, and the call
# with the drawn value in that slot.
DIMENSION_CALLS = {
    "partial_trace.dims": lambda x: partial_trace(state(4), [x, 2], keep=1),
    "partial_trace.keep": lambda x: partial_trace(state(4), [2, 2], keep=x),
    "kraus_from_choi.in_dim": lambda x: kraus_from_choi(choi(2), x, 2),
    "kraus_from_choi.out_dim": lambda x: kraus_from_choi(choi(2), 2, x),
}

# The dtypes drawn beside float64 and complex128.
DTYPES = [
    np.bool_, np.uint8, np.uint64, np.int8,
    np.float16, np.float32, np.complex64, np.longdouble,
]
NON_FINITE = [math.nan, math.inf, -math.inf]
LARGEST = float(np.finfo(np.float64).max)
# The largest longdouble: past float64's range where longdouble is the wider
# type, as on x86-64 Linux; elsewhere it is LARGEST.
WIDEST = np.finfo(np.longdouble).max
BEYOND = [WIDEST, -WIDEST] if WIDEST > LARGEST else []
FINITE = st.floats(-4.0, 4.0)
REALS = st.one_of(FINITE, st.sampled_from(NON_FINITE))
COMPLEXES = st.one_of(
    st.complex_numbers(max_magnitude=4.0),
    st.builds(complex, REALS, REALS),
    st.builds(np.complex128, REALS),
)


def numbers(dtype):
    """Values that ``dtype`` holds: small ones and, for an integer dtype, its
    extremes and the top half of its range (for uint64 the counts int64
    cannot hold); for an inexact dtype also fractions and non-finite values."""
    if dtype == np.bool_:
        return st.booleans()
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return st.one_of(
            st.integers(max(info.min, -2), 4),
            st.integers(info.max // 2, info.max),
            st.just(int(info.min)),
        )
    real = st.one_of(st.integers(-2, 4).map(float), FINITE, st.sampled_from(NON_FINITE))
    if np.issubdtype(dtype, np.complexfloating):
        return st.builds(complex, real, st.one_of(st.just(0.0), real))
    return real


def largest(dtype):
    """Plus and minus the largest float64 if the inexact ``dtype`` holds it,
    and for a complex dtype ``1j`` times either too, and for ``longdouble``
    the values past float64's range that it holds; else nothing."""
    if float(np.finfo(dtype).max) < LARGEST:
        return []
    if np.issubdtype(dtype, np.complexfloating):
        return [LARGEST, -LARGEST, 1j * LARGEST, -1j * LARGEST]
    return [LARGEST, -LARGEST] + (BEYOND if dtype == np.longdouble else [])


def integral(value):
    """Whether the numpy scalar ``value`` is an integer, or a real float of
    integral value."""
    kind = value.dtype.kind
    return kind in "iu" or kind == "f" and float(value).is_integer()


@st.composite
def matrix_calls(draw):
    """An entry point, a matrix for its slot, and whether the matrix is one
    the library always refuses (side 0). The matrix is the slot's valid one
    of side 0 to 3, of a drawn dtype, alone or in a stack of two, with an
    entry maybe set to NaN or an infinity if the dtype is inexact (or, if
    it holds them, to plus or minus the largest float64, and for a complex
    dtype to ``1j`` times either), or to another value it holds (an extreme
    integer, say) if not."""
    name = draw(st.sampled_from(sorted(MATRIX_CALLS)))
    valid, call = MATRIX_CALLS[name]
    dtype = draw(st.sampled_from([np.complex128, *DTYPES]))
    matrix = valid(draw(st.integers(0, 3))).astype(dtype)
    if draw(st.booleans()):
        matrix = np.stack([matrix, matrix])
    if matrix.size and draw(st.booleans()):
        inexact = np.issubdtype(dtype, np.inexact)
        entry = draw(st.sampled_from(NON_FINITE + largest(dtype)) if inexact else numbers(dtype))
        matrix.flat[draw(st.integers(0, matrix.size - 1))] = entry
    return name, call, matrix, matrix.shape[-1] == 0


@st.composite
def count_calls(draw):
    """An entry point, a count for its slot, and whether the library always
    refuses it (not an integer from 1 to ``2**63 - 1``). The count is a
    value of a drawn dtype, alone or in a stack of two."""
    name = draw(st.sampled_from(sorted(COUNT_CALLS)))
    dtype = draw(st.sampled_from([np.int64, *DTYPES]))
    size = draw(st.sampled_from([None, 2]))
    values = draw(st.lists(numbers(dtype), min_size=size or 1, max_size=size or 1))
    value = np.array(values, dtype=dtype).reshape(() if size is None else (size,))
    refused = value.dtype.kind not in "iu" or bool(np.any((value < 1) | (value > 2**63 - 1)))
    return name, COUNT_CALLS[name], value, refused


@st.composite
def dimension_calls(draw):
    """An entry point, a dimension or factor index for its slot, and whether
    the library always refuses it (not an integer, nor a float of integral
    value). The value is a scalar of a drawn dtype."""
    name = draw(st.sampled_from(sorted(DIMENSION_CALLS)))
    dtype = draw(st.sampled_from([np.int64, np.float64, *DTYPES]))
    value = np.array(draw(numbers(dtype)), dtype=dtype)[()]
    return name, DIMENSION_CALLS[name], value, not integral(value)


@st.composite
def rate_calls(draw):
    """An entry point, a value for its slot, and whether the value is one the
    library always refuses (complex in a real slot). The value is a finite
    or non-finite real, a complex number, or a stack of two of either."""
    name = draw(st.sampled_from(sorted(RATE_CALLS)))
    kind, call = RATE_CALLS[name]
    scalar = st.one_of(REALS, COMPLEXES)
    scalar = st.one_of(scalar, st.sampled_from(BEYOND)) if BEYOND else scalar
    value = draw(st.one_of(scalar, st.lists(scalar, min_size=2, max_size=2).map(np.array)))
    return name, call, value, kind == "real" and np.iscomplexobj(value)


def with_entry(matrix, position, value):
    """A copy of ``matrix`` whose flat entry ``position`` is ``value``."""
    matrix = matrix.copy()
    matrix.flat[position] = value
    return matrix


def reproduced(name, value, refused):
    """The case of the entry point ``name`` with ``value`` in its slot."""
    calls = {**MATRIX_CALLS, **RATE_CALLS}
    call = calls[name][1] if name in calls else {**COUNT_CALLS, **DIMENSION_CALLS}[name]
    return name, call, value, refused


@settings(deadline=None, max_examples=800)
@given(st.one_of(matrix_calls(), rate_calls(), count_calls(), dimension_calls()))
# Inputs that raised another error, or none, before the checks that refuse them.
@example(reproduced("SoftMeasurement.gram", np.zeros((0, 0)), True))
@example(reproduced("GeneralMeasurement", np.zeros((0, 0, 0, 0)), True))
@example(reproduced("matrix_sqrt_psd", np.zeros((0, 0)), True))
@example(("kraus_from_choi", lambda x: kraus_from_choi(x, 3, 2), np.eye(4), False))
@example(reproduced("eve_bob_semiclassical.dephase.rigid", np.eye(3), False))
@example(reproduced("ContinuousLimitParams.kappa", 1j, True))
@example(reproduced("ContinuousLimitParams.kappa", np.array([1.0, 2.0]), False))
@example(reproduced("ContinuousLimitParams.chi_dot", 1j, True))
@example(reproduced("TwoLevelMeterParams.theta", 1j, True))
@example(reproduced("TwoLevelMeterParams.chi", np.array([0.1, 0.2]), False))
@example(reproduced("coherent_info_two_level.q", 0.5j, True))
@example(reproduced("coherent_info_two_level.p", np.complex128(0.5), True))
@example(reproduced("compete_two_level.mu", np.array([0.5, 1j]), True))
@example(reproduced("KrausChannel.apply", np.array([[np.inf, 0.0], [0.0, 1.0]]), False))
@example(reproduced("repeat_soft", np.array([2**64 - 1], dtype=np.uint64), True))
@example(reproduced("two_level_gram_sqrt", np.array([2**63], dtype=np.uint64), True))
@example(reproduced("partial_trace.dims", 2.5, True))
@example(reproduced("partial_trace.keep", 1.5, True))
@example(reproduced("kraus_from_choi.in_dim", 2.0, False))
# Entries at the largest float, which overflowed the Hermitian part of the
# check to inf, where the eigensolver did not converge.
@example(reproduced("SoftMeasurement.entanglement", with_entry(correlation(3), 4, LARGEST), True))
@example(reproduced("GeneralMeasurement", with_entry(blocks(3), 3, LARGEST), True))
@example(reproduced("discrete_step.kappa", np.float64(LARGEST), False))
@example(reproduced("discrete_step.dt", np.float64(LARGEST), False))
# A longdouble past float64's range, whose cast to float64 warned of overflow.
@example(reproduced("DensityMatrix", with_entry(state(2).astype(np.longdouble), 1, WIDEST), False))
@example(reproduced("herm_eig", with_entry(state(2).astype(np.longdouble), 1, WIDEST), False))
@example(
    reproduced(
        "SoftMeasurement.gram", with_entry(correlation(2).astype(np.longdouble), 3, WIDEST), False
    )
)
@example(reproduced("coherent_info_two_level.q", WIDEST, False))
@example(reproduced("compete_two_level.q_eve", WIDEST, False))
@example(reproduced("ContinuousLimitParams.t", WIDEST, False))
@example(reproduced("semiclassical_info_continuous.t", WIDEST, False))
@example(reproduced("StateEnsemble.probs", WIDEST, False))
# A longdouble rate, finite in float64, whose product with a time or a count
# is finite in longdouble but past float64's range: libm raised ValueError.
@example(
    (
        "ContinuousLimitParams.chi_dot*t",
        lambda x: continuous_soft(ContinuousLimitParams(1.0, 1e300, chi_dot=x)),
        np.longdouble("1e300"),
        False,
    )
)
@example(
    (
        "two_level_gram_sqrt.n*chi",
        lambda x: two_level_gram_sqrt(TwoLevelMeterParams(1.0, chi=x), 2**62),
        np.longdouble("1e300"),
        False,
    )
)
def test_library_never_raises_another_error(case):
    """A result or a :class:`SoftMeasError`, and no warning, whatever the
    drawn input; a refusal for a 0x0 matrix or a complex real rate."""
    _, call, value, refused = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(value)
        except SoftMeasError:
            return
    assert not refused, "accepted an input the library always refuses"


@pytest.mark.parametrize(
    "call, got",
    [
        (lambda: repeat_soft(SOFT, np.array([2**64 - 1], dtype=np.uint64)), 2**64 - 1),
        (
            lambda: two_level_gram_sqrt(TwoLevelMeterParams(1.0), np.array([2**63], np.uint64)),
            2**63,
        ),
        (lambda: repeat_soft(SOFT, np.uint64(2**63)), 2**63),
    ],
    ids=["repeat_soft", "two_level_gram_sqrt", "scalar"],
)
def test_count_int64_cannot_hold_is_refused(call, got):
    """An unsigned count of at least ``2**63`` is refused by name, not
    wrapped to a negative ``int64``."""
    message = rf"^repetition count must be <= 2\*\*63 - 1, got {got}"
    with pytest.raises(InvalidParams, match=message):
        call()


@pytest.mark.parametrize("counts", [[], np.array([], dtype=int)], ids=["list", "int-array"])
def test_no_counts_give_the_empty_stack(counts):
    """A count input with no entries holds no count to refuse: ``[]``, a
    float array to numpy, gives the empty stack as an empty integer array does."""
    repeated = repeat_soft(SOFT, counts)
    assert repeated.gram.shape == repeated.entanglement.shape == (0, 2, 2)
    params = TwoLevelMeterParams(theta=1.0)
    assert two_level_gram_sqrt(params, counts).shape == (0, 2, 2)


def test_largest_int64_count_is_accepted():
    for n in (2**63 - 1, np.uint64(2**63 - 1), np.array([2**63 - 1], dtype=np.uint64)):
        assert np.array_equal(repeat_soft(SOFT, n).gram[..., 0, 1], np.zeros(np.shape(n)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: partial_trace(state(4), [2.5, 2], keep=1),
        lambda: partial_trace(state(4), [4.9], keep=0),
        lambda: partial_trace(state(4), [2, 2], keep=[0.5]),
        lambda: partial_trace(state(4), [2, 2], keep=1.5),
        lambda: kraus_from_choi(np.eye(4) / 2, 2.5, 2),
        lambda: kraus_from_choi(np.eye(4) / 2, 2, np.float32(2.5)),
    ],
    ids=["dims=[2.5,2]", "dims=[4.9]", "keep=[0.5]", "keep=1.5", "in_dim=2.5", "out_dim=2.5"],
)
def test_non_integer_dimension_is_refused(call):
    """A dimension or factor index that is not integral is refused, not
    truncated, and raises no raw ``TypeError``."""
    with pytest.raises(DimensionMismatch, match="must be an integer, got "):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partial_trace(state(4), 4, keep=0), "dims must be a sequence of integers, got 4"),
        (
            lambda: partial_trace(state(4), np.int64(4), keep=0),
            r"dims must be a sequence of integers, got np.int64\(4\)",
        ),
        (
            lambda: partial_trace(state(4), [2, 2], keep=[[0], [0, 1]]),
            r"keep index must be an integer, got \[0\]",
        ),
    ],
    ids=["dims=4", "dims=int64(4)", "keep=[[0],[0,1]]"],
)
def test_dimension_argument_of_another_shape_is_refused(call, message):
    """``dims`` given as one number, and a ragged ``keep``, are refused by
    argument name, not with a raw ``TypeError`` or numpy's ``ValueError``."""
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("value", [2, np.int64(2), 2.0], ids=["int", "int64", "float"])
def test_integral_dimension_is_accepted(value):
    rho = np.diag([0.1, 0.2, 0.3, 0.4])
    reduced = partial_trace(rho, [value, 2], keep=value - 1)
    assert np.array_equal(reduced, partial_trace(rho, [2, 2], keep=1))
    channel = kraus_from_choi(np.eye(4) / 2, value, 2)
    for a, b in zip(channel.kraus_ops, kraus_from_choi(np.eye(4) / 2, 2, 2).kraus_ops):
        assert np.array_equal(a, b)
