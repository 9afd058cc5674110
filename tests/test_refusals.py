"""The library fails as cleanly as the CLI.

A public constructor or function that refuses a numeric input raises a
:class:`~softmeas.errors.SoftMeasError` subclass; only a value of a
non-numeric type may raise a ``TypeError``. The property here is the
library's counterpart of ``test_main_never_raises``: it hands each public
entry point that takes a matrix, a rate, an angle or a closed form's
parameter one input that may be wrong (a 0x0 matrix, a matrix of another
dimension, a stack where one matrix is required, non-finite entries, a
complex value where a real one belongs) and requires a result or a
``SoftMeasError``, with no warning. Every matrix the library takes has
side >= 1, and a value that is real takes no complex value, so a 0x0
matrix and a complex value in a real slot are always refused.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmeas import (
    CompetitionParams,
    ContinuousLimitParams,
    DensityMatrix,
    GeneralMeasurement,
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
    continuous_soft,
    discrete_step,
    eve_bob_semiclassical,
    herm_eig,
    holevo_info,
    joint_dm_repeated,
    kraus_from_choi,
    matrix_sqrt_psd,
    meter_dm_repeated,
    meter_ensemble,
    partial_trace,
    repeat_soft,
    semiclassical_info_continuous,
    soft_object_channel,
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
    "joint_dm_repeated": (state, lambda x: joint_dm_repeated(x, repeat_soft(SOFT, 3))),
    "meter_dm_repeated": (state, lambda x: meter_dm_repeated(x, repeat_soft(SOFT, 3))),
    "meter_dm_repeated.continuous": (state, lambda x: meter_dm_repeated(x, CONTINUOUS)),
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
    "CompetitionParams.q_eve": ("real", lambda x: CompetitionParams(x, 0.5, 0.5)),
    "CompetitionParams.q_bob": ("real", lambda x: CompetitionParams(0.5, x, 0.5)),
    "CompetitionParams.mu": ("real", lambda x: CompetitionParams(0.5, 0.5, x)),
    "StateEnsemble.probs": ("real", lambda x: StateEnsemble((x, 1.0 - x), (RHO, RHO))),
    "eve_bob_semiclassical.angle": (
        "real", lambda x: eve_bob_semiclassical(BASIS, x, CORRELATION, SOFT)
    ),
}

NON_FINITE = [math.nan, math.inf, -math.inf]
FINITE = st.floats(-4.0, 4.0)
REALS = st.one_of(FINITE, st.sampled_from(NON_FINITE))
COMPLEXES = st.one_of(
    st.complex_numbers(max_magnitude=4.0),
    st.builds(complex, REALS, REALS),
    st.builds(np.complex128, REALS),
)


@st.composite
def matrix_calls(draw):
    """An entry point, a matrix for its slot, and whether the matrix is one
    the library always refuses (side 0). The matrix is the slot's valid one
    of side 0 to 3, alone or in a stack of two, with an entry maybe set to
    NaN or an infinity."""
    name = draw(st.sampled_from(sorted(MATRIX_CALLS)))
    valid, call = MATRIX_CALLS[name]
    matrix = valid(draw(st.integers(0, 3))).astype(complex)
    if draw(st.booleans()):
        matrix = np.stack([matrix, matrix])
    if matrix.size and draw(st.booleans()):
        matrix.flat[draw(st.integers(0, matrix.size - 1))] = draw(st.sampled_from(NON_FINITE))
    return name, call, matrix, matrix.shape[-1] == 0


@st.composite
def rate_calls(draw):
    """An entry point, a value for its slot, and whether the value is one the
    library always refuses (complex in a real slot). The value is a finite
    or non-finite real, a complex number, or a stack of two of either."""
    name = draw(st.sampled_from(sorted(RATE_CALLS)))
    kind, call = RATE_CALLS[name]
    scalar = st.one_of(REALS, COMPLEXES)
    value = draw(st.one_of(scalar, st.lists(scalar, min_size=2, max_size=2).map(np.array)))
    return name, call, value, kind == "real" and np.iscomplexobj(value)


def reproduced(name, value, refused):
    """The case of the entry point ``name`` with ``value`` in its slot."""
    return name, {**MATRIX_CALLS, **RATE_CALLS}[name][1], value, refused


@settings(deadline=None, max_examples=800)
@given(st.one_of(matrix_calls(), rate_calls()))
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
@example(reproduced("CompetitionParams.mu", np.array([0.5, 1j]), True))
@example(reproduced("KrausChannel.apply", np.array([[np.inf, 0.0], [0.0, 1.0]]), False))
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
