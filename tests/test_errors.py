"""The one rule by which a stacked check names its failing member.

Every check that runs over a stack puts the first failing member (C order)
in the exception's ``index``, and its message ends in exactly one
`` (stack member [i, j])`` that shows that index; a single matrix (or value)
gives ``index is None`` and no such suffix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmeas.errors import InvalidMeasurement, InvalidParams, InvalidState, SoftMeasError
from softmeas.information import (
    StateEnsemble,
    _bloch_y_rotation,
    _check_unit_interval,
    eve_bob_semiclassical,
)
from softmeas.matcore import (
    DensityMatrix,
    _unchecked_entropy,
    herm_eig,
    matrix_sqrt_psd,
    validate_density_matrix,
)
from softmeas.measurement import SoftMeasurement, TwoLevelMeterParams, _check_correlation_matrix
from softmeas.repeated import ContinuousLimitParams, _check_phase, _counts

NOT_HERMITIAN = np.array([[0.0, 1.0], [0.0, 0.0]])
CORRELATION = np.array([[1.0, 0.3], [0.3, 1.0]])
BASIS_ENSEMBLE = StateEnsemble(np.array([0.5, 0.5]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
RIGID = SoftMeasurement(np.eye(2), np.eye(2))


def _stack(bad, valid, corrupt):
    """``valid`` at every member of the stack shape of ``bad``, and
    ``corrupt(valid)`` at the members where ``bad`` holds."""
    valid = np.asarray(valid)
    out = np.broadcast_to(valid, bad.shape + valid.shape).copy()
    out[bad] = corrupt(valid)
    return out


# What a failing member of a correlation stack is: in turn a matrix that
# fails the diagonal, the PSD (and modulus) and the Hermitian check, the
# reverse of the order in which the message lists them.
CORRELATION_FAILURES = (
    np.diag([0.5, 1.0]),
    np.array([[1.0, 1.5], [1.5, 1.0]]),
    CORRELATION + NOT_HERMITIAN,
)


def _failing_correlations(bad):
    """Entanglement and Gram stacks that fail where ``bad`` holds: the k-th
    failing member (C order) of the Gram stack for even k, of the
    entanglement stack for odd k, with ``CORRELATION_FAILURES[k % 3]``."""
    mats = [_stack(bad, CORRELATION, lambda m: m) for _ in range(2)]
    for k, i in enumerate(np.flatnonzero(bad)):
        mats[1 - k % 2].reshape(-1, 2, 2)[i] = CORRELATION_FAILURES[k % 3]
    return {"entanglement": mats[0], "gram": mats[1]}


# Each stacked check: a call that runs it on a stack whose members fail
# exactly where ``bad`` holds.
CHECKS = {
    "density Hermitian": lambda bad: validate_density_matrix(
        _stack(bad, np.eye(2) / 2.0, lambda m: m + NOT_HERMITIAN)
    ),
    "density trace": lambda bad: validate_density_matrix(
        _stack(bad, np.eye(2) / 2.0, lambda m: 2.0 * m)
    ),
    "density PSD": lambda bad: validate_density_matrix(
        _stack(bad, np.eye(2) / 2.0, lambda m: np.diag([1.5, -0.5]))
    ),
    "herm_eig": lambda bad: herm_eig(_stack(bad, np.eye(2), lambda m: m + NOT_HERMITIAN)),
    "matrix_sqrt_psd": lambda bad: matrix_sqrt_psd(
        _stack(bad, np.eye(2), lambda m: np.diag([1.0, -1.0]))
    ),
    "entropy clamp": lambda bad: _unchecked_entropy(
        _stack(bad, np.eye(2) / 2.0, lambda m: np.diag([1.2, -0.2]))
    ),
    "counts": lambda bad: _counts(_stack(bad, 3, lambda n: 0)),
    "phase": lambda bad: _check_phase("n*chi", 1e308, _stack(bad, 1.0, lambda t: 10.0)),
    "continuous t": lambda bad: ContinuousLimitParams(
        kappa=1.0, t=_stack(bad, 0.5, lambda t: -1.0)
    ),
    "rotation angle": lambda bad: _bloch_y_rotation(_stack(bad, 0.3, lambda a: math.nan)),
    "eve_basis": lambda bad: eve_bob_semiclassical(
        BASIS_ENSEMBLE, _stack(bad, np.eye(2), lambda u: 2.0 * u), np.eye(2), RIGID
    ),
    "unit interval": lambda bad: _check_unit_interval(
        q=_stack(bad, 0.5, lambda q: 2.0), p=np.asarray(0.5)
    ),
    "correlation": lambda bad: _check_correlation_matrix(_failing_correlations(bad)),
}


@st.composite
def failing_members(draw):
    """A boolean array of zero to two stack axes with at least one True:
    the members that fail. A 0-d array is one failing matrix."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    size = math.prod(shape)
    bad = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    bad[draw(st.integers(0, size - 1))] = True
    return bad.reshape(shape)


@settings(deadline=None, max_examples=300)
@given(check=st.sampled_from(sorted(CHECKS)), bad=failing_members())
def test_exception_names_the_first_failing_member_once(check, bad):
    with pytest.raises(SoftMeasError) as excinfo:
        CHECKS[check](bad)
    exc = excinfo.value
    if bad.ndim == 0:
        assert exc.index is None
        assert "stack member" not in str(exc)
        return
    first = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
    assert exc.index == first
    assert str(exc).endswith(f" (stack member [{', '.join(map(str, first))}])")
    assert str(exc).count("stack member") == 1


def test_index_formats_the_label_and_an_empty_index_is_none():
    assert str(SoftMeasError("check failed", index=(4, 0))) == (
        "check failed (stack member [4, 0])"
    )
    exc = SoftMeasError("check failed", index=())
    assert exc.index is None
    assert str(exc) == "check failed"


@pytest.mark.parametrize(
    "corrupt",
    [lambda m: m + NOT_HERMITIAN, lambda m: 2.0 * m, lambda m: np.diag([1.5, -0.5])],
    ids=["Hermitian", "trace", "PSD"],
)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_state_name_reaches_the_message_verbatim(corrupt, stacked):
    """A caller's name is put into the message as it is, braces and percent
    signs included, not read as a template."""
    bad = np.array([False, True]) if stacked else np.array(True)
    name = "state {k} at 50%"
    with pytest.raises(InvalidState) as excinfo:
        DensityMatrix(_stack(bad, np.eye(2) / 2.0, corrupt), name=name)
    assert str(excinfo.value).startswith(f"{name} ")


# Each check that refuses a matrix's Hermitian or PSD invariant, or a scalar
# parameter's domain, with the class that names that object: a call that
# fails it, the class, the message and the index. The last two pin the two
# rules by which a check names what fails. A check of sequential rules (a
# density matrix) names the first rule that fails, at its first failing
# member, even where an earlier member fails a later rule. A check that
# gathers its rules (a soft measurement) names, at the first member that
# fails any rule, every rule that fails there, in the order given.
REFUSALS = {
    "herm_eig Hermitian": (
        lambda: herm_eig(np.stack([np.eye(2), NOT_HERMITIAN])),
        InvalidState,
        "max |M - M^dagger| entry 1.000e+00 exceeds 1.0e-10 (stack member [1])",
        (1,),
    ),
    "herm_eig overflow": (
        lambda: herm_eig(np.array([[0.0, 1.7e308], [1.7e308, 0.0]])),
        InvalidState,
        "(M + M^dagger) / 2 has an entry that overflows",
        None,
    ),
    "matrix_sqrt_psd": (
        lambda: matrix_sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -1.0])])[None]),
        InvalidState,
        "smallest eigenvalue -1.000e+00 below -1.0e-10 (stack member [0, 1])",
        (0, 1),
    ),
    "unit interval real": (
        lambda: _check_unit_interval(q=0.5, p=0.5j),
        InvalidParams,
        "p must be real, got 0.5j",
        None,
    ),
    "unit interval range": (
        lambda: _check_unit_interval(q=np.array([0.5, 1.5]), p=0.5),
        InvalidParams,
        "q must lie in [0, 1], got 1.5 (stack member [1])",
        (1,),
    ),
    "rotation angle": (
        lambda: _bloch_y_rotation(np.array([0.3, math.inf])),
        InvalidParams,
        "rotation angle must be finite, got inf (stack member [1])",
        (1,),
    ),
    "meter real scalar": (
        lambda: TwoLevelMeterParams(theta=1.0, chi=0.5j),
        InvalidParams,
        "chi must be a real scalar, got 0.5j",
        None,
    ),
    "meter theta": (
        lambda: TwoLevelMeterParams(theta=4.0),
        InvalidParams,
        "theta must lie in [0, pi], got 4.0",
        None,
    ),
    "meter phase": (
        lambda: TwoLevelMeterParams(theta=1.0, phi=math.nan),
        InvalidParams,
        "phi must be finite, got nan",
        None,
    ),
    "sequential rules": (
        lambda: DensityMatrix(np.stack([np.eye(2), np.eye(2) / 2.0 + NOT_HERMITIAN])),
        InvalidState,
        "rho not Hermitian: deviation 1.000e+00 > 1.0e-10 (stack member [1])",
        (1,),
    ),
    "gathered rules": (
        lambda: SoftMeasurement(
            np.stack([np.array([[1.0, 1.5], [1.5, 1.0]]), np.eye(2)]),
            np.stack([np.diag([0.5, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])]),
        ),
        InvalidMeasurement,
        "entanglement is not PSD: eigenvalue -5.000e-01; entanglement has an entry with"
        " modulus > 1; gram diagonal is not identically 1 (stack member [0])",
        (0,),
    ),
}


@pytest.mark.parametrize("site", sorted(REFUSALS))
def test_refusal_raises_the_class_of_its_object(site):
    call, error, message, index = REFUSALS[site]
    with pytest.raises(SoftMeasError) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert excinfo.value.index == index

