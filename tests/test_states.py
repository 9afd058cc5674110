"""A state is checked once: the checked ``DensityMatrix`` value, and the two
ways into every function that takes a state (a raw array, which the
function checks, or a ``DensityMatrix``, which it does not check again)."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_eigensolves, rand_correlation, rand_density

from softmeas.errors import DimensionMismatch, InvalidState
from softmeas.information import (
    StateEnsemble,
    coherent_info_channel,
    coherent_info_soft,
    compete_coherent,
    soft_object_channel,
)
from softmeas.matcore import DensityMatrix, _state, validate_density_matrix, von_neumann_entropy
from softmeas.measurement import (
    GeneralMeasurement,
    SoftMeasurement,
    apply_general,
    apply_soft,
)
from softmeas.repeated import (
    ContinuousLimitParams,
    continuous_soft,
    joint_dm_repeated,
    meter_dm_repeated,
    repeat_soft,
)


def state_functions(rng, dim):
    """Every function that takes a state, as ``name -> fn(rho)``, over one
    random complex measurement of dimension ``dim``. The continuous-limit
    states are two-level, so they join only at ``dim == 2``."""
    ent, gram = rand_correlation(rng, dim), rand_correlation(rng, dim)
    other = rand_correlation(rng, dim)
    soft, bob = SoftMeasurement(ent, gram), SoftMeasurement(other, other)
    # Reading the meter states here takes their roots, which the measurements
    # keep, so no call below pays for them.
    vecs = soft.meter_vectors
    blocks = ent[:, :, None, None] * np.einsum("ak,bl->klab", vecs, vecs.conj())
    general = GeneralMeasurement(blocks)
    repeated = repeat_soft(soft, np.array([1, 3, 40]))
    repeated.meter_vectors
    channel = soft_object_channel(soft)
    fns = {
        "apply_soft": lambda rho: apply_soft(soft, rho),
        "apply_soft repeated": lambda rho: apply_soft(repeated, rho),
        "apply_general": lambda rho: apply_general(general, rho),
        "joint_dm_repeated": lambda rho: joint_dm_repeated(rho, repeated),
        "meter_dm_repeated": lambda rho: meter_dm_repeated(rho, repeated),
        "coherent_info_soft": lambda rho: coherent_info_soft(rho, soft),
        "coherent_info_soft repeated": lambda rho: coherent_info_soft(rho, repeated),
        "compete_coherent": lambda rho: compete_coherent(rho, soft, bob),
        "coherent_info_channel": lambda rho: coherent_info_channel(channel, rho),
        "von_neumann_entropy": von_neumann_entropy,
    }
    if dim == 2:
        params = ContinuousLimitParams(
            kappa=0.7, t=np.array([0.0, 0.4, 3.0]), chi_dot=1.3, r_dot=0.2 - 0.5j
        )
        continuous = continuous_soft(params)
        fns["meter_dm_continuous"] = lambda rho: meter_dm_repeated(rho, continuous)
        fns["joint_dm_continuous"] = lambda rho: apply_soft(continuous, rho)
    return fns


STATE_FUNCTIONS = sorted(state_functions(np.random.default_rng(0), 2))


class TestDensityMatrix:
    def test_keeps_the_spectrum_of_its_check(self):
        rng = np.random.default_rng(900)
        stack = np.array([rand_density(rng, 3) for _ in range(4)])
        state = DensityMatrix(stack)
        assert state.matrix.dtype == complex
        assert np.array_equal(state.matrix, stack)
        assert np.array_equal(state.eigenvalues, validate_density_matrix(stack))

    @pytest.mark.parametrize(
        "rho",
        [np.diag([2.0, -1.0]), np.eye(2), np.array([[0.5, 0.3], [0.0, 0.5]])],
        ids=["not-PSD", "trace-2", "not-Hermitian"],
    )
    def test_rejects_what_the_check_rejects(self, rho):
        with pytest.raises(InvalidState) as expected:
            validate_density_matrix(rho, name="input")
        with pytest.raises(InvalidState, match=f"^{re.escape(str(expected.value))}$"):
            DensityMatrix(rho, "input")

    def test_state_passes_a_checked_value_through(self, monkeypatch):
        state = DensityMatrix(np.eye(2) / 2.0)
        calls = count_eigensolves(monkeypatch)
        assert _state(state) is state
        assert _state(state, 2) is state
        assert calls == []

    def test_ensemble_members_are_checked_as_states(self):
        rng = np.random.default_rng(901)
        states = (rand_density(rng, 3), rand_density(rng, 3))
        ensemble = StateEnsemble(np.array([0.25, 0.75]), states)
        for spectrum, rho in zip(ensemble.spectra, states):
            assert np.array_equal(spectrum, DensityMatrix(rho).eigenvalues)
        with pytest.raises(InvalidState, match=r"^ensemble state 1 trace 2"):
            StateEnsemble(np.array([0.5, 0.5]), (states[0], np.eye(3) * (2.0 / 3.0)))


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1))
@example(dim=2, seed=902)
@example(dim=5, seed=903)
def test_raw_and_checked_states_give_the_same_floats(dim, seed):
    """For complex R, Q and rho, each function gives the same floats for a
    raw ``rho`` and for ``DensityMatrix(rho)``; the raw array costs exactly
    the one eigensolve of its check, so the checked value is not checked
    again (``coherent_info_channel`` decomposes either once, to purify)."""
    rng = np.random.default_rng(seed)
    rho = rand_density(rng, dim)
    state = DensityMatrix(rho)
    for name, fn in state_functions(rng, dim).items():
        with pytest.MonkeyPatch.context() as patch:
            calls = count_eigensolves(patch)
            raw = fn(rho)
            raw_solves = len(calls)
            calls.clear()
            checked = fn(state)
        assert np.array_equal(raw, checked), name
        extra = 0 if name == "coherent_info_channel" else 1
        assert raw_solves == len(calls) + extra, name
        if name == "von_neumann_entropy":
            assert calls == []


def wrong_shapes():
    cases = [(name, "3x3 state") for name in STATE_FUNCTIONS if name != "von_neumann_entropy"]
    return cases + [(name, "2x3 array") for name in STATE_FUNCTIONS]


@pytest.mark.parametrize("name, wrong", wrong_shapes())
def test_wrong_shape_state_is_a_dimension_mismatch(name, wrong):
    """Every function that takes a state rejects one of the wrong shape for
    its two-level measurement with :class:`DimensionMismatch`, given as a raw
    array or, where it is a valid state, as a ``DensityMatrix``."""
    fn = state_functions(np.random.default_rng(904), 2)[name]
    if wrong == "3x3 state":
        rho = rand_density(np.random.default_rng(905), 3)
        with pytest.raises(DimensionMismatch):
            fn(DensityMatrix(rho))
    else:
        rho = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(DimensionMismatch):
        fn(rho)
