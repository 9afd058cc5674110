"""Coherent- and semiclassical-information tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    binary_entropy,
    count_eigensolves,
    count_eigvalsh,
    fig3_closed_form,
    forbid_meter_matrices,
    forbid_sorting,
    meter_states,
    rand_correlation,
    rand_density,
    rand_density_of_rank,
    rand_unitary,
    scalar_coherent_info_two_level,
    scalar_compete_two_level,
    scalar_g,
    scalar_semiclassical_info_continuous,
    spy_correlation_checks,
)

from softmeas.errors import (
    DimensionMismatch,
    InvalidChannel,
    InvalidMeasurement,
    InvalidParams,
    InvalidState,
    OutOfRange,
)
from softmeas.information import (
    CompetitionParams,
    KrausChannel,
    StateEnsemble,
    _bloch_y_rotation,
    _g,
    coherent_info_channel,
    coherent_info_soft,
    coherent_info_two_level,
    compete_coherent,
    compete_two_level,
    eve_bob_semiclassical,
    holevo_info,
    kraus_from_choi,
    meter_ensemble,
    semiclassical_info_continuous,
    soft_object_channel,
)
from softmeas.matcore import (
    DensityMatrix,
    _unchecked_entropy,
    matrix_sqrt_psd,
    partial_trace,
    von_neumann_entropy,
)
from softmeas.measurement import SoftMeasurement, apply_soft
from softmeas.repeated import (
    ContinuousLimitParams,
    _two_level_matrix,
    continuous_soft,
    meter_dm_repeated,
    repeat_soft,
)


def qubit_state(p, mu, phase=0.0):
    off = mu * math.sqrt(p * (1.0 - p)) * np.exp(1j * phase)
    return np.array([[p, off], [np.conj(off), 1.0 - p]])


def rand_channel(rng, in_dim, out_dim, n_kraus):
    """Random trace-preserving channel from a randomly sliced isometry."""
    big = rand_unitary(rng, out_dim * n_kraus)
    iso = big[:, :in_dim]
    ops = tuple(iso[a * out_dim : (a + 1) * out_dim, :] for a in range(n_kraus))
    return KrausChannel(ops)


class TestKrausChannel:
    def test_identity_channel_is_valid(self):
        ch = KrausChannel((np.eye(2),))
        ch.validate()
        rng = np.random.default_rng(60)
        rho = rand_density(rng, 2)
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-14, rtol=0.0)

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(InvalidChannel):
            KrausChannel((0.5 * np.eye(2),)).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        channel = KrausChannel((np.diag([1.0, bad]),))
        with pytest.raises(InvalidChannel, match="deviates from identity by nan"):
            channel.validate()
        with pytest.raises(InvalidChannel):
            coherent_info_channel(channel, np.eye(2) / 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_apply_refuses_a_non_finite_state(self, bad):
        """A non-finite ``rho`` is refused before the product, which would
        warn (an error under the suite's warning filter)."""
        rho = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidState, match="^rho has a non-finite entry$"):
            KrausChannel((np.eye(2),)).apply(rho)

    def test_random_channels_are_trace_preserving(self):
        rng = np.random.default_rng(61)
        for in_dim, out_dim, n_kraus in ((2, 2, 2), (3, 2, 3), (2, 4, 2)):
            ch = rand_channel(rng, in_dim, out_dim, n_kraus)
            ch.validate()
            rho = rand_density(rng, in_dim)
            assert abs(np.trace(ch.apply(rho)) - 1.0) < 1e-12


class TestChoiRoundTrip:
    def test_choi_to_kraus_keeps_channel_action(self):
        rng = np.random.default_rng(62)
        for in_dim, out_dim, n_kraus in ((2, 2, 3), (3, 3, 2), (2, 3, 2)):
            ch = rand_channel(rng, in_dim, out_dim, n_kraus)
            # Choi matrix, output (x) input: sum_a vec(K_a) vec(K_a)^dagger.
            choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ch.kraus_ops)
            rebuilt = kraus_from_choi(choi, in_dim, out_dim)
            rebuilt.validate()
            for _ in range(3):
                rho = rand_density(rng, in_dim)
                np.testing.assert_allclose(
                    rebuilt.apply(rho), ch.apply(rho), atol=1e-10, rtol=0.0
                )

    @pytest.mark.parametrize(
        "choi, in_dim, out_dim",
        [
            (np.eye(4), 3, 2),
            (np.eye(6)[None], 3, 2),
            (np.zeros((0, 0)), 0, 2),
            (np.eye(2), -1, -2),
        ],
    )
    def test_side_must_be_product_of_dims(self, choi, in_dim, out_dim):
        message = f"choi must have side {in_dim} * {out_dim}, got {choi.shape}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            kraus_from_choi(choi, in_dim, out_dim)

    @pytest.mark.parametrize("op", [np.zeros((0, 0)), np.zeros((2, 0))])
    def test_operator_side_zero_rejected(self, op):
        with pytest.raises(InvalidChannel, match="shape of sides >= 1"):
            KrausChannel((op,))


class TestSoftObjectChannel:
    def test_action_is_entrywise_multiplication(self):
        rng = np.random.default_rng(63)
        for dim in (2, 3):
            ent = rand_correlation(rng, dim)
            gram = rand_correlation(rng, dim)
            ch = soft_object_channel(SoftMeasurement(ent, gram))
            ch.validate()
            rho = rand_density(rng, dim)
            np.testing.assert_allclose(
                ch.apply(rho), ent * gram.conj() * rho, atol=1e-11, rtol=0.0
            )

    def test_real_instances_match_joint_state_reduction(self):
        rng = np.random.default_rng(64)
        for dim in (2, 3):
            ent = rand_correlation(rng, dim, real=True)
            gram = rand_correlation(rng, dim, real=True)
            rho = rand_density(rng, dim)
            joint = apply_soft(SoftMeasurement(ent, gram), rho)
            reduced = partial_trace(joint, [dim, dim], keep=0)
            ch = soft_object_channel(SoftMeasurement(ent, gram))
            np.testing.assert_allclose(ch.apply(rho), reduced, atol=1e-11, rtol=0.0)

    def test_invalid_matrices_rejected(self):
        # The channel is built only from a checked measurement.
        with pytest.raises(InvalidMeasurement):
            soft_object_channel(SoftMeasurement(np.array([[1.0, 1.2], [1.2, 1.0]]), np.eye(2)))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InvalidMeasurement, match=r"entanglement shape \(2, 2\) != gram"):
            soft_object_channel(SoftMeasurement(np.eye(2), np.eye(3)))

    def test_stacked_measurement_rejected(self):
        stacked = SoftMeasurement(np.broadcast_to(np.eye(2), (3, 2, 2)), np.ones((3, 2, 2)))
        with pytest.raises(DimensionMismatch, match="single D x D measurement"):
            soft_object_channel(stacked)


class TestCoherentInfoChannel:
    def test_identity_channel_returns_input_entropy(self):
        rng = np.random.default_rng(65)
        rho = rand_density(rng, 3)
        ch = KrausChannel((np.eye(3),))
        assert coherent_info_channel(ch, rho) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_replace_with_pure_state_is_minus_one(self):
        # K_a = |0><a| traces the input away and outputs |0><0|
        ops = tuple(np.outer([1.0, 0.0], row) for row in np.eye(2))
        ch = KrausChannel(ops)
        assert coherent_info_channel(ch, np.eye(2) / 2.0) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            coherent_info_channel(KrausChannel((np.eye(2),)), np.eye(3) / 3.0)

    def test_input_decomposed_once(self, monkeypatch):
        rng = np.random.default_rng(70)
        rho = rand_density(rng, 2)
        channel = soft_object_channel(
            SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        )
        calls = count_eigensolves(monkeypatch)
        coherent_info_channel(channel, rho)
        # One check-and-purify decomposition of rho, then the output and joint entropies.
        assert calls == [("eigh", (2, 2)), ("eigvalsh", (2, 2)), ("eigvalsh", (4, 4))]

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([[0.5, 0.1], [0.2, 0.5]], "rho not Hermitian: deviation 1.000e-01 > 1.0e-10"),
            ([[0.5, 0.5j], [0.5j, 0.5]], "rho not Hermitian: deviation 1.000e+00 > 1.0e-10"),
            ([[1.0, 0.0], [0.0, 1.0]], "rho trace 2+0j differs from 1 by more than 1.0e-09"),
            ([[1.2, 0.0], [0.0, -0.2]], "rho not PSD: smallest eigenvalue -2.000e-01 < -1.0e-10"),
        ],
    )
    def test_invalid_input_message(self, rho, message):
        """The messages ``validate_density_matrix`` gives for the same input."""
        channel = soft_object_channel(SoftMeasurement(np.eye(2), np.eye(2)))
        with pytest.raises(InvalidState, match=f"^{re.escape(message)}$") as info:
            coherent_info_channel(channel, np.array(rho))
        assert info.value.index is None


class TestCoherentInfoSoft:
    def test_fully_coherent_measurement_keeps_input_entropy(self):
        rng = np.random.default_rng(66)
        rho = rand_density(rng, 3)
        ones = np.ones((3, 3))
        assert coherent_info_soft(rho, SoftMeasurement(ones, ones)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_sharp_measurement_destroys_coherent_info(self):
        rng = np.random.default_rng(67)
        rho = rand_density(rng, 3)
        assert coherent_info_soft(rho, SoftMeasurement(np.eye(3), np.eye(3))) == pytest.approx(
            0.0, abs=1e-12
        )

    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @example(dim=2, seed=68)
    @example(dim=3, seed=68)
    def test_matches_channel_oracle(self, dim, seed):
        """The closed form equals the Kraus route through ``R * conj(Q)`` for
        complex R, Q and rho; every drawn pair is a valid measurement and
        its object channel is trace preserving."""
        rng = np.random.default_rng(seed)
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        gram = rand_correlation(rng, dim)
        measurement = SoftMeasurement(ent, gram)
        channel = soft_object_channel(measurement)
        channel.validate()
        closed = coherent_info_soft(rho, measurement)
        assert closed == pytest.approx(coherent_info_channel(channel, rho), abs=1e-8)

    def test_invalid_measurement_rejected(self):
        # A bad measurement cannot be built, so it never reaches the closed form.
        with pytest.raises(InvalidMeasurement):
            coherent_info_soft(
                np.eye(2) / 2.0, SoftMeasurement(np.array([[1.0, 1.5], [1.5, 1.0]]), np.eye(2))
            )

    def test_one_eigensolve_per_derived_state(self, monkeypatch):
        rng = np.random.default_rng(69)
        rho = np.array([rand_density(rng, 3) for _ in range(4)])
        ent, gram = rand_correlation(rng, 3), rand_correlation(rng, 3)
        m = ent * gram.conj()
        roots = np.sqrt(np.diagonal(rho, axis1=-2, axis2=-1).real)
        expected = _unchecked_entropy(m * rho) - _unchecked_entropy(
            roots[..., :, None] * roots[..., None, :] * m
        )
        measurement = SoftMeasurement(ent, gram)
        calls = count_eigvalsh(monkeypatch)
        # The measurement was checked when built; a raw rho takes one check,
        # a checked one none, then one per derived state.
        assert np.array_equal(coherent_info_soft(rho, measurement), expected)
        assert calls == [(4, 3, 3), (4, 3, 3), (4, 3, 3)]
        state = DensityMatrix(rho)
        calls.clear()
        assert np.array_equal(coherent_info_soft(state, measurement), expected)
        assert calls == [(4, 3, 3), (4, 3, 3)]


class TestCoherentInfoTwoLevel:
    def test_sharp_mixed_input_transfers_one_bit(self):
        assert coherent_info_two_level(1.0, 0.5, 0.0) == 1.0

    def test_vanishes_without_any_transmission(self):
        for p in (0.0, 0.3, 0.5, 1.0):
            for mu in (0.0, 0.5, 1.0):
                assert coherent_info_two_level(0.0, p, mu) == 0.0

    def test_pure_input_carries_nothing(self):
        assert coherent_info_two_level(1.0, 0.5, 1.0) == 0.0

    def test_matches_matrix_form_on_grid(self):
        grid = np.linspace(0.0, 1.0, 6)
        for q in grid:
            for p in grid:
                for mu in grid:
                    rho = qubit_state(p, mu)
                    ent = np.ones((2, 2))
                    gram = np.array([[1.0, q], [q, 1.0]])
                    assert coherent_info_two_level(q, p, mu) == pytest.approx(
                        coherent_info_soft(rho, SoftMeasurement(ent, gram)), abs=1e-10
                    )

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            coherent_info_two_level(1.2, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            coherent_info_two_level(0.5, -0.1, 0.5)

    @pytest.mark.parametrize(
        "slot, value", [(0, 0.5j), (1, np.complex128(0.5)), (2, np.array([0.5, 1j]))]
    )
    def test_complex_value_rejected(self, slot, value):
        """A complex value is refused before the conversion to floats, which
        raises ``TypeError`` or warns; in ``CompetitionParams`` too."""
        args = [0.5, 0.5, 0.5]
        args[slot] = value
        for call, names in (
            (coherent_info_two_level, ("q", "p", "mu")),
            (CompetitionParams, ("q_eve", "q_bob", "mu")),
        ):
            message = f"{names[slot]} must be real, got {value!r}"
            with pytest.raises(OutOfRange, match=f"^{re.escape(message)}$"):
                call(*args)


# Unit-interval floats; the endpoints, the smallest subnormal and the float
# just below 1 are drawn often, since 0 and 1 take the clamp of ``_g`` and
# its ``x >= 1`` branch.
UNIT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300, math.nextafter(1.0, 0.0)]),
    st.floats(0.0, 1.0),
)
TRIPLES = st.lists(st.tuples(UNIT, UNIT, UNIT), min_size=1, max_size=40)


class TestTwoLevelArrays:
    """Array calls of the two-level closed forms against the scalar ``math``
    code they replaced (kept in ``conftest``), with equal floats."""

    @settings(deadline=None)
    @given(TRIPLES)
    def test_coherent_info_matches_scalar_reference(self, triples):
        q, p, mu = (np.array(column) for column in zip(*triples))
        expected = [scalar_coherent_info_two_level(*t) for t in triples]
        assert np.array_equal(coherent_info_two_level(q, p, mu), expected)

    @settings(deadline=None)
    @given(UNIT, UNIT, UNIT)
    def test_scalar_call_returns_the_reference_float(self, q, p, mu):
        value = coherent_info_two_level(q, p, mu)
        assert type(value) is float
        assert value == scalar_coherent_info_two_level(q, p, mu)

    @settings(deadline=None)
    @given(
        st.lists(
            st.one_of(UNIT, st.floats(-2.0, 3.0), st.sampled_from([-0.0, 1.0 + 2.0**-52, 2.0])),
            min_size=1,
            max_size=40,
        )
    )
    def test_g_matches_scalar_reference_with_clamp(self, xs):
        assert np.array_equal(_g(np.array(xs)), [scalar_g(x) for x in xs])

    def test_broadcast_grid(self):
        qs, mus = np.linspace(0.0, 1.0, 31), np.linspace(0.0, 1.0, 17)
        for p in (0.0, 0.2, 0.5, 1.0):
            expected = [[scalar_coherent_info_two_level(q, p, mu) for mu in mus] for q in qs]
            assert np.array_equal(coherent_info_two_level(qs[:, None], p, mus[None, :]), expected)

    @settings(deadline=None)
    @given(TRIPLES)
    def test_compete_matches_scalar_reference(self, triples):
        q_eve, q_bob, mu = (np.array(column) for column in zip(*triples))
        info = compete_two_level(CompetitionParams(q_eve=q_eve, q_bob=q_bob, mu=mu))
        expected = [scalar_compete_two_level(*t) for t in triples]
        assert np.array_equal(np.stack(info, axis=-1), expected)

    def test_scalar_competition_returns_floats(self):
        info = compete_two_level(CompetitionParams(q_eve=0.3, q_bob=0.6, mu=0.9))
        assert all(type(v) is float for v in info)
        assert info == scalar_compete_two_level(0.3, 0.6, 0.9)

    def test_out_of_range_names_first_failing_member(self):
        q = np.array([[0.5, 0.2], [1.5, 0.3]])
        mu = np.array([[0.5, 0.2], [0.5, -1.0]])
        with pytest.raises(OutOfRange) as exc:
            coherent_info_two_level(q, 0.5, mu)
        assert str(exc.value) == "q must lie in [0, 1], got 1.5 (stack member [1, 0])"
        assert exc.value.index == (1, 0)

    def test_first_failing_member_comes_before_argument_order(self):
        # mu fails at [0, 0] and q only at [0, 1]: a loop over the members meets mu first.
        with pytest.raises(OutOfRange) as exc:
            coherent_info_two_level(np.array([[0.5, 2.0]]), 0.5, np.array([[-1.0, 0.5]]))
        assert str(exc.value) == "mu must lie in [0, 1], got -1.0 (stack member [0, 0])"
        assert exc.value.index == (0, 0)

    @pytest.mark.parametrize("q", [1.2, math.nan])
    def test_scalar_out_of_range_has_no_index(self, q):
        with pytest.raises(OutOfRange) as exc:
            coherent_info_two_level(q, 0.5, 0.5)
        assert str(exc.value) == f"q must lie in [0, 1], got {q}"
        assert exc.value.index is None

    def test_competition_params_check_array_fields(self):
        with pytest.raises(OutOfRange) as exc:
            CompetitionParams(
                q_eve=np.array([0.1, 0.2, 0.3]), q_bob=np.array([0.0, 1.0, 2.0]), mu=1.0
            )
        assert str(exc.value) == "q_bob must lie in [0, 1], got 2.0 (stack member [2])"
        assert exc.value.index == (2,)


class TestMeterEnsemble:
    def test_orthogonal_meter_copies_populations(self):
        rng = np.random.default_rng(69)
        states = (rand_density(rng, 2), rand_density(rng, 2))
        ens = StateEnsemble(probs=np.array([0.4, 0.6]), states=states)
        out = meter_ensemble(ens, SoftMeasurement(np.eye(2), np.eye(2)))
        for src, dst in zip(states, out.states):
            np.testing.assert_allclose(dst, np.diag(np.diag(src).real), atol=1e-13, rtol=0.0)

    def test_trivial_meter_destroys_distinguishability(self):
        rng = np.random.default_rng(70)
        ens = StateEnsemble(
            probs=np.array([0.5, 0.5]),
            states=(rand_density(rng, 2), rand_density(rng, 2)),
        )
        out = meter_ensemble(ens, SoftMeasurement(np.eye(2), np.ones((2, 2))))
        np.testing.assert_allclose(out.states[0], out.states[1], atol=1e-13, rtol=0.0)
        assert holevo_info(out) == pytest.approx(0.0, abs=1e-12)

    def test_pure_basis_inputs_select_meter_states(self):
        rng = np.random.default_rng(71)
        gram = rand_correlation(rng, 2)
        vecs = meter_states(gram)
        ens = StateEnsemble(
            probs=np.array([0.5, 0.5]),
            states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        out = meter_ensemble(ens, SoftMeasurement(np.eye(2), gram))
        for k in range(2):
            np.testing.assert_allclose(
                out.states[k], np.outer(vecs[:, k], vecs[:, k].conj()), atol=1e-13, rtol=0.0
            )

    def test_dimension_mismatch(self):
        ens = StateEnsemble(probs=np.array([1.0]), states=(np.eye(2) / 2.0,))
        with pytest.raises(DimensionMismatch, match=r"^measurement dim 3 != ensemble dim 2$"):
            meter_ensemble(ens, SoftMeasurement(np.eye(3), np.eye(3)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_measurement_gives_the_floats_of_its_gram_matrix(self, dim, monkeypatch):
        """A measurement hands over the meter states it keeps: the same
        ensemble as from any measurement with its Gram matrix (the
        entanglement does not enter), without checking or rooting the Gram
        matrix again."""
        rng = np.random.default_rng(72 + dim)
        ens = StateEnsemble(
            probs=np.full(dim, 1.0 / dim), states=tuple(rand_density(rng, dim) for _ in range(dim))
        )
        measurement = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        expected = meter_ensemble(ens, SoftMeasurement(np.eye(dim), measurement.gram))
        measurement.meter_vectors
        checked = spy_correlation_checks(monkeypatch)
        calls = count_eigensolves(monkeypatch)
        got = meter_ensemble(ens, measurement)
        assert checked == []
        assert calls == [("eigvalsh", (dim, dim))] * dim  # the output states' spectra
        for mine, theirs in zip(got.states, expected.states):
            assert np.array_equal(mine, theirs)


class TestHolevoInfo:
    def test_orthogonal_pure_states_give_one_bit(self):
        ens = StateEnsemble(
            probs=np.array([0.5, 0.5]),
            states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
        )
        assert holevo_info(ens) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_give_zero(self):
        rng = np.random.default_rng(72)
        rho = rand_density(rng, 3)
        ens = StateEnsemble(probs=np.array([0.3, 0.7]), states=(rho, rho))
        assert holevo_info(ens) == pytest.approx(0.0, abs=1e-12)

    def test_two_pure_states_with_overlap(self):
        # mixture eigenvalues are (1 +- |c|)/2 for equal priors
        overlap = 0.6
        a = np.array([1.0, 0.0])
        b = np.array([overlap, math.sqrt(1.0 - overlap**2)])
        ens = StateEnsemble(
            probs=np.array([0.5, 0.5]),
            states=(np.outer(a, a), np.outer(b, b)),
        )
        assert holevo_info(ens) == pytest.approx(
            binary_entropy((1.0 + overlap) / 2.0), abs=1e-12
        )

    def test_bounds(self):
        rng = np.random.default_rng(73)
        for dim in (2, 3):
            probs = rng.dirichlet(np.ones(3))
            states = tuple(rand_density(rng, dim) for _ in range(3))
            ens = StateEnsemble(probs=probs, states=states)
            value = holevo_info(ens)
            average = sum(p * s for p, s in zip(probs, states))
            assert -1e-12 <= value <= von_neumann_entropy(average) + 1e-12
            assert value <= math.log2(dim) + 1e-12

    def test_conditional_entropies_reuse_the_ensemble_check(self, monkeypatch):
        rng = np.random.default_rng(74)
        probs, states = np.array([0.35, 0.65]), (rand_density(rng, 3), rand_density(rng, 3))
        average = sum(p * s for p, s in zip(probs, states))
        expected = _unchecked_entropy(average) - sum(
            p * _unchecked_entropy(s) for p, s in zip(probs, states)
        )
        calls = count_eigvalsh(monkeypatch)
        value = holevo_info(StateEnsemble(probs=probs, states=states))
        # One decomposition per state for the ensemble check, one for the mixture.
        assert calls == [(3, 3)] * 3
        assert value == expected

    def test_probability_validation(self):
        with pytest.raises(InvalidParams):
            StateEnsemble(probs=np.array([0.5, 0.6]), states=(np.eye(2) / 2.0,) * 2)
        with pytest.raises(InvalidParams):
            StateEnsemble(probs=np.array([-0.1, 1.1]), states=(np.eye(2) / 2.0,) * 2)
        with pytest.raises(InvalidParams, match="finite"):
            StateEnsemble(probs=np.array([math.nan, 1.0]), states=(np.eye(2) / 2.0,) * 2)
        with pytest.raises(InvalidParams, match="^probabilities must be real"):
            StateEnsemble(probs=np.array([0.5, 0.5 + 0j]), states=(np.eye(2) / 2.0,) * 2)


class TestSemiclassicalContinuous:
    def test_zero_at_start(self):
        assert semiclassical_info_continuous(1.0, 0.0) == 0.0

    def test_saturates_at_one_bit(self):
        assert semiclassical_info_continuous(1.0, 30.0) == pytest.approx(1.0, abs=1e-6)

    def test_matches_holevo_of_meter_ensemble(self):
        for kt in (0.3, 0.9, 2.4):
            params = ContinuousLimitParams(kappa=1.0, t=kt, chi_dot=0.5)
            vecs = continuous_soft(params).meter_vectors
            ens = StateEnsemble(
                probs=np.array([0.5, 0.5]),
                states=tuple(
                    np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(2)
                ),
            )
            assert semiclassical_info_continuous(1.0, kt) == pytest.approx(
                holevo_info(ens), abs=1e-10
            )

    def test_matches_closed_display_form(self):
        # -(1/2) [log2((1-c^2)/4) + c log2((1+c)/(1-c))] with c = exp(-rate*kt),
        # at the Gram rate and at half of it, the Gram rate of the paper's kappa
        for kt in (0.7, 1.3):
            for rate, c in ((1.0, math.exp(-kt)), (0.5, math.exp(-kt / 2))):
                display = -0.5 * (
                    math.log2((1.0 - c * c) / 4.0)
                    + c * math.log2((1.0 + c) / (1.0 - c))
                )
                assert semiclassical_info_continuous(rate * 1.0, kt) == pytest.approx(
                    display, abs=1e-12
                )

    def test_monotone_increasing(self):
        values = [semiclassical_info_continuous(1.0, t) for t in np.linspace(0.0, 8.0, 40)]
        assert all(b >= a - 1e-13 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "kappa, t", [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_non_finite_rejected(self, kappa, t):
        with pytest.raises(InvalidParams, match="must be finite"):
            semiclassical_info_continuous(kappa, t)

    @pytest.mark.parametrize("convention", ["gram", "paper"])
    def test_array_of_times(self, convention):
        """The library takes the Gram rate, which a convention's rate times
        its kappa gives; the reference takes the convention's kappa."""
        rate = {"gram": 1.0, "paper": 0.5}[convention]
        times = [0.0, 1e-9, 0.3, 2.0, 60.0]
        values = semiclassical_info_continuous(rate * 0.7, np.array(times))
        expected = [scalar_semiclassical_info_continuous(0.7, t, convention) for t in times]
        assert np.array_equal(values, expected)


class TestCompeteCoherent:
    def test_idle_bob_reduces_to_single_interceptor(self):
        rng = np.random.default_rng(74)
        rho = rand_density(rng, 2)
        ent_eve = rand_correlation(rng, 2)
        gram_eve = rand_correlation(rng, 2)
        ones = np.ones((2, 2))
        eve, bob = SoftMeasurement(ent_eve, gram_eve), SoftMeasurement(ones, ones)
        info_eve, _ = compete_coherent(rho, eve, bob)
        expected = _unchecked_entropy(rho * ent_eve * gram_eve) - _unchecked_entropy(
            rho * ent_eve
        )
        assert info_eve == pytest.approx(expected, abs=1e-12)

    def test_fully_dephased_interceptor_gets_nothing(self):
        # identity entanglement matrix wipes both entropy arguments equally
        rng = np.random.default_rng(75)
        rho = rand_density(rng, 2)
        gram_eve = rand_correlation(rng, 2)
        eve = SoftMeasurement(np.eye(2), gram_eve)
        bob = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        info_eve, _ = compete_coherent(rho, eve, bob)
        assert info_eve == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_level_substitution_rule(self):
        ones = np.ones((2, 2))
        grid = np.linspace(0.0, 1.0, 5)
        for mu in grid:
            rho = qubit_state(0.5, mu)
            for q_eve in grid:
                for q_bob in grid:
                    eve = SoftMeasurement(ones, np.array([[1.0, q_eve], [q_eve, 1.0]]))
                    bob = SoftMeasurement(ones, np.array([[1.0, q_bob], [q_bob, 1.0]]))
                    matrix_vals = compete_coherent(rho, eve, bob)
                    closed_vals = compete_two_level(
                        CompetitionParams(q_eve=q_eve, q_bob=q_bob, mu=mu)
                    )
                    assert matrix_vals[0] == pytest.approx(closed_vals[0], abs=1e-10)
                    assert matrix_vals[1] == pytest.approx(closed_vals[1], abs=1e-10)

    def test_symmetric_for_equal_receivers(self):
        rng = np.random.default_rng(76)
        rho = rand_density(rng, 3)
        ent = rand_correlation(rng, 3)
        gram = rand_correlation(rng, 3)
        receiver = SoftMeasurement(ent, gram)
        info_eve, info_bob = compete_coherent(rho, receiver, receiver)
        assert info_eve == info_bob

    RECEIVER_MATRICES = ("eve entanglement", "eve gram", "bob entanglement", "bob gram")

    @pytest.mark.parametrize("wrong", RECEIVER_MATRICES)
    def test_receiver_shapes_must_match(self, wrong):
        """One matrix of another shape than the other three is rejected
        when its receiver is built, naming both of that receiver's shapes,
        so it never reaches ``compete_coherent``."""
        shapes = {name: (3, 3) if name == wrong else (2, 2) for name in self.RECEIVER_MATRICES}
        receiver = wrong.split()[0]
        message = (
            f"entanglement shape {shapes[receiver + ' entanglement']} "
            f"!= gram shape {shapes[receiver + ' gram']}"
        )
        with pytest.raises(InvalidMeasurement, match=f"^{re.escape(message)}$"):
            eve = SoftMeasurement(np.eye(*shapes["eve entanglement"]), np.eye(*shapes["eve gram"]))
            bob = SoftMeasurement(np.eye(*shapes["bob entanglement"]), np.eye(*shapes["bob gram"]))
            compete_coherent(np.eye(2) / 2.0, eve, bob)

    @pytest.mark.parametrize("eve_dim, bob_dim", [(2, 3), (3, 2)])
    def test_receivers_of_different_dimensions(self, eve_dim, bob_dim):
        eve = SoftMeasurement(np.eye(eve_dim), np.eye(eve_dim))
        bob = SoftMeasurement(np.eye(bob_dim), np.eye(bob_dim))
        message = f"eve dim {eve_dim} != bob dim {bob_dim}"
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            compete_coherent(np.eye(2) / 2.0, eve, bob)

    def test_receivers_of_another_dimension_than_the_state(self):
        receiver = SoftMeasurement(np.eye(3), np.eye(3))
        with pytest.raises(DimensionMismatch, match=r"^rho has shape \(2, 2\)"):
            compete_coherent(np.eye(2) / 2.0, receiver, receiver)


class TestCompeteTwoLevel:
    def test_idle_bob_with_coherent_input(self):
        info_eve, _ = compete_two_level(CompetitionParams(q_eve=0.0, q_bob=1.0, mu=1.0))
        assert info_eve == pytest.approx(1.0, abs=1e-14)

    def test_sharp_bob_blocks_interceptor(self):
        for q_eve in np.linspace(0.0, 1.0, 7):
            info_eve, _ = compete_two_level(
                CompetitionParams(q_eve=q_eve, q_bob=0.0, mu=0.8)
            )
            assert info_eve == 0.0

    def test_incoherent_input_gives_nothing(self):
        info_eve, info_bob = compete_two_level(
            CompetitionParams(q_eve=0.4, q_bob=0.7, mu=0.0)
        )
        assert info_eve == 0.0 and info_bob == 0.0

    def test_swap_symmetry_is_exact(self):
        for q_eve, q_bob, mu in ((0.2, 0.9, 0.6), (0.8, 0.3, 1.0), (0.5, 0.5, 0.4)):
            ie_ab, ib_ab = compete_two_level(
                CompetitionParams(q_eve=q_eve, q_bob=q_bob, mu=mu)
            )
            ie_ba, ib_ba = compete_two_level(
                CompetitionParams(q_eve=q_bob, q_bob=q_eve, mu=mu)
            )
            assert ie_ab == ib_ba and ib_ab == ie_ba

    def test_monotone_in_both_softness_parameters(self):
        grid = np.linspace(0.0, 1.0, 21)
        for q_bob in (0.3, 0.8):
            values = [
                compete_two_level(CompetitionParams(q_eve=q, q_bob=q_bob, mu=0.9))[0]
                for q in grid
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        for q_eve in (0.2, 0.7):
            values = [
                compete_two_level(CompetitionParams(q_eve=q_eve, q_bob=q, mu=0.9))[0]
                for q in grid
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def basis_ensemble():
    return StateEnsemble(
        probs=np.array([0.5, 0.5]),
        states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )


def rigid_bob():
    return SoftMeasurement(np.eye(2), np.eye(2))


class TestEveBobSemiclassical:
    def test_coinciding_bases_are_undisturbed(self):
        for q in np.linspace(0.0, 1.0, 9):
            dephase = np.array([[1.0, q], [q, 1.0]])
            value = eve_bob_semiclassical(basis_ensemble(), 0.0, dephase, rigid_bob())
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_basis_full_dephasing_erases_everything(self):
        dephase = np.eye(2)
        value = eve_bob_semiclassical(basis_ensemble(), math.pi / 2.0, dephase, rigid_bob())
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_absent_interceptor_is_harmless(self):
        dephase = np.ones((2, 2))
        value = eve_bob_semiclassical(basis_ensemble(), math.pi / 2.0, dephase, rigid_bob())
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_surface_stays_in_unit_interval(self):
        for q in np.linspace(0.0, 1.0, 6):
            for theta in np.linspace(0.0, math.pi / 2.0, 6):
                dephase = np.array([[1.0, q], [q, 1.0]])
                value = eve_bob_semiclassical(basis_ensemble(), theta, dephase, rigid_bob())
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_soft_bob_reduces_information(self):
        soft = SoftMeasurement(np.eye(2), np.array([[1.0, 0.7], [0.7, 1.0]]))
        sharp = eve_bob_semiclassical(basis_ensemble(), 0.3, np.ones((2, 2)), rigid_bob())
        fuzzy = eve_bob_semiclassical(basis_ensemble(), 0.3, np.ones((2, 2)), soft)
        assert fuzzy < sharp

    def test_explicit_unitary_in_higher_dimension(self):
        rng = np.random.default_rng(77)
        dim = 3
        states = tuple(
            np.diag(row).astype(complex) for row in np.eye(dim)
        )
        ens = StateEnsemble(probs=np.full(dim, 1.0 / dim), states=states)
        unitary = rand_unitary(rng, dim)
        dephase = rand_correlation(rng, dim)
        bob = SoftMeasurement(np.eye(dim), rand_correlation(rng, dim, real=True))
        value = eve_bob_semiclassical(ens, unitary, dephase, bob)
        assert -1e-12 <= value <= math.log2(dim) + 1e-12
        # identity basis change with any dephasing leaves orthogonal outputs
        same_basis = eve_bob_semiclassical(ens, np.eye(dim), dephase, SoftMeasurement(np.eye(dim), np.eye(dim)))
        assert same_basis == pytest.approx(math.log2(dim), abs=1e-12)

    @pytest.mark.parametrize("members", [2, 3])
    def test_stacked_receiver_rejected(self, members):
        bob = SoftMeasurement(np.stack([np.eye(2)] * members), np.stack([np.eye(2)] * members))
        message = (
            "bob must be a single D x D measurement, "
            f"got a stack of shape ({members}, 2, 2)"
        )
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            eve_bob_semiclassical(basis_ensemble(), 0.3, np.ones((2, 2)), bob)

    def test_bad_gram_checked_once(self, monkeypatch):
        message = "gram is not PSD: eigenvalue -5.000e-01; gram has an entry with modulus > 1"
        with pytest.raises(InvalidMeasurement, match=f"^{re.escape(message)}$"):
            SoftMeasurement(np.eye(2), np.array([[1.0, 1.5], [1.5, 1.0]]))
        good = SoftMeasurement(np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        checked = spy_correlation_checks(monkeypatch)
        eve_bob_semiclassical(basis_ensemble(), 0.3, np.ones((2, 2)), good)
        # The receiver was checked when built; only the raw dephasing matrix is.
        assert checked == ["dephase"]
        with pytest.raises(InvalidMeasurement, match=r"^dephase is not PSD"):
            eve_bob_semiclassical(basis_ensemble(), 0.3, np.array([[1.0, 1.5], [1.5, 1.0]]), good)

    @pytest.mark.parametrize("angle", [np.float32(0.3), np.int64(0), np.array(0.3)])
    def test_numpy_scalar_angle_is_an_angle(self, angle):
        rng = np.random.default_rng(78)
        dephase = rand_correlation(rng, 2)
        bob = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        value = eve_bob_semiclassical(basis_ensemble(), angle, dephase, bob)
        assert value == eve_bob_semiclassical(basis_ensemble(), float(angle), dephase, bob)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidMeasurement):
            eve_bob_semiclassical(
                basis_ensemble(), np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), rigid_bob()
            )
        ens3 = StateEnsemble(
            probs=np.array([1.0]), states=(np.eye(3).astype(complex) / 3.0,)
        )
        with pytest.raises(DimensionMismatch):
            eve_bob_semiclassical(ens3, 0.5, np.eye(3), rigid_bob())

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=5),
    )
    @example([0.0, 0.28, -1.0, 1.0], [math.pi / 2.0, 0.49 * math.pi, 0.2 * math.pi, 20.0])
    def test_rigid_route_matches_closed_form(self, qs, thetas):
        """The ``fig3`` surface, as the sweep builds it (a stack of
        dephasing matrices over one of rotations, a rigid receiver), is the
        closed form of ``fig3_closed_form`` within 1e-14."""
        q = np.array(qs)[:, None]
        dephase, rotations = _two_level_matrix(1.0, q, q), _bloch_y_rotation(np.array(thetas))
        got = eve_bob_semiclassical(basis_ensemble(), rotations, dephase, rigid_bob())
        expected = [[fig3_closed_form(x, y) for y in thetas] for x in qs]
        assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3), (0, 0), (2,)])
    def test_dephase_of_another_dimension_rejected(self, shape):
        dephase = np.ones(shape)
        message = f"dephase shape {shape} does not match dim 2"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            eve_bob_semiclassical(basis_ensemble(), 0.3, dephase, rigid_bob())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_is_not_unitary(self, bad):
        basis = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(InvalidMeasurement, match="^eve_basis is not unitary$"):
            eve_bob_semiclassical(basis_ensemble(), basis, np.eye(2), rigid_bob())


def edge_inputs(offset):
    """A state and a measurement whose diagonals exceed 1 (the state's, 1/2)
    by ``offset``: at 9e-10 each passes its own check, but the traces of
    states derived from them miss 1 by more than ``TAU_TRACE``."""
    ent = np.array([[1.0 + offset, 0.3], [0.3, 1.0 + offset]])
    gram = np.array([[1.0 + offset, 0.4], [0.4, 1.0 + offset]])
    rho = np.array([[0.5 + offset / 2.0, 0.2], [0.2, 0.5 + offset / 2.0]])
    return rho, SoftMeasurement(ent, gram)


def edge_ensemble(rho):
    return StateEnsemble(probs=np.array([0.5, 0.5]), states=(rho, np.diag([1.0, 0.0])))


class TestToleranceEdgeInputs:
    """A state derived from checked inputs is not checked again, so inputs
    at the edge of their tolerances compute; the values are those of the
    exact inputs, up to the offsets."""

    @pytest.mark.parametrize(
        "quantity",
        [
            lambda rho, m: coherent_info_soft(rho, m),
            lambda rho, m: coherent_info_soft(rho, repeat_soft(m, 3)),
            lambda rho, m: holevo_info(meter_ensemble(edge_ensemble(rho), m)),
            lambda rho, m: eve_bob_semiclassical(edge_ensemble(rho), 0.3, m.gram, m),
        ],
        ids=["coherent_info_soft", "repeated", "meter_ensemble", "eve_bob_semiclassical"],
    )
    def test_derived_states_are_not_checked(self, quantity):
        assert quantity(*edge_inputs(9e-10)) == pytest.approx(
            quantity(*edge_inputs(0.0)), abs=1e-8
        )

    @pytest.mark.parametrize("n", [10, 50, np.array([1, 10, 50])], ids=["10", "50", "stack"])
    def test_repeated_gram_power_is_not_checked(self, n):
        """``Q**n`` of a Gram matrix that passed its own Hermiticity check is
        PSD by construction, but its rounding grows with ``n``: here
        8.9e-10 at ``n = 10`` and 4.3e-9 at 50, past ``TAU_HERM``."""
        gram = np.array([[1.0, 0.999], [0.999, 1.0]])
        skewed = SoftMeasurement(np.eye(2), gram + [[0.0, 0.0], [9e-11, 0.0]])
        exact = SoftMeasurement(np.eye(2), gram)
        np.testing.assert_allclose(
            repeat_soft(skewed, n).meter_vectors,
            repeat_soft(exact, n).meter_vectors,
            rtol=0.0,
            atol=1e-8,
        )


class TestStackedInformation:
    def test_bloch_rotation_stack_matches_single_angles(self):
        thetas = np.array([[0.0, 1e-7, 0.4], [1.5, math.pi, 7.0]])
        stack = _bloch_y_rotation(thetas)
        assert stack.shape == (2, 3, 2, 2)
        for index in np.ndindex(thetas.shape):
            assert np.array_equal(stack[index], _bloch_y_rotation(float(thetas[index])))

    def test_non_finite_angle_rejected(self):
        ensemble = StateEnsemble(np.array([0.5, 0.5]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        bob = SoftMeasurement(np.eye(2), np.eye(2))
        with pytest.raises(OutOfRange):
            eve_bob_semiclassical(ensemble, math.inf, np.eye(2), bob)
        with pytest.raises(OutOfRange) as excinfo:
            _bloch_y_rotation(np.array([0.1, 0.2, math.nan]))
        assert excinfo.value.index == (2,)

    def test_eve_bob_stack_matches_explicit_unitaries(self):
        rng = np.random.default_rng(70)
        states = (rand_density(rng, 3), rand_density(rng, 3))
        ensemble = StateEnsemble(np.array([0.3, 0.7]), states)
        bob = SoftMeasurement(rand_correlation(rng, 3), rand_correlation(rng, 3))
        unitaries = np.array([rand_unitary(rng, 3) for _ in range(4)])
        dephase = np.array([rand_correlation(rng, 3) for _ in range(4)])
        infos = eve_bob_semiclassical(ensemble, unitaries, dephase, bob)
        for k in range(4):
            assert infos[k] == eve_bob_semiclassical(ensemble, unitaries[k], dephase[k], bob)
        unitaries[2] *= 2.0
        with pytest.raises(InvalidMeasurement) as excinfo:
            eve_bob_semiclassical(ensemble, unitaries, dephase, bob)
        assert str(excinfo.value) == "eve_basis is not unitary (stack member [2])"
        assert excinfo.value.index == (2,)

    @staticmethod
    def assert_grid_is_the_per_member_formula(ensemble, bob, unitaries, dephase):
        """A grid of rotations (one per column) and dephasings (one per row)
        gives, member by member, the floats of the formula evaluated on that
        member alone with plain products, although the stacked call makes
        the product with the rotation back on the right one product per
        column and the receiver's meter mixing one product in all."""
        infos = eve_bob_semiclassical(ensemble, unitaries[None], dephase[:, None], bob)
        assert infos.shape == (len(dephase), len(unitaries))
        vectors = matrix_sqrt_psd(bob.gram)
        for i, j in np.ndindex(infos.shape):
            u, u_dagger = unitaries[j], unitaries[j].conj().T
            outputs = []
            for state in ensemble.states:
                back = u @ (dephase[i] * (u_dagger @ state @ u)) @ u_dagger
                weights = np.clip(np.diag(back).real, 0.0, None)
                outputs.append((vectors * weights) @ vectors.conj().T)
            assert infos[i, j] == holevo_info(StateEnsemble(ensemble.probs, tuple(outputs)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_eve_bob_stack_is_the_per_member_formula(self, dim):
        """Random complex rotations and a random complex receiver."""
        rng = np.random.default_rng(80 + dim)
        states = tuple(rand_density(rng, dim) for _ in range(3))
        ensemble = StateEnsemble(np.array([0.2, 0.3, 0.5]), states)
        bob = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        unitaries = np.array([rand_unitary(rng, dim) for _ in range(5)])
        dephase = np.array([rand_correlation(rng, dim) for _ in range(4)])
        self.assert_grid_is_the_per_member_formula(ensemble, bob, unitaries, dephase)

    def test_eve_bob_rotation_stack_is_the_per_member_formula(self):
        """Real rotations, as on the fig3 surface, are shared left factors
        too: the rotation back is one product per column on either side."""
        rng = np.random.default_rng(85)
        states = tuple(rand_density(rng, 2) for _ in range(3))
        ensemble = StateEnsemble(np.array([0.2, 0.3, 0.5]), states)
        bob = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        rotations = _bloch_y_rotation(np.array([0.0, 0.3, 1.1, math.pi / 2.0, 2.9]))
        dephase = np.array([rand_correlation(rng, 2) for _ in range(4)])
        self.assert_grid_is_the_per_member_formula(ensemble, bob, rotations, dephase)

    @pytest.mark.parametrize(
        "dim, probs, rotations, rows",
        [
            (2, [0.2, 0.3, 0.5], False, 4),
            (3, [0.2, 0.3, 0.5], False, 4),
            (2, [0.2, 0.3, 0.5], True, 4),
            (21, [0.2, 0.3, 0.5], False, 1),
            (3, [0.0, 0.4, 0.6], False, 4),
        ],
        ids=["2", "3", "rotations", "21", "zero-prior"],
    )
    def test_rigid_receiver_is_the_per_member_formula(
        self, monkeypatch, dim, probs, rotations, rows
    ):
        """A rigid receiver's Holevo information comes from the populations,
        with no meter matrix, and has the floats of the matrix formula; at
        D = 21, where LAPACK no longer sorts a spectrum by insertion, too.
        That case has one dephasing row, so that no product is a tall one:
        a complex tall product of that size differs in bits between
        OpenBLAS kernel sets, and the case is about the spectra."""
        rng = np.random.default_rng(90 + dim)
        states = tuple(rand_density(rng, dim) for _ in range(3))
        ensemble = StateEnsemble(np.array(probs), states)
        bob = SoftMeasurement(np.eye(dim), np.eye(dim))
        if rotations:
            unitaries = _bloch_y_rotation(np.array([0.0, 0.3, 1.1, math.pi / 2.0, 2.9]))
        else:
            unitaries = np.array([rand_unitary(rng, dim) for _ in range(5)])
        dephase = np.array([rand_correlation(rng, dim) for _ in range(rows)])
        forbid_meter_matrices(monkeypatch)
        self.assert_grid_is_the_per_member_formula(ensemble, bob, unitaries, dephase)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_only_a_rigid_receiver_of_three_levels_or_more_sorts(self, monkeypatch, dim):
        """At D = 2 an entropy is one addition of two terms, which does not
        depend on their order, so the rigid route takes its populations
        unsorted; from D = 3 it sorts them."""
        rng = np.random.default_rng(95 + dim)
        states = tuple(rand_density(rng, dim) for _ in range(3))
        ensemble = StateEnsemble(np.array([0.2, 0.3, 0.5]), states)
        bob = SoftMeasurement(np.eye(dim), np.eye(dim))
        unitaries = np.array([rand_unitary(rng, dim) for _ in range(5)])
        dephase = np.array([rand_correlation(rng, dim) for _ in range(4)])
        forbid_meter_matrices(monkeypatch)
        forbid_sorting(monkeypatch)
        if dim > 2:
            with pytest.raises(AssertionError, match="numpy.sort called"):
                eve_bob_semiclassical(ensemble, unitaries[None], dephase[:, None], bob)
        else:
            self.assert_grid_is_the_per_member_formula(ensemble, bob, unitaries, dephase)

    @settings(deadline=None, max_examples=300)
    @given(
        dim=st.integers(1, 24),
        stack=st.lists(st.integers(1, 3), max_size=1),
        size=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=20, stack=[3], size=3, seed=1)
    @example(dim=21, stack=[3], size=3, seed=1)
    @example(dim=24, stack=[], size=1, seed=2)
    def test_rigid_receiver_spectra_are_eigvalsh(self, dim, stack, size, seed):
        """The rigid route's premise: the spectrum of a diagonal state is its
        sorted populations, the floats ``np.linalg.eigvalsh`` returns. With
        the identity basis and no dephasing, the output states are the
        ensemble's own diagonal states, whose populations are drawn with
        ties, zeros and subnormals; the rigid value equals the Holevo
        information of those states, each spectrum from LAPACK."""
        rng = np.random.default_rng(seed)
        pool = [0.0, -0.0, 5e-324, 1e-310, 0.1, 0.25, 0.5, 1.0]
        populations = rng.choice(pool, size=(size, *stack, dim))
        populations[..., rng.integers(dim)] = 1.0
        populations /= populations.sum(axis=-1, keepdims=True)
        states = np.zeros((size, *stack, dim, dim), complex)
        states[..., range(dim), range(dim)] = populations
        probs = rng.choice([0.0, 0.25, 0.5, 1.0], size=size)
        probs[rng.integers(size)] = 1.0
        with pytest.MonkeyPatch.context() as patch:
            calls = count_eigvalsh(patch)
            ensemble = StateEnsemble(probs / probs.sum(), tuple(states))
            matrix = holevo_info(ensemble)
        assert calls == [states.shape[1:]] * (size + 1)
        bob = SoftMeasurement(np.eye(dim), np.eye(dim))
        with pytest.MonkeyPatch.context() as patch:
            forbid_meter_matrices(patch)
            rigid = eve_bob_semiclassical(ensemble, np.eye(dim), np.ones((dim, dim)), bob)
        assert np.array_equal(rigid, matrix)

    @settings(deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_soft_receiver_learns_no_more_than_rigid(self, dim, seed):
        """Data processing at the receiver: a soft receiver is a
        measure-and-prepare channel after the rigid readout, so it never
        learns more; and the rigid value lies in ``[0, log2 D]``. Both hold
        to 1e-12, the rounding of the entropy differences."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5))
        probs = rng.dirichlet(np.ones(size))
        ensemble = StateEnsemble(probs, tuple(rand_density(rng, dim) for _ in range(size)))
        unitary = rand_unitary(rng, dim)
        dephase = rand_correlation(rng, dim)
        soft = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        rigid = SoftMeasurement(np.eye(dim), np.eye(dim))
        rigid_info = eve_bob_semiclassical(ensemble, unitary, dephase, rigid)
        assert eve_bob_semiclassical(ensemble, unitary, dephase, soft) <= rigid_info + 1e-12
        assert -1e-12 <= rigid_info <= math.log2(dim) + 1e-12

    def test_coherent_info_soft_broadcasts(self):
        rng = np.random.default_rng(71)
        rho = rand_density(rng, 3)
        ents = np.array([rand_correlation(rng, 3) for _ in range(5)])
        gram = rand_correlation(rng, 3)
        infos = coherent_info_soft(rho, SoftMeasurement(ents, np.broadcast_to(gram, ents.shape)))
        for k in range(5):
            assert infos[k] == coherent_info_soft(rho, SoftMeasurement(ents[k], gram))

    def test_holevo_of_stacked_ensemble(self):
        rng = np.random.default_rng(72)
        grams = np.array([rand_correlation(rng, 2) for _ in range(6)])
        basis = StateEnsemble(np.array([0.4, 0.6]), (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        stacked = SoftMeasurement(np.broadcast_to(np.eye(2), grams.shape), grams)
        infos = holevo_info(meter_ensemble(basis, stacked))
        for k in range(6):
            single = SoftMeasurement(np.eye(2), grams[k])
            assert infos[k] == holevo_info(meter_ensemble(basis, single))


class TestInformationBalance:
    """The meter's entropies as D x D Schur products, and the balance they
    give. With ``p`` the populations of ``rho`` and ``P = sqrt(p) sqrt(p)^T``,
    the meter state after ``n`` steps, ``V diag(p) V^dagger``, has the
    nonzero spectrum of the Gram matrix of the vectors ``sqrt(p_k) v_k``,
    which is ``P * Q**n`` (entrywise); the meter ensemble of the basis
    states with priors ``p`` has pure members, so its Holevo information is
    that entropy too. Then ``I_c + I_s <= H(p)``: ``I_c + I_s`` is
    ``S(R*Q*rho) + S(P*Q) - S(R*(P*Q))``, the last two add to at most 0
    (a Schur product with a correlation matrix is a unital channel), and a
    state's diagonal is majorised by its spectrum. Each holds to 1e-12, the
    rounding of the entropies; ``R``, ``Q`` and ``rho`` are complex and of
    any rank."""

    @staticmethod
    def draw(dim, seed):
        """``rho``, a measurement and the populations ``p`` of ``rho``."""
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, dim + 1, size=3)
        rho = rand_density_of_rank(rng, dim, ranks[0])
        measurement = SoftMeasurement(
            rand_correlation(rng, dim, rank=ranks[1]), rand_correlation(rng, dim, rank=ranks[2])
        )
        return rho, measurement, np.diagonal(rho).real

    @staticmethod
    def schur_entropy(p, gram):
        """``S(P * gram)``."""
        root = np.sqrt(p)
        return von_neumann_entropy(root[:, None] * root[None, :] * gram)

    @staticmethod
    def shannon(p):
        return -sum(x * math.log2(x) for x in p if x > 0.0)

    @staticmethod
    def meter_holevo(p, measurement):
        """``I_s``: the Holevo information of the meter ensemble of the
        basis states with priors ``p``."""
        basis = tuple(np.diag(row).astype(complex) for row in np.eye(len(p)))
        return holevo_info(meter_ensemble(StateEnsemble(p, basis), measurement))

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(1, 29), st.integers(0, 2**32 - 1))
    def test_repeated_meter_entropy_is_a_schur_product(self, dim, n, seed):
        rho, measurement, p = self.draw(dim, seed)
        meter = meter_dm_repeated(rho, repeat_soft(measurement, n))
        assert von_neumann_entropy(meter) == pytest.approx(
            self.schur_entropy(p, measurement.gram**n), abs=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_meter_holevo_is_a_schur_product(self, dim, seed):
        _, measurement, p = self.draw(dim, seed)
        assert self.meter_holevo(p, measurement) == pytest.approx(
            self.schur_entropy(p, measurement.gram), abs=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(1, 29), st.integers(0, 2**32 - 1))
    def test_coherent_and_semiclassical_share_the_population_entropy(self, dim, n, seed):
        """``I_c + I_s <= H(p)`` and ``I_c <= S(rho)``, for one step, with
        ``I_s`` from the meter ensemble, and for ``n`` steps, with ``I_s``
        the entropy of the meter state."""
        rho, measurement, p = self.draw(dim, seed)
        repeated = repeat_soft(measurement, n)
        bound, entropy = self.shannon(p), von_neumann_entropy(rho)
        for coherent, semiclassical in (
            (coherent_info_soft(rho, measurement), self.meter_holevo(p, measurement)),
            (
                coherent_info_soft(rho, repeated),
                von_neumann_entropy(meter_dm_repeated(rho, repeated)),
            ),
        ):
            assert coherent + semiclassical <= bound + 1e-12
            assert coherent <= entropy + 1e-12
