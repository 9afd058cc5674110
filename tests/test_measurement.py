"""Soft / entangling / general measurement channel tests."""

import math
import re

import numpy as np
import pytest

from conftest import binary_entropy, rand_correlation, rand_density, spy_correlation_checks

from softmeas.errors import (
    DimensionMismatch,
    InvalidMeasurement,
    NotHermitian,
    NotPSD,
    OutOfRange,
    ZeroDt,
)
from softmeas.matcore import partial_trace, validate_density_matrix, von_neumann_entropy
from softmeas.measurement import (
    GeneralMeasurement,
    GeneratorRates,
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_entangling,
    apply_general,
    apply_soft,
    generator_general,
    generator_two_level,
    meter_states_from_gram,
    two_level_gram,
    two_level_meter_states,
    validate_general,
    validate_soft,
)


class TestValidateSoft:
    def test_projective_is_valid(self):
        report = validate_soft(SoftMeasurement(np.eye(2), np.eye(2)))
        assert report.ok and report.failures == ()

    def test_overlarge_offdiagonal_fails_psd(self):
        # 2x2 determinant 1 - |r|^2 < 0 for |r| > 1
        bad = np.array([[1.0, 1.5], [1.5, 1.0]])
        report = validate_soft(SoftMeasurement(bad, np.eye(2)))
        assert not report.ok
        assert any("PSD" in f or "modulus" in f for f in report.failures)

    def test_pure_phase_entanglement_is_valid(self):
        rng = np.random.default_rng(21)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        z = np.exp(1j * phases)
        r = np.outer(z, z.conj())
        np.fill_diagonal(r, 1.0)
        report = validate_soft(SoftMeasurement(r, np.eye(4)))
        assert report.ok

    def test_every_failure_is_listed(self):
        non_herm = np.array([[1.0, 0.5], [0.2, 1.0]])
        bad_diag = np.array([[0.5, 0.0], [0.0, 1.0]])
        report = validate_soft(SoftMeasurement(non_herm, bad_diag))
        assert sum("entanglement" in f for f in report.failures) >= 1
        assert sum("gram" in f for f in report.failures) >= 1


class TestMeterStatesFromGram:
    def test_identity_gives_standard_basis(self):
        np.testing.assert_allclose(meter_states_from_gram(np.eye(3)), np.eye(3), atol=1e-13)

    def test_all_ones_gives_equal_vectors(self):
        vecs = meter_states_from_gram(np.ones((2, 2)))
        expected = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(vecs[:, 0], expected, atol=1e-13)
        np.testing.assert_allclose(vecs[:, 1], expected, atol=1e-13)

    def test_two_level_overlap(self):
        q = two_level_gram(TwoLevelMeterParams(theta=math.pi / 2.0))
        vecs = meter_states_from_gram(q)
        overlap = vecs[:, 0].conj() @ vecs[:, 1]
        assert overlap == pytest.approx(math.cos(math.pi / 4.0), abs=1e-12)

    def test_reproduces_gram_and_norms(self):
        rng = np.random.default_rng(22)
        for dim in (2, 3, 4):
            gram = rand_correlation(rng, dim)
            vecs = meter_states_from_gram(gram)
            np.testing.assert_allclose(vecs.conj().T @ vecs, gram, atol=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(vecs, axis=0), np.ones(dim), atol=1e-10
            )

    def test_invalid_gram_rejected(self):
        with pytest.raises(InvalidMeasurement):
            meter_states_from_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))


def projective_expected(rho):
    d = rho.shape[0]
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        out[k * d + k, k * d + k] = rho[k, k]
    return out


class TestApplySoft:
    def test_projective_outcome(self):
        rng = np.random.default_rng(23)
        rho = rand_density(rng, 3)
        m = SoftMeasurement(np.eye(3), np.eye(3))
        np.testing.assert_allclose(apply_soft(m, rho), projective_expected(rho), atol=1e-13)

    def test_trivial_meter_leaves_object_untouched(self):
        rng = np.random.default_rng(24)
        rho = rand_density(rng, 2)
        m = SoftMeasurement(np.ones((2, 2)), np.ones((2, 2)))
        joint = apply_soft(m, rho)
        u = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(joint, np.kron(rho, np.outer(u, u)), atol=1e-13)
        np.testing.assert_allclose(partial_trace(joint, [2, 2], keep=0), rho, atol=1e-13)

    def test_diagonal_input_yields_population_entropy(self):
        rng = np.random.default_rng(25)
        p = 0.3
        rho = np.diag([p, 1.0 - p]).astype(complex)
        m = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        joint = apply_soft(m, rho)
        assert von_neumann_entropy(joint) == pytest.approx(binary_entropy(p), abs=1e-10)

    def test_output_is_valid_and_nondemolition(self):
        rng = np.random.default_rng(26)
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = rand_density(rng, dim)
                m = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
                joint = apply_soft(m, rho)
                validate_density_matrix(joint)
                assert abs(np.trace(joint) - 1.0) < 1e-9
                reduced = partial_trace(joint, [dim, dim], keep=0)
                np.testing.assert_allclose(
                    np.diag(reduced), np.diag(rho), atol=1e-10
                )

    def test_entropy_transfer_at_full_coherence(self):
        rng = np.random.default_rng(27)
        for dim in (2, 3):
            rho = rand_density(rng, dim)
            m = SoftMeasurement(np.ones((dim, dim)), rand_correlation(rng, dim))
            assert von_neumann_entropy(apply_soft(m, rho)) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-9
            )

    def test_reduced_object_multiplier(self):
        rng = np.random.default_rng(28)
        for dim in (2, 3):
            rho = rand_density(rng, dim)
            ent = rand_correlation(rng, dim)
            gram = rand_correlation(rng, dim)
            joint = apply_soft(SoftMeasurement(ent, gram), rho)
            reduced = partial_trace(joint, [dim, dim], keep=0)
            np.testing.assert_allclose(reduced, ent * gram.conj() * rho, atol=1e-12)
            # with a real Gram matrix this is the plain entrywise product
            real_gram = rand_correlation(rng, dim, real=True)
            joint = apply_soft(SoftMeasurement(ent, real_gram), rho)
            reduced = partial_trace(joint, [dim, dim], keep=0)
            np.testing.assert_allclose(reduced, ent * real_gram * rho, atol=1e-12)

    def test_matches_entangling_for_orthogonal_meter(self):
        rng = np.random.default_rng(29)
        rho = rand_density(rng, 3)
        ent = rand_correlation(rng, 3)
        np.testing.assert_allclose(
            apply_soft(SoftMeasurement(ent, np.eye(3)), rho),
            apply_entangling(ent, rho),
            atol=1e-14,
        )

    def test_basis_outcomes_are_orthogonal_projectors(self):
        rng = np.random.default_rng(30)
        dim = 3
        m = SoftMeasurement(np.ones((dim, dim)), rand_correlation(rng, dim))
        outputs = []
        for k in range(dim):
            rho = np.zeros((dim, dim), dtype=complex)
            rho[k, k] = 1.0
            out = apply_soft(m, rho)
            # rank one
            eigs = np.linalg.eigvalsh(out)
            assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.abs(eigs[:-1]).max() < 1e-10
            outputs.append(out)
        for k in range(dim):
            for l in range(dim):
                overlap = np.trace(outputs[k].conj().T @ outputs[l]).real
                assert overlap == pytest.approx(1.0 if k == l else 0.0, abs=1e-10)

    def test_rejects_bad_inputs(self):
        m = SoftMeasurement(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            apply_soft(m, np.eye(3) / 3.0)
        bad = SoftMeasurement(np.array([[1.0, 1.5], [1.5, 1.0]]), np.eye(2))
        with pytest.raises(InvalidMeasurement):
            apply_soft(bad, np.eye(2) / 2.0)

    def test_bad_gram_checked_once(self, monkeypatch):
        rho = np.eye(2) / 2.0
        not_psd = SoftMeasurement(np.eye(2), np.array([[1.0, 1.5], [1.5, 1.0]]))
        message = "gram is not PSD: eigenvalue -5.000e-01; gram has an entry with modulus > 1"
        with pytest.raises(InvalidMeasurement, match=f"^{re.escape(message)}$"):
            apply_soft(not_psd, rho)
        # Unchecked, the square root that builds the meter states still refuses it.
        with pytest.raises(NotPSD):
            apply_soft(not_psd, rho, validate=False)
        with pytest.raises(NotHermitian):
            apply_soft(SoftMeasurement(np.eye(2), [[1.0, 0.5], [-0.5, 1.0]]), rho, validate=False)
        checked = spy_correlation_checks(monkeypatch)
        apply_soft(SoftMeasurement(np.eye(2), [[1.0, 0.5], [0.5, 1.0]]), rho)
        assert checked == ["entanglement", "gram"]


class TestApplyEntangling:
    def test_premeasurement_clones_basis(self):
        rng = np.random.default_rng(31)
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        c /= np.linalg.norm(c)
        rho = np.outer(c, c.conj())
        joint = apply_entangling(np.ones((3, 3)), rho)
        cloned = np.zeros(9, dtype=complex)
        for k in range(3):
            cloned[k * 3 + k] = c[k]
        np.testing.assert_allclose(joint, np.outer(cloned, cloned.conj()), atol=1e-13)

    def test_projective_at_identity(self):
        rng = np.random.default_rng(32)
        rho = rand_density(rng, 2)
        np.testing.assert_allclose(
            apply_entangling(np.eye(2), rho), projective_expected(rho), atol=1e-13
        )

    def test_offdiagonal_placement(self):
        r = 0.6 + 0.2j
        c = 0.11 - 0.07j
        rho = np.array([[0.5, c], [np.conj(c), 0.5]])
        ent = np.array([[1.0, r], [np.conj(r), 1.0]])
        joint = apply_entangling(ent, rho)
        assert joint[0, 3] == pytest.approx(r * c, abs=1e-14)


class TestApplyGeneral:
    def test_constant_blocks_perform_no_measurement(self):
        rng = np.random.default_rng(33)
        rho = rand_density(rng, 2)
        rho_meter = rand_density(rng, 3)
        blocks = np.empty((2, 2, 3, 3), dtype=complex)
        blocks[:, :] = rho_meter
        joint = apply_general(GeneralMeasurement(blocks), rho)
        np.testing.assert_allclose(joint, np.kron(rho, rho_meter), atol=1e-13)

    def test_projector_blocks_reproduce_entangling(self):
        rng = np.random.default_rng(34)
        dim = 3
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        blocks = np.zeros((dim, dim, dim, dim), dtype=complex)
        for k in range(dim):
            for l in range(dim):
                blocks[k, l, k, l] = ent[k, l]
        np.testing.assert_allclose(
            apply_general(GeneralMeasurement(blocks), rho),
            apply_entangling(ent, rho),
            atol=1e-13,
        )

    def test_soft_blocks_reproduce_apply_soft(self):
        rng = np.random.default_rng(35)
        dim = 3
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        gram = rand_correlation(rng, dim)
        vecs = meter_states_from_gram(gram)
        blocks = np.zeros((dim, dim, dim, dim), dtype=complex)
        for k in range(dim):
            for l in range(dim):
                blocks[k, l] = ent[k, l] * np.outer(vecs[:, k], vecs[:, l].conj())
        np.testing.assert_allclose(
            apply_general(GeneralMeasurement(blocks), rho),
            apply_soft(SoftMeasurement(ent, gram), rho),
            atol=1e-13,
        )

    def test_object_populations_preserved(self):
        rng = np.random.default_rng(36)
        rho = rand_density(rng, 2)
        rho_meter = rand_density(rng, 2)
        blocks = np.empty((2, 2, 2, 2), dtype=complex)
        blocks[:, :] = rho_meter
        joint = apply_general(GeneralMeasurement(blocks), rho)
        reduced = partial_trace(joint, [2, 2], keep=0)
        np.testing.assert_allclose(np.diag(reduced), np.diag(rho), atol=1e-12)

    def test_invalid_blocks_rejected(self):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = np.diag([2.0, -1.0])  # trace 1 but not PSD
        blocks[1, 1] = np.eye(2) / 2.0
        report = validate_general(GeneralMeasurement(blocks))
        assert not report.ok
        with pytest.raises(InvalidMeasurement):
            apply_general(GeneralMeasurement(blocks), np.eye(2) / 2.0)

    @pytest.mark.parametrize("upper, lower", [(np.nan, np.nan), (np.inf, np.inf), (1.0, 0.0)])
    def test_non_hermitian_blocks_rejected(self, upper, lower):
        blocks = np.zeros((2, 2, 2, 2), dtype=complex)
        blocks[0, 0] = blocks[1, 1] = np.eye(2) / 2.0
        blocks[0, 1, 0, 0], blocks[1, 0, 0, 0] = upper, lower
        report = validate_general(GeneralMeasurement(blocks))
        assert report.failures == ("assembled block operator is not Hermitian",)


class TestTwoLevelMeter:
    def test_gram_matches_state_overlap(self):
        params = TwoLevelMeterParams(theta=1.1, phi=0.4, chi=-0.7)
        states = two_level_meter_states(params)
        overlap = states[:, 0].conj() @ states[:, 1]
        assert overlap == pytest.approx(two_level_gram(params)[0, 1], abs=1e-14)

    def test_gram_is_phi_independent(self):
        a = two_level_gram(TwoLevelMeterParams(theta=0.8, phi=0.0, chi=0.3))
        b = two_level_gram(TwoLevelMeterParams(theta=0.8, phi=2.1, chi=0.3))
        np.testing.assert_array_equal(a, b)

    def test_theta_range_enforced(self):
        with pytest.raises(OutOfRange):
            TwoLevelMeterParams(theta=-0.1)
        with pytest.raises(OutOfRange):
            TwoLevelMeterParams(theta=math.pi + 0.1)

    @pytest.mark.parametrize("kwargs", [{"chi": math.inf}, {"chi": math.nan}, {"phi": -math.inf}])
    def test_non_finite_phase_rejected(self, kwargs):
        with pytest.raises(OutOfRange, match="must be finite"):
            TwoLevelMeterParams(theta=1.0, **kwargs)


class TestGenerators:
    def test_zero_rates(self):
        eps0, eps1 = generator_two_level(GeneratorRates(theta_dot=0.0, chi_dot=0.0))
        np.testing.assert_array_equal(eps0, np.zeros((2, 2)))
        np.testing.assert_array_equal(eps1, np.zeros((2, 2)))

    def test_pure_angle_rate(self):
        _, eps1 = generator_two_level(GeneratorRates(theta_dot=1.0, chi_dot=0.0))
        np.testing.assert_allclose(eps1, np.array([[0.0, 1j], [-1j, 0.0]]), atol=1e-15)

    def test_pure_phase_rate(self):
        _, eps1 = generator_two_level(GeneratorRates(theta_dot=0.0, chi_dot=1.0))
        np.testing.assert_allclose(eps1, np.diag([-2.0, 0.0]), atol=1e-15)

    def test_zero_displacements(self):
        gens = generator_general([np.zeros(2), np.zeros(2)], dt=0.1)
        for g in gens:
            np.testing.assert_array_equal(g, np.zeros((2, 2)))

    def test_two_level_correspondence_to_first_order(self):
        # displacement of the tilted meter state for small angle eps and
        # phase chi; the i(a - a+) assembly reproduces the closed two-level
        # generator at rates theta_dot = -eps/(2 dt), chi_dot = chi/dt
        eps, chi, dt = 1e-4, 3e-5, 0.5
        states = two_level_meter_states(TwoLevelMeterParams(theta=eps, chi=chi))
        delta = states[:, 1] - states[:, 0]
        (gen,) = generator_general([delta], dt=dt)
        _, expected = generator_two_level(
            GeneratorRates(theta_dot=-eps / (2.0 * dt), chi_dot=chi / dt)
        )
        np.testing.assert_allclose(gen, expected, atol=1e-7 / dt)

    def test_orthogonal_displacement(self):
        u, dt = 0.37, 0.2
        delta = np.array([0.0, 1j * u * dt])
        (gen,) = generator_general([delta], dt=dt)
        np.testing.assert_allclose(
            gen, -u * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14
        )
        np.testing.assert_allclose(gen, gen.conj().T, atol=1e-15)

    def test_hermitian_for_random_displacements(self):
        rng = np.random.default_rng(37)
        deltas = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
        for g in generator_general(deltas, dt=0.05):
            np.testing.assert_allclose(g, g.conj().T, atol=1e-13)

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf, -0.1])
    def test_zero_dt_rejected(self, dt):
        with pytest.raises(ZeroDt, match="positive"):
            generator_general([np.zeros(2)], dt=dt)


class TestStackedCorrelationCheck:
    """The correlation-matrix check runs once over a stack of Gram matrices."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_stack_matches_members_and_names_first_failure(self, dim):
        rng = np.random.default_rng(150 + dim)
        stack = np.array([rand_correlation(rng, dim) for _ in range(10)]).reshape(2, 5, dim, dim)
        vectors = meter_states_from_gram(stack)
        for index in np.ndindex(2, 5):
            assert np.array_equal(vectors[index], meter_states_from_gram(stack[index]))
        stack[1, 3] = np.full((dim, dim), 1.5) - 0.5 * np.eye(dim)  # unit diagonal, not PSD
        stack[1, 4, 0, 1] = 2.0  # later member: not Hermitian
        with pytest.raises(InvalidMeasurement) as excinfo:
            meter_states_from_gram(stack)
        message = str(excinfo.value)
        assert excinfo.value.index == (1, 3)
        assert "gram[1, 3] is not PSD" in message
        assert "gram[1, 4] is not Hermitian" in message

    def test_non_finite_entry_is_not_hermitian(self):
        gram = np.array([[1.0, np.nan], [np.nan, 1.0]])
        report = validate_soft(SoftMeasurement(np.eye(2), gram))
        assert report.failures == ("gram is not Hermitian within 1.0e-10",)
        assert report.index is None
