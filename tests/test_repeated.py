"""Repeated-measurement and continuous-limit tests."""

import cmath
import inspect
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_eigensolves,
    meter_states,
    rand_correlation,
    rand_density,
    rand_density_of_rank,
    scalar_continuous_gram_sqrt,
    scalar_dephasing_matrix,
    scalar_two_level_gram_sqrt,
    swap_factors,
)

from softmeas import repeated
from softmeas.errors import DimensionMismatch, InvalidMeasurement, InvalidParams, SoftMeasError
from softmeas.information import coherent_info_channel, coherent_info_soft, soft_object_channel
from softmeas.matcore import (
    matrix_sqrt_psd,
    partial_trace,
    validate_density_matrix,
    von_neumann_entropy,
)
from softmeas.measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_soft,
    meter_state,
    two_level_gram,
)
from softmeas.repeated import (
    ContinuousLimitParams,
    collective_representation,
    continuous_soft,
    discrete_step,
    repeat_soft,
    two_level_gram_sqrt,
)


def gram_power(gram, n):
    """The elementwise power ``gram**n`` that a repeated measurement of
    ``gram`` derives; an array of counts gives the stack of powers."""
    return repeat_soft(SoftMeasurement(np.eye(np.shape(gram)[-1]), gram), n).gram


def continuous_gram_sqrt(params):
    """The meter states of the continuous limit: the preset root of
    :func:`continuous_soft`."""
    return continuous_soft(params).meter_vectors


def meter_dm_continuous(rho, params):
    """The continuous limit's meter state, by the repeated meter route."""
    return meter_state(continuous_soft(params), rho)


def joint_dm_continuous(rho, params):
    """The continuous limit's object (x) meter state, by :func:`apply_soft`."""
    return apply_soft(continuous_soft(params), rho)


def scalar_powers(matrix, n):
    """``matrix**n`` for one count, or the stack of the single-count powers."""
    if np.ndim(n) == 0:
        return matrix**n
    return np.array([matrix**k for k in n.tolist()])


# The float one ulp above 1: a correlation entry of that modulus passes the
# check, and its powers grow past modulus 1.
ONE_PLUS_ULP = math.nextafter(1.0, 2.0)


def unit_gram(off: complex) -> np.ndarray:
    """The two-level Gram matrix of unit diagonal with off-diagonal ``off``."""
    return np.array([[1.0, off], [np.conj(off), 1.0]])


class TestGramPower:
    def test_identity_fixed_point(self):
        np.testing.assert_array_equal(gram_power(np.eye(3), 7), np.eye(3))

    def test_real_offdiagonal_cubes(self):
        q = np.array([[1.0, 0.4], [0.4, 1.0]])
        np.testing.assert_allclose(gram_power(q, 3)[0, 1], 0.4**3, atol=1e-15, rtol=0.0)

    def test_phase_accumulates(self):
        theta, chi, n = 0.9, 0.35, 6
        q = two_level_gram(TwoLevelMeterParams(theta=theta, chi=chi))
        expected = np.exp(1j * n * chi) * math.cos(theta / 2.0) ** n
        assert gram_power(q, n)[0, 1] == pytest.approx(expected, abs=1e-14)

    def test_schur_power_stays_valid(self):
        rng = np.random.default_rng(40)
        for dim in (2, 3, 4):
            q = rand_correlation(rng, dim)
            for n in (1, 2, 7, 100, 10**6):
                qn = gram_power(q, n)
                np.testing.assert_allclose(np.diag(qn).real, np.ones(dim), atol=1e-12, rtol=0.0)
                assert np.linalg.eigvalsh(qn).min() > -1e-10

    def test_rejects_zero_power(self):
        with pytest.raises(InvalidParams):
            gram_power(np.eye(2), 0)

    def test_count_stack_matches_scalar_powers(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            q = rand_correlation(rng, dim)
            counts = np.array([1, 2, 3, 2, 17, 1024])
            stack = gram_power(q, counts)
            for k, n in enumerate(counts.tolist()):
                assert np.array_equal(stack[k], q.astype(complex) ** n)


class TestCollectiveRepresentation:
    def test_orthogonal_meter_is_trivial(self):
        rep = collective_representation(np.eye(3), 1)
        np.testing.assert_allclose(rep.meter_vectors, np.eye(3), atol=1e-13, rtol=0.0)

    def test_matches_two_level_closed_form(self):
        for theta in (0.3, 1.2, 2.8):
            for chi in (0.0, -0.9, 2.2):
                for n in (1, 4, 9):
                    params = TwoLevelMeterParams(theta=theta, chi=chi)
                    rep = collective_representation(two_level_gram(params), n)
                    np.testing.assert_allclose(
                        rep.meter_vectors, two_level_gram_sqrt(params, n), atol=1e-12, rtol=0.0
                    )

    def test_large_n_approaches_identity(self):
        q = np.array([[1.0, 0.9], [0.9, 1.0]])
        rep = collective_representation(q, 200)
        assert np.abs(rep.meter_vectors - np.eye(2)).max() < 1e-4

    def test_columns_are_normalized_and_reproduce_gram(self):
        rng = np.random.default_rng(41)
        for dim in (2, 3, 4):
            q = rand_correlation(rng, dim)
            for n in (1, 3):
                rep = collective_representation(q, n)
                np.testing.assert_allclose(
                    np.linalg.norm(rep.meter_vectors, axis=0), np.ones(dim), atol=1e-12, rtol=0.0
                )
                np.testing.assert_allclose(
                    rep.meter_vectors.conj().T @ rep.meter_vectors, rep.gram, atol=1e-10, rtol=0.0
                )

    def test_degenerate_gram_reports_reduced_rank(self):
        rep = collective_representation(np.ones((3, 3)), 5)
        np.testing.assert_array_equal(rep.gram, np.ones((3, 3)))
        # All three meter states coincide: one collective direction is populated.
        expected = np.full((3, 3), 1.0 / math.sqrt(3.0))
        np.testing.assert_allclose(rep.meter_vectors, expected, rtol=0.0, atol=1e-13)
        # Rounding leaves the zero eigenvalues of ones((3, 3)) at ~1e-17;
        # rooted as they are, they would add a collective direction ~3e-9.
        assert np.linalg.matrix_rank(rep.meter_vectors, tol=1e-10) == 1

    def test_invalid_gram_rejected(self):
        with pytest.raises(InvalidMeasurement):
            collective_representation(np.array([[1.0, 1.4], [1.4, 1.0]]), 2)


class TestJointRepeated:
    def test_projective_single_shot(self):
        rng = np.random.default_rng(43)
        rho = rand_density(rng, 2)
        rm = repeat_soft(SoftMeasurement(np.eye(2), np.eye(2)), 1)
        joint = swap_factors(apply_soft(rm, rho), 2, 2)
        expected = np.zeros((4, 4), dtype=complex)
        for k in range(2):
            expected[k * 2 + k, k * 2 + k] = rho[k, k]
        np.testing.assert_allclose(joint, expected, atol=1e-13, rtol=0.0)

    def test_single_shot_matches_apply_soft_after_factor_swap(self):
        rng = np.random.default_rng(44)
        for dim in (2, 3):
            rho = rand_density(rng, dim)
            base = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
            meter_major = swap_factors(apply_soft(repeat_soft(base, 1), rho), dim, dim)
            object_major = apply_soft(base, rho)
            np.testing.assert_allclose(
                swap_factors(meter_major, dim, dim), object_major, atol=1e-13, rtol=0.0
            )

    def test_object_trace_matches_meter_dm_bit_identically(self):
        rng = np.random.default_rng(45)
        dim, n = 3, 4
        rho = rand_density(rng, dim)
        q = rand_correlation(rng, dim)
        ent_a = rand_correlation(rng, dim)
        ent_b = rand_correlation(rng, dim)
        traces = []
        for ent in (ent_a, ent_b):
            repeated = repeat_soft(SoftMeasurement(ent, q), n)
            joint = swap_factors(apply_soft(repeated, rho), dim, dim)
            traces.append(partial_trace(joint, [dim, dim], keep=0))
        assert np.array_equal(traces[0], traces[1])
        meter = meter_state(repeat_soft(SoftMeasurement(ent_a, q), n), rho)
        np.testing.assert_allclose(traces[0], meter, atol=1e-13, rtol=0.0)

    def test_outputs_are_valid_states(self):
        rng = np.random.default_rng(46)
        for dim in (2, 3):
            for n in (1, 2, 6):
                rho = rand_density(rng, dim)
                base = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
                joint = swap_factors(apply_soft(repeat_soft(base, n), rho), dim, dim)
                validate_density_matrix(joint)

    def test_rejects_invalid_repetition_count(self):
        with pytest.raises(InvalidParams):
            repeat_soft(SoftMeasurement(np.eye(2), np.eye(2)), 0)

    @pytest.mark.parametrize("members", [2, 3])
    def test_rejects_stacked_base(self, members):
        base = SoftMeasurement(np.stack([np.eye(2)] * members), np.stack([np.eye(2)] * members))
        message = (
            "base measurement must be a single D x D measurement, "
            f"got a stack of shape ({members}, 2, 2)"
        )
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            repeat_soft(base, 2)


class TestRepeatedMeasurement:
    """The soft measurement that ``repeat_soft`` derives."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, np.array([1, 2, 7, 40])])
    def test_holds_the_powers_and_their_root(self, dim, n):
        rng = np.random.default_rng(49 + dim)
        base = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        repeated = repeat_soft(base, n)
        gram_powers = scalar_powers(base.gram, n)
        assert np.array_equal(repeated.entanglement, scalar_powers(base.entanglement, n))
        assert np.array_equal(repeated.gram, gram_powers)
        assert np.array_equal(repeated.meter_vectors, matrix_sqrt_psd(gram_powers))

    def test_is_a_soft_measurement_of_a_required_count(self):
        repeated = repeat_soft(SoftMeasurement(np.eye(2), np.eye(2)), 3)
        assert type(repeated) is SoftMeasurement
        n = inspect.signature(repeat_soft).parameters["n"]
        assert n.default is inspect.Parameter.empty

    @pytest.mark.parametrize(
        "fn",
        [lambda rho, m: apply_soft(m, rho), lambda rho, m: meter_state(m, rho)],
        ids=["apply_soft", "meter_dm_repeated"],
    )
    @pytest.mark.parametrize(
        "rho",
        [
            np.eye(3) / 3.0,
            np.diag([2.0, -1.0]),
            np.eye(2),
            np.array([[0.5, 0.3], [0.0, 0.5]]),
            np.full((2, 2), np.nan),
        ],
        ids=["3x3", "not-PSD", "trace-2", "not-Hermitian", "nan"],
    )
    def test_rho_checked_as_apply_soft_checks_it(self, fn, rho):
        base = SoftMeasurement(np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(SoftMeasError) as expected:
            apply_soft(base, rho)
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            fn(rho, repeat_soft(base, 3))

    @pytest.mark.parametrize(
        "entanglement_off, gram, n",
        [
            (
                0.6 + 0.8j,
                two_level_gram(TwoLevelMeterParams(theta=math.pi / 3.0)),
                np.array([10**18, 51 * 10**17]),
            ),
            (1.0, two_level_gram(TwoLevelMeterParams(theta=0.0, chi=0.05)), 92 * 10**17),
            (0.0, unit_gram(complex(ONE_PLUS_ULP, 0.0) * cmath.exp(0.3j)), 2**62),
            (0.0, unit_gram(ONE_PLUS_ULP), np.array([2**62, 2**63 - 1])),
            (0.6 + 0.8000000000000002j, np.eye(2), 2**63 - 1),
        ],
        ids=["entanglement", "gram", "overflow-complex", "overflow-real", "overflow-entanglement"],
    )
    def test_unit_modulus_entry_keeps_modulus_one(self, entanglement_off, gram, n):
        """``0.6 + 0.8j`` and ``exp(0.05j)`` have modulus 1, and a float
        modulus of 1 plus an ulp, which numpy's power raises to about e^100
        at counts near 1e18; each power keeps modulus 1 instead, so the
        derived joint state passes its entropy clamp. From about ``2**62``
        on such a power overflows, as those of ``0.6 + 0.8000000000000002j``,
        ``1 + 2**-52`` and that times ``exp(0.3j)`` do; it is then the phase
        ``exp(i*n*arg z)``, with no warning (warnings are errors here)."""
        off = complex(entanglement_off)
        base = SoftMeasurement(np.array([[1.0, off], [off.conjugate(), 1.0]]), gram)
        repeated = repeat_soft(base, n)
        for power, z in ((repeated.entanglement, off), (repeated.gram, complex(gram[0, 1]))):
            assert np.isfinite(power).all()
            assert np.abs(power).max() <= 1.0 + 1e-15
            for count, member in zip(np.atleast_1d(n).tolist(), power.reshape(-1, 2, 2)):
                if abs(z) > 1.0 and count * math.log(abs(z)) > math.log(sys.float_info.max):
                    angle = count * cmath.phase(z)
                    assert member[0, 1] == complex(math.cos(angle), math.sin(angle))
        assert np.isfinite(repeated.meter_vectors).all()
        joint = swap_factors(apply_soft(repeated, np.full((2, 2), 0.5)), 2, 2)
        assert np.all(np.linalg.eigvalsh(joint) > -1e-10)


class TestRepeatedThroughSingleRoutes:
    """A repeated measurement is the soft measurement of the powers, so the
    routes that take a single measurement take it, and agree."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(1, 29), st.integers(0, 2**32 - 1))
    def test_routes_agree(self, dim, n, seed):
        """For complex R, Q and rho: tracing the meter out of the joint state
        leaves ``multiplier * rho``; with its factors swapped, that joint
        state holds the meter-major entries
        ``R**n[i,j] * rho[i,j] * V[k,i] * conj(V[l,j])`` bit for bit; the
        Kraus route is a channel and gives the closed form's coherent
        information."""
        rng = np.random.default_rng(seed)
        rho = rand_density(rng, dim)
        base = SoftMeasurement(rand_correlation(rng, dim), rand_correlation(rng, dim))
        m = repeat_soft(base, n)
        joint = apply_soft(m, rho)
        reduced = partial_trace(joint, [dim, dim], keep=0)
        np.testing.assert_allclose(reduced, m.multiplier * rho, atol=1e-12, rtol=0.0)
        vectors = m.meter_vectors
        meter_major = np.einsum("ij,ki,lj->kilj", m.entanglement * rho, vectors, vectors.conj())
        assert np.array_equal(swap_factors(joint, dim, dim), meter_major.reshape(joint.shape))
        channel = soft_object_channel(m)
        channel.validate()
        assert coherent_info_channel(channel, rho) == pytest.approx(
            coherent_info_soft(rho, m), abs=1e-10
        )


def meter_after(rho, gram, n):
    """The repeated meter state of ``gram``; the entanglement matrix drops out."""
    return meter_state(repeat_soft(SoftMeasurement(np.eye(2), gram), n), rho)


class TestMeterRepeated:
    def test_sharp_limit_reproduces_populations(self):
        rng = np.random.default_rng(47)
        rho = rand_density(rng, 2)
        q = np.array([[1.0, 0.3], [0.3, 1.0]])
        meter = meter_after(rho, q, 60)  # 0.3**60 ~ 4e-32
        np.testing.assert_allclose(meter, np.diag(np.diag(rho).real), atol=1e-12, rtol=0.0)

    def test_trivial_meter_is_pure(self):
        rng = np.random.default_rng(48)
        rho = rand_density(rng, 2)
        meter = meter_after(rho, np.ones((2, 2)), 5)
        u = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(meter, np.outer(u, u), atol=1e-12, rtol=0.0)
        assert von_neumann_entropy(meter) == pytest.approx(0.0, abs=1e-10)

    def test_pure_basis_input_gives_pure_meter(self):
        params = TwoLevelMeterParams(theta=0.8, chi=0.2)
        q = two_level_gram(params)
        rho = np.diag([1.0, 0.0]).astype(complex)
        for n in (1, 3, 8):
            meter = meter_after(rho, q, n)
            vec = two_level_gram_sqrt(params, n)[:, 0]
            np.testing.assert_allclose(meter, np.outer(vec, vec.conj()), atol=1e-12, rtol=0.0)
            assert von_neumann_entropy(meter) == pytest.approx(0.0, abs=1e-10)


def product_space_joint(rho, ent, gram, n):
    """Joint state with all n meter copies kept explicitly (object last)."""
    dim = rho.shape[0]
    vecs = meter_states(gram)
    side = dim**n * dim
    out = np.zeros((side, side), dtype=complex)
    basis = np.eye(dim)
    for k in range(dim):
        ket_k = np.array([1.0])
        for _ in range(n):
            ket_k = np.kron(ket_k, vecs[:, k])
        for l in range(dim):
            ket_l = np.array([1.0])
            for _ in range(n):
                ket_l = np.kron(ket_l, vecs[:, l])
            weight = (ent[k, l] ** n) * rho[k, l]
            out += weight * np.outer(
                np.kron(ket_k, basis[:, k]), np.kron(ket_l, basis[:, l]).conj()
            )
    return out


class TestDephasingComposition:
    """Tracing out m of n meter copies composes into the entanglement matrix."""

    def test_real_gram_composition(self):
        rng = np.random.default_rng(49)
        rho = rand_density(rng, 2)
        ent = rand_correlation(rng, 2)
        gram = rand_correlation(rng, 2, real=True)
        n = 3
        full = product_space_joint(rho, ent, gram, n)
        for m in (1, 2):
            kept = list(range(m, n + 1))  # drop the first m meter copies
            traced = partial_trace(full, [2] * n + [2], keep=kept)
            composed = (ent**n) * (gram**m)
            direct = product_space_joint(rho, np.ones((2, 2)), gram, n - m)
            # overwrite the pairwise weights with the composed matrix
            expected = np.zeros_like(direct)
            basis = np.eye(2)
            vecs = meter_states(gram)
            for k in range(2):
                ket_k = np.array([1.0])
                for _ in range(n - m):
                    ket_k = np.kron(ket_k, vecs[:, k])
                for l in range(2):
                    ket_l = np.array([1.0])
                    for _ in range(n - m):
                        ket_l = np.kron(ket_l, vecs[:, l])
                    expected += (
                        composed[k, l]
                        * rho[k, l]
                        * np.outer(
                            np.kron(ket_k, basis[:, k]), np.kron(ket_l, basis[:, l]).conj()
                        )
                    )
            np.testing.assert_allclose(traced, expected, atol=1e-12, rtol=0.0)

    def test_complex_gram_composes_with_transposed_power(self):
        # each traced copy contributes <l|k> = conj(gram[k, l])
        rng = np.random.default_rng(50)
        rho = rand_density(rng, 2)
        ent = rand_correlation(rng, 2)
        gram = rand_correlation(rng, 2)
        n, m = 2, 1
        full = product_space_joint(rho, ent, gram, n)
        traced = partial_trace(full, [2] * n + [2], keep=[m, n])
        composed = (ent**n) * (gram.conj() ** m)
        vecs = meter_states(gram)
        basis = np.eye(2)
        expected = np.zeros_like(traced)
        for k in range(2):
            for l in range(2):
                expected += (
                    composed[k, l]
                    * rho[k, l]
                    * np.outer(
                        np.kron(vecs[:, k], basis[:, k]),
                        np.kron(vecs[:, l], basis[:, l]).conj(),
                    )
                )
        np.testing.assert_allclose(traced, expected, atol=1e-12, rtol=0.0)


class TestTwoLevelGramSqrt:
    def test_orthogonal_meter_gives_identity(self):
        for n in (1, 2, 9):
            np.testing.assert_allclose(
                two_level_gram_sqrt(TwoLevelMeterParams(theta=math.pi), n),
                np.eye(2),
                atol=1e-12, rtol=0.0,
            )

    def test_identical_meter_states(self):
        out = two_level_gram_sqrt(TwoLevelMeterParams(theta=0.0), 4)
        np.testing.assert_allclose(out, np.ones((2, 2)) / math.sqrt(2.0), atol=1e-13, rtol=0.0)

    def test_against_generic_square_root(self):
        params = TwoLevelMeterParams(theta=math.pi / 3.0, chi=0.2)
        oracle = matrix_sqrt_psd(two_level_gram(params) ** 5)
        np.testing.assert_allclose(two_level_gram_sqrt(params, 5), oracle, atol=1e-12, rtol=0.0)

    @settings(deadline=None)
    @given(
        theta=st.one_of(st.sampled_from([0.0, 1e-7, math.pi]), st.floats(0.0, math.pi)),
        chi=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0)),
        counts=st.lists(st.integers(1, 5000), min_size=1, max_size=30),
    )
    def test_count_array_has_the_bits_of_the_scalar_reference(self, theta, chi, counts):
        stack = two_level_gram_sqrt(TwoLevelMeterParams(theta=theta, chi=chi), np.array(counts))
        expected = np.array([scalar_two_level_gram_sqrt(theta, chi, n) for n in counts])
        # Bytes, not values: signed zeros in the imaginary parts must match too.
        assert stack.tobytes() == expected.tobytes()

    def test_single_count_is_one_matrix(self):
        out = two_level_gram_sqrt(TwoLevelMeterParams(theta=1.1, chi=-0.4), 7)
        assert out.tobytes() == scalar_two_level_gram_sqrt(1.1, -0.4, 7).tobytes()

    def test_invalid_count_named(self):
        with pytest.raises(InvalidParams) as exc:
            two_level_gram_sqrt(TwoLevelMeterParams(theta=1.0), np.array([2, 0, 3]))
        assert str(exc.value) == "repetition count must be >= 1, got 0 (stack member [1])"
        assert exc.value.index == (1,)


TIMES = st.floats(0.0, 50.0)


class TestContinuousSoft:
    """The continuous limit at time ``t`` is the soft measurement that
    :func:`continuous_soft` derives, so the routes that take a single
    measurement take it, and agree."""

    @settings(deadline=None, max_examples=150)
    @given(
        st.floats(0.0, 10.0),
        st.floats(-10.0, 10.0),
        st.complex_numbers(max_magnitude=10.0).filter(lambda r: r.real >= 0.0),
        st.one_of(TIMES, st.lists(TIMES, min_size=1, max_size=6).map(np.array)),
    )
    def test_is_a_soft_measurement(self, kappa, chi_dot, r_dot, t):
        """Every member passes the checks it was built without, and its
        preset meter states are the principal root of its Gram matrix:
        Hermitian with non-negative eigenvalues, with ``V^dagger V`` the
        Gram matrix to 1e-14. They equal the eigensolver's root to 1e-14
        where the Gram matrix is well conditioned; where its smallest
        eigenvalue ``1 - exp(-kappa*t)`` nears 0, the eigensolver's root
        itself errs by up to ``eps / sqrt(1 - exp(-kappa*t))``."""
        m = continuous_soft(ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot))
        assert m.entanglement.shape == m.gram.shape == m.meter_vectors.shape == np.shape(t) + (2, 2)
        SoftMeasurement(m.entanglement, m.gram)
        v = m.meter_vectors
        assert np.array_equal(v, np.conj(np.swapaxes(v, -1, -2)))
        assert np.all(np.linalg.eigvalsh(v) >= -1e-15)
        gram_of_v = np.conj(np.swapaxes(v, -1, -2)) @ v
        np.testing.assert_allclose(gram_of_v, m.gram, atol=1e-14, rtol=0.0)
        smallest = np.maximum(-np.expm1(-kappa * np.asarray(t)), np.finfo(float).eps)
        error = np.abs(v - matrix_sqrt_psd(m.gram)).max(axis=(-2, -1))
        assert np.all(error <= 1e-14 + 4.0 * np.finfo(float).eps / np.sqrt(smallest))

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(0.0, 10.0),
        st.floats(-10.0, 10.0),
        st.complex_numbers(max_magnitude=10.0).filter(lambda r: r.real >= 0.0),
        TIMES,
        st.integers(0, 2**32 - 1),
    )
    def test_single_routes_agree(self, kappa, chi_dot, r_dot, t, seed):
        """At one time, tracing the meter out of :func:`apply_soft` leaves
        ``multiplier * rho``, and the Kraus route is a channel that gives
        the closed form's coherent information."""
        rho = rand_density(np.random.default_rng(seed), 2)
        m = continuous_soft(ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot))
        reduced = partial_trace(apply_soft(m, rho), [2, 2], keep=0)
        np.testing.assert_allclose(reduced, m.multiplier * rho, atol=1e-12, rtol=0.0)
        channel = soft_object_channel(m)
        channel.validate()
        assert coherent_info_channel(channel, rho) == pytest.approx(
            coherent_info_soft(rho, m), abs=1e-10
        )

    def test_meter_states_take_no_eigensolve(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        m = continuous_soft(ContinuousLimitParams(kappa=0.7, t=np.array([0.0, 0.5, 9.0])))
        assert m.meter_vectors.shape == (3, 2, 2)
        assert calls == []

    def test_step_is_the_limit_at_one_step(self):
        """One step's entanglement matrix is the limit's at ``t = dt``; its
        Gram matrix is the two-level one of angle ``sqrt(8*kappa*dt)``."""
        step = discrete_step(0.8, 0.6, 0.2 + 0.1j, 0.05)
        limit = continuous_soft(ContinuousLimitParams(0.8, 0.05, chi_dot=0.6, r_dot=0.2 + 0.1j))
        assert type(step) is SoftMeasurement
        assert np.array_equal(step.entanglement, limit.entanglement)
        meter = TwoLevelMeterParams(theta=math.sqrt(8.0 * 0.8 * 0.05), chi=0.6 * 0.05)
        assert np.array_equal(step.gram, two_level_gram(meter))


class TestContinuousGramSqrt:
    def test_start_is_balanced(self):
        out = continuous_gram_sqrt(ContinuousLimitParams(kappa=1.0, t=0.0))
        np.testing.assert_allclose(out, np.full((2, 2), 1.0 / math.sqrt(2.0)), atol=1e-13, rtol=0.0)

    def test_long_time_is_sharp(self):
        out = continuous_gram_sqrt(ContinuousLimitParams(kappa=1.0, t=60.0))
        np.testing.assert_allclose(out, np.eye(2), atol=1e-12, rtol=0.0)

    def test_half_decay_values(self):
        out = continuous_gram_sqrt(ContinuousLimitParams(kappa=1.0, t=math.log(2.0)))
        s_plus = (math.sqrt(1.5) + math.sqrt(0.5)) / 2.0
        s_minus = (math.sqrt(1.5) - math.sqrt(0.5)) / 2.0
        np.testing.assert_allclose(
            out, np.array([[s_plus, s_minus], [s_minus, s_plus]]), atol=1e-14, rtol=0.0
        )

    def test_square_has_exponential_offdiagonal(self):
        for kt in np.linspace(0.0, 50.0, 26):
            params = ContinuousLimitParams(kappa=1.0, t=float(kt), chi_dot=0.4)
            sq = continuous_gram_sqrt(params)
            expected = math.exp(-kt) * np.exp(1j * 0.4 * kt)
            assert (sq @ sq)[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_rows_are_normalized(self):
        params = ContinuousLimitParams(kappa=0.7, t=1.3)
        sq = continuous_gram_sqrt(params)
        assert abs(sq[0, 0]) ** 2 + abs(sq[0, 1]) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestAsymptoticGramSqrt:
    """Long-time expansion of :func:`continuous_gram_sqrt`: diagonal
    ``1 - exp(-2*kappa*t)/8``, off-diagonal ``exp(-kappa*t +- i*chi_dot*t)/2``."""

    def test_matches_exact_form_at_long_times(self):
        kappa, t, chi_dot = 1.0, 10.0, 0.3
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot)
        off = cmath.exp(-kappa * t + 1j * chi_dot * t) / 2.0
        diag = 1.0 - math.exp(-2.0 * kappa * t) / 8.0
        expansion = np.array([[diag, off], [off.conjugate(), diag]])
        np.testing.assert_allclose(continuous_gram_sqrt(params), expansion, atol=1e-8, rtol=0.0)


class TestMeterContinuous:
    def test_no_measurement_projector(self):
        rng = np.random.default_rng(51)
        rho = rand_density(rng, 2)
        meter = meter_dm_continuous(rho, ContinuousLimitParams(kappa=2.0, t=0.0))
        np.testing.assert_allclose(meter, np.full((2, 2), 0.5), atol=1e-13, rtol=0.0)

    def test_long_time_reproduces_populations(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        meter = meter_dm_continuous(rho, ContinuousLimitParams(kappa=1.0, t=30.0))
        np.testing.assert_allclose(meter, np.diag([0.7, 0.3]), atol=1e-6, rtol=0.0)

    def test_offdiagonal_decay(self):
        rng = np.random.default_rng(52)
        rho = rand_density(rng, 2)
        params = ContinuousLimitParams(kappa=0.9, t=1.7, chi_dot=-0.6)
        meter = meter_dm_continuous(rho, params)
        expected = 0.5 * math.exp(-0.9 * 1.7) * np.exp(1j * -0.6 * 1.7)
        assert meter[0, 1] == pytest.approx(expected, abs=1e-13)

    def test_matches_partial_trace_of_joint(self):
        rng = np.random.default_rng(53)
        rho = rand_density(rng, 2)
        params = ContinuousLimitParams(kappa=1.4, t=0.8, chi_dot=0.5, r_dot=0.3 + 0.1j)
        joint = joint_dm_continuous(rho, params)
        np.testing.assert_allclose(
            partial_trace(joint, [2, 2], keep=1),
            meter_dm_continuous(rho, params),
            atol=1e-13, rtol=0.0,
        )


class TestJointContinuous:
    def test_start_is_product_state(self):
        rng = np.random.default_rng(54)
        rho = rand_density(rng, 2)
        joint = joint_dm_continuous(rho, ContinuousLimitParams(kappa=1.0, t=0.0))
        u = np.full(2, 1.0 / math.sqrt(2.0))
        np.testing.assert_allclose(joint, np.kron(rho, np.outer(u, u)), atol=1e-13, rtol=0.0)

    def test_entries_match_block_construction(self):
        rng = np.random.default_rng(55)
        rho = rand_density(rng, 2)
        kappa, chi_dot, r_dot, t = 1.1, 0.7, 0.2 + 0.05j, 0.9
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
        s = continuous_gram_sqrt(params)
        dephase = np.array(
            [[1.0, np.exp(-r_dot * t)], [np.exp(-np.conj(r_dot) * t), 1.0]]
        )
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                block = np.outer(s[:, i], s[:, j].conj())
                expected[i * 2 : i * 2 + 2, j * 2 : j * 2 + 2] = (
                    rho[i, j] * dephase[i, j] * block
                )
        np.testing.assert_allclose(joint_dm_continuous(rho, params), expected, atol=1e-14, rtol=0.0)

    def test_valid_state_for_nonnegative_dephasing(self):
        rng = np.random.default_rng(56)
        rho = rand_density(rng, 2)
        params = ContinuousLimitParams(kappa=0.8, t=1.2, chi_dot=0.3, r_dot=0.4 + 0.2j)
        validate_density_matrix(joint_dm_continuous(rho, params))

    def test_negative_dephasing_rejected(self):
        with pytest.raises(InvalidParams):
            ContinuousLimitParams(kappa=1.0, t=1.0, r_dot=-0.1)
        with pytest.raises(InvalidParams):
            ContinuousLimitParams(kappa=-1.0, t=1.0)
        with pytest.raises(InvalidParams):
            ContinuousLimitParams(kappa=1.0, t=-1.0)


class TestJointEntropyFromObjectSpace:
    """Every joint state is ``W (R * rho) W^dagger`` with the isometry
    ``W|k> = |k>|v_k>`` onto the meter states ``v_k`` (unit vectors), so its
    entropy is that of the D x D state ``R * rho`` (entrywise), whatever
    the Gram matrix."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_discrete_routes(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        ranks = rng.integers(1, dim + 1, size=3)
        rho = rand_density_of_rank(rng, dim, ranks[0])
        measurement = SoftMeasurement(
            rand_correlation(rng, dim, rank=ranks[1]), rand_correlation(rng, dim, rank=ranks[2])
        )
        expected = von_neumann_entropy(measurement.entanglement * rho)
        assert von_neumann_entropy(apply_soft(measurement, rho)) == pytest.approx(
            expected, abs=1e-12
        )
        repeated = repeat_soft(measurement, n)
        joint = swap_factors(apply_soft(repeated, rho), dim, dim)
        assert von_neumann_entropy(joint) == pytest.approx(
            von_neumann_entropy(repeated.entanglement * rho), abs=1e-12
        )

    @settings(deadline=None, max_examples=60)
    @given(
        st.integers(1, 2),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
        st.floats(-5.0, 5.0),
        st.complex_numbers(max_magnitude=5.0).filter(lambda r: r.real >= 0.0),
        st.integers(0, 2**32 - 1),
    )
    def test_continuous_route(self, rank, kappa, t, chi_dot, r_dot, seed):
        rho = rand_density_of_rank(np.random.default_rng(seed), 2, rank)
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
        assert von_neumann_entropy(joint_dm_continuous(rho, params)) == pytest.approx(
            von_neumann_entropy(scalar_dephasing_matrix(r_dot, t) * rho), abs=1e-12
        )


def joint_dm_continuous_by_steps(rho, kappa, chi_dot, r_dot, t, n):
    """The object (x) meter state after ``n`` discrete steps of length ``t / n``."""
    return apply_soft(repeat_soft(discrete_step(kappa, chi_dot, r_dot, t / n), n), rho)


class TestDiscreteToContinuous:
    def test_first_order_convergence(self):
        rng = np.random.default_rng(57)
        rho = rand_density(rng, 2)
        kappa, chi_dot, r_dot = 1.0, 0.7, 0.2 + 0.05j
        t = 1.0
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
        exact = joint_dm_continuous(rho, params)
        errors = []
        for n in (16, 32, 64):
            approx = joint_dm_continuous_by_steps(rho, kappa, chi_dot, r_dot, t, n)
            errors.append(np.abs(approx - exact).max())
        assert errors[1] <= 0.8 * errors[0]
        assert errors[2] <= 0.8 * errors[1]

    @pytest.mark.parametrize("dt", [0.01, 2.0])
    @pytest.mark.parametrize("r_dot", [0.3j, 2j, 0.2 + 0.5j])
    def test_step_is_a_measurement(self, r_dot, dt):
        """The step's entanglement entry has modulus ``exp(-Re(r_dot)*dt)``,
        at most 1 for a purely imaginary rate too, so the step passes the
        checks it was built without."""
        step = discrete_step(0.1, 0.0, r_dot, dt)
        assert abs(step.entanglement[0, 1]) <= 1.0
        SoftMeasurement(step.entanglement, step.gram)

    def test_imaginary_rate_converges_first_order(self):
        rho = rand_density(np.random.default_rng(57), 2)
        params = ContinuousLimitParams(kappa=1.0, t=1.0, chi_dot=0.7, r_dot=0.8j)
        exact = joint_dm_continuous(rho, params)
        errors = []
        for n in (16, 32, 64, 128):
            approx = joint_dm_continuous_by_steps(rho, 1.0, 0.7, 0.8j, 1.0, n)
            errors.append(np.abs(approx - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert fine == pytest.approx(coarse / 2.0, rel=0.05)

    def test_paper_convention_halves_decay_rate(self):
        """The paper's kappa of 1 is the Gram rate 1/2, whose steps have
        ``theta**2 = 4*dt``, exactly."""
        for dt in (1e-300, 1e-9, 1.0 / 400, 0.3, 2.0):
            meter = TwoLevelMeterParams(theta=math.sqrt(4.0 * dt))
            assert np.array_equal(discrete_step(0.5, 0, 0, dt).gram, two_level_gram(meter))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.longdouble])
    def test_step_of_narrow_rates_is_the_float64_step(self, dtype):
        """Rates and a step of another float dtype give the step of the same
        values as float64s: the angle is not formed in the rate's dtype."""
        kappa, chi_dot, dt = dtype(0.1), dtype(0.3), dtype(0.1)
        step = discrete_step(kappa, chi_dot, 0.2 + 0.1j, dt)
        wide = discrete_step(float(kappa), float(chi_dot), 0.2 + 0.1j, float(dt))
        assert np.array_equal(step.gram, wide.gram)
        assert np.array_equal(step.entanglement, wide.entanglement)
        assert discrete_step(np.float32(0.1), 0.0, 0.0, 0.1).gram[0, 1] == 0.9900166554110075

    @pytest.mark.parametrize(
        "kappa, dt, expected",
        [
            (-1.0, 0.1, "kappa must be >= 0, got -1.0"),
            (math.nan, 0.1, "kappa must be finite, got nan"),
            (math.inf, 0.1, "kappa must be finite, got inf"),
            (1.0, math.nan, "dt must be finite and positive, got nan"),
            (1.0, math.inf, "dt must be finite and positive, got inf"),
        ],
    )
    def test_bad_rate_or_step_named(self, kappa, dt, expected):
        with pytest.raises(InvalidParams, match=re.escape(expected)):
            discrete_step(kappa, 0.0, 0.0, dt)

    @pytest.mark.parametrize(
        "chi_dot, r_dot, expected",
        [
            (math.nan, 0.0, "chi_dot must be finite, got nan"),
            (-math.inf, 0.0, "chi_dot must be finite, got -inf"),
            (0.0, complex(math.nan, 0.0), "r_dot must be finite, got (nan+0j)"),
            (0.0, complex(0.0, math.inf), "r_dot must be finite, got infj"),
            (0.0, -1.0, "Re(r_dot) must be >= 0, got -1.0"),
            (0.0, complex(-0.5, 2.0), "Re(r_dot) must be >= 0, got (-0.5+2j)"),
        ],
    )
    def test_bad_rate_named(self, chi_dot, r_dot, expected):
        with pytest.raises(InvalidParams, match=f"^{re.escape(expected)}$"):
            discrete_step(1.0, chi_dot, r_dot, 0.1)


class TestStackedCounts:
    def test_array_of_counts_stacks_every_field(self):
        rng = np.random.default_rng(44)
        q = rand_correlation(rng, 3)
        counts = np.array([1, 2, 7, 40])
        rep = collective_representation(q, counts)
        for k, n in enumerate(counts.tolist()):
            single = collective_representation(q, n)
            assert np.array_equal(rep.gram[k], single.gram)
            assert np.array_equal(rep.meter_vectors[k], single.meter_vectors)

    def test_count_stack_gives_the_same_states(self):
        rng = np.random.default_rng(45)
        rho = rand_density(rng, 2)
        base = SoftMeasurement(rand_correlation(rng, 2), rand_correlation(rng, 2))
        counts = np.array([1, 3, 9])
        stacked = repeat_soft(base, counts)
        joint = swap_factors(apply_soft(stacked, rho), 2, 2)
        meter = meter_state(stacked, rho)
        for k, n in enumerate(counts.tolist()):
            single = repeat_soft(base, n)
            assert np.array_equal(joint[k], swap_factors(apply_soft(single, rho), 2, 2))
            assert np.array_equal(meter[k], meter_state(single, rho))

    def test_invalid_count_named(self):
        with pytest.raises(InvalidParams) as excinfo:
            repeat_soft(SoftMeasurement(np.eye(2), np.eye(2)), np.array([3, 1, 0, -1]))
        assert str(excinfo.value) == "repetition count must be >= 1, got 0 (stack member [2])"
        assert excinfo.value.index == (2,)
        with pytest.raises(InvalidParams, match="integers"):
            repeat_soft(SoftMeasurement(np.eye(2), np.eye(2)), np.array([1.0, 2.0]))


class TestCountsAreIntegers:
    """A count is checked the same way whether it comes alone or in an array."""

    ROUTES = {
        # Keyed by the repeated measurement's former type name, which the
        # test ids keep.
        "RepeatedMeasurement": lambda n: repeat_soft(
            SoftMeasurement(np.eye(2), np.eye(2)), n
        ).gram,
        "two_level_gram_sqrt": lambda n: two_level_gram_sqrt(TwoLevelMeterParams(theta=1.0), n),
        "collective_representation": lambda n: collective_representation(np.eye(2), n).gram,
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "n",
        [2.5, 2.9, np.float64(3.0), np.array(2.0), np.array([1.0, 2.5])],
        ids=["2.5", "2.9", "float64", "0-d array", "array"],
    )
    def test_float_count_rejected(self, route, n):
        with pytest.raises(InvalidParams, match="^repetition counts must be integers"):
            self.ROUTES[route](n)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "n", [3, np.int64(3), np.uint8(3), np.array(3)], ids=["int", "int64", "uint8", "0-d array"]
    )
    def test_integer_count_accepted(self, route, n):
        value = self.ROUTES[route](n)
        assert np.array_equal(value, self.ROUTES[route](3))
        assert np.array_equal(value, self.ROUTES[route](np.array([3]))[0])


class TestContinuousParamsFinite:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa": math.nan, "t": 1.0},
            {"kappa": math.inf, "t": 1.0},
            {"kappa": 1.0, "t": math.inf},
            {"kappa": 1.0, "t": 1.0, "chi_dot": -math.inf},
            {"kappa": 1.0, "t": 1.0, "r_dot": complex(0.0, math.nan)},
        ],
    )
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(InvalidParams, match="must be finite"):
            ContinuousLimitParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kappa": 1j}, "kappa must be a real scalar, got 1j"),
            (
                {"kappa": np.complex128(0.5)},
                "kappa must be a real scalar, got np.complex128(0.5+0j)",
            ),
            ({"kappa": np.array([1.0, 2.0])}, "kappa must be a real scalar, got array([1., 2.])"),
            ({"chi_dot": 1j}, "chi_dot must be a real scalar, got 1j"),
            (
                {"r_dot": np.array([0j, 1j])},
                "r_dot must be a complex scalar, got array([0.+0.j, 0.+1.j])",
            ),
            ({"t": np.array([0.0, 1j])}, "t must be real, got array([0.+0.j, 0.+1.j])"),
        ],
    )
    def test_rate_of_another_kind_rejected(self, kwargs, message):
        """A rate is a scalar, and ``kappa``, ``chi_dot`` and ``t`` are real:
        a complex ``chi_dot`` would turn the phase drift into a decay."""
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            ContinuousLimitParams(**{"kappa": 1.0, "t": 1.0, **kwargs})


class TestContinuousTimeArrays:
    """An array of times gives, member by member, the floats of the calls
    at each time."""

    params = {"kappa": 0.9, "chi_dot": -0.0, "r_dot": 0.3 - 0.4j}
    times = [0.0, 1e-9, 0.4, 2.5, 40.0]

    @pytest.mark.parametrize(
        "fn",
        [
            continuous_gram_sqrt,
            repeated._dephasing_matrix,
            pytest.param(lambda params: continuous_soft(params).gram, id="continuous_soft.gram"),
        ],
    )
    def test_matrices_stack(self, fn):
        stack = fn(ContinuousLimitParams(t=np.array(self.times), **self.params))
        singles = [fn(ContinuousLimitParams(t=t, **self.params)) for t in self.times]
        assert stack.shape == (5, 2, 2)
        assert stack.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("fn", [meter_dm_continuous, joint_dm_continuous])
    def test_states_stack(self, fn):
        rho = rand_density(np.random.default_rng(58), 2)
        stack = fn(rho, ContinuousLimitParams(t=np.array(self.times), **self.params))
        singles = [fn(rho, ContinuousLimitParams(t=t, **self.params)) for t in self.times]
        assert stack.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize(
        "times, expected, index",
        [
            ([0.0, 1.0, -1.0, -2.0], "t must be >= 0, got -1.0 (stack member [2])", (2,)),
            ([[0.0, math.nan]], "t must be finite, got nan (stack member [0, 1])", (0, 1)),
        ],
    )
    def test_first_failing_time_named(self, times, expected, index):
        with pytest.raises(InvalidParams, match=re.escape(expected)) as excinfo:
            ContinuousLimitParams(kappa=1.0, t=np.array(times))
        assert excinfo.value.index == index


class TestPhaseOverflow:
    """A finite rate whose accumulated phase overflows is an
    :class:`InvalidParams` naming the phase and its first failing member; a
    member whose decay overflows too is exactly 0 and keeps its floats."""

    TIMES = np.array([0.0, 1.0, 2.0, 3.0])

    def test_repeated_phase(self):
        params = TwoLevelMeterParams(theta=1.0, chi=1e308)
        message = "accumulated phase n*chi is not finite"
        with pytest.raises(InvalidParams, match=re.escape(f"{message} (stack member [1])")) as exc:
            two_level_gram_sqrt(params, np.array([1, 2, 3]))
        assert exc.value.index == (1,)
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$") as exc:
            two_level_gram_sqrt(params, 2)
        assert exc.value.index is None

    @pytest.mark.parametrize(
        "fn, rates, phase",
        [
            (meter_dm_continuous, {"chi_dot": -1e308}, "chi_dot*t"),
            (joint_dm_continuous, {"chi_dot": 1e308}, "chi_dot*t"),
            (joint_dm_continuous, {"r_dot": 1e308j}, "Im(r_dot)*t"),
            (joint_dm_continuous, {"r_dot": 1.0 - 1e308j}, "Im(r_dot)*t"),
        ],
    )
    def test_continuous_phase(self, fn, rates, phase):
        rho = np.eye(2) / 2.0
        message = f"accumulated phase {phase} is not finite (stack member [2])"
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$") as excinfo:
            fn(rho, ContinuousLimitParams(kappa=1.0, t=self.TIMES, **rates))
        assert excinfo.value.index == (2,)

    @pytest.mark.parametrize("r_dot", [complex(1.0, 1e308), complex(0.0, -1e308)])
    def test_step_phase(self, r_dot):
        """One step's dephasing is the limit's at ``t = dt``, phase check
        included; at that ``dt`` the decay ``Re(r_dot)*dt`` stays finite."""
        message = "accumulated phase Im(r_dot)*t is not finite"
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            discrete_step(0.01, 0.0, r_dot, 4.0)

    def test_overflowing_decay_keeps_its_floats(self):
        r_dot = complex(1e308, 1e308)
        params = ContinuousLimitParams(kappa=1e308, t=self.TIMES, r_dot=r_dot)
        dephasing = [scalar_dephasing_matrix(r_dot, t) for t in self.TIMES.tolist()]
        vectors = [scalar_continuous_gram_sqrt(1e308, t, 0.0) for t in self.TIMES.tolist()]
        assert repeated._dephasing_matrix(params).tobytes() == np.array(dephasing).tobytes()
        assert continuous_gram_sqrt(params).tobytes() == np.array(vectors).tobytes()
