"""Whole-grid sweeps against per-point references.

``softmeas.cli.run_sweep`` evaluates each grid in one call over stacks of
matrices and whole arrays. The references below loop over the grid and call
per-point functions one point at a time: the public ones for the
eigensolver quantities and, for the two-level closed forms (which now run
the whole-array code for a single point too), the scalar copies in
``conftest``. The two must give the same floats (``np.array_equal``), not
merely close ones; for ``continuous``, whose exponentials can give either
sign of zero, the signs of zeros must agree too.
"""

import math

import numpy as np
import pytest
from conftest import (
    count_eigensolves,
    forbid_meter_matrices,
    scalar_coherent_info_two_level,
    scalar_compete_two_level,
    scalar_continuous_gram_sqrt,
    scalar_dephasing_matrix,
    scalar_semiclassical_info_continuous,
    scalar_two_level_gram_sqrt,
    swap_factors,
    spy_correlation_checks,
)

from softmeas import cli, information, repeated
from softmeas.cli import run_sweep
from softmeas.information import StateEnsemble, coherent_info_soft, eve_bob_semiclassical
from softmeas.matcore import von_neumann_entropy
from softmeas.measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_soft,
    meter_state,
    two_level_gram,
)
from softmeas.repeated import repeat_soft


def table(command, config):
    _, rows, _ = run_sweep(command, config)
    return np.array(rows)


def fig3_reference(qs, thetas):
    ensemble = StateEnsemble(
        probs=np.array([0.5, 0.5]),
        states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    rigid_bob = SoftMeasurement(entanglement=np.eye(2), gram=np.eye(2))
    return [
        eve_bob_semiclassical(ensemble, theta, np.array([[1.0, q], [q, 1.0]]), rigid_bob)
        for q in qs
        for theta in thetas
    ]


def qubit_state(p, mu, phase):
    off = mu * math.sqrt(p * (1.0 - p)) * complex(math.cos(phase), math.sin(phase))
    return np.array([[p, off], [np.conj(off), 1.0 - p]])


def repeat_reference(counts, theta, chi, r12, p, mu, phase):
    params = TwoLevelMeterParams(theta=theta, chi=chi)
    measurement = SoftMeasurement(
        entanglement=np.array([[1.0, r12], [np.conj(r12), 1.0]]), gram=two_level_gram(params)
    )
    rho = qubit_state(p, mu, phase)
    rows = []
    for n in counts:
        vectors = scalar_two_level_gram_sqrt(theta, chi, n)
        joint = swap_factors(apply_soft(repeat_soft(measurement, n), rho), 2, 2)
        meter = meter_state(repeat_soft(measurement, n), rho)
        info = coherent_info_soft(
            rho, SoftMeasurement(measurement.entanglement**n, measurement.gram**n)
        )
        rows.append(
            [
                float(n),
                vectors[0, 0].real,
                vectors[0, 1].real,
                vectors[0, 1].imag,
                vectors[1, 1].real,
                von_neumann_entropy(meter),
                von_neumann_entropy(joint),
                info,
            ]
        )
    return rows


class TestFig3WholeGrid:
    def test_default_surface(self):
        config = {"q": "0:1:51", "theta": f"0:{math.pi / 2!r}:51", "kappa_convention": "gram"}
        qs, thetas = np.linspace(0.0, 1.0, 51), np.linspace(0.0, math.pi / 2.0, 51)
        assert np.array_equal(table("fig3", config)[:, 2], fig3_reference(qs, thetas))

    def test_default_sweep_builds_no_meter_matrices(self, monkeypatch):
        """fig3's receiver is rigid, so its Holevo information comes from the
        populations: no meter state is mixed and no derived ensemble built."""
        forbid_meter_matrices(monkeypatch)
        run_sweep("fig3", {**cli._COMMANDS["fig3"].defaults, "kappa_convention": "gram"})

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grids(self, seed):
        rng = np.random.default_rng(300 + seed)
        q_stop = float(rng.uniform(0.05, 1.0))
        theta_start = float(rng.choice([0.0, 1e-7, 1e-4]))
        theta_stop = float(rng.uniform(0.01, 2.0 * math.pi))
        nq, ntheta = (int(k) for k in rng.integers(2, 24, size=2))
        config = {
            "q": f"0:{q_stop!r}:{nq}",
            "theta": f"{theta_start!r}:{theta_stop!r}:{ntheta}",
            "kappa_convention": "gram",
        }
        qs = np.linspace(0.0, q_stop, nq)
        thetas = np.linspace(theta_start, theta_stop, ntheta)
        assert np.array_equal(table("fig3", config)[:, 2], fig3_reference(qs, thetas))


class TestBlocks:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("fig3", {"q": "0:0.9:9", "theta": "1e-07:3.1:5", "kappa_convention": "gram"}),
            ("isweep", {"q": "0:1:20", "p": "0.3", "mu": "0.8", "kappa_convention": "gram"}),
            (
                "repeat",
                {
                    "n": "1:900:20",
                    "theta": "0.4",
                    "chi": "-1.2",
                    "r12": "0.5,0.6",
                    "rho_p": "0.7",
                    "rho_mu": "0.6",
                    "rho_phase": "1.0",
                    "kappa_convention": "gram",
                },
            ),
            (
                "continuous",
                {
                    "t": "0:7:23",
                    "kappa": "0.8",
                    "chi_dot": "-1.3",
                    "r_dot": "0.2,-0.5",
                    "rho_p": "0.3",
                    "rho_mu": "0.9",
                    "rho_phase": "-2.0",
                    "kappa_convention": "paper",
                },
            ),
        ],
    )
    def test_blocks_give_the_whole_grid(self, monkeypatch, command, config):
        whole = table(command, config)
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 7)
        assert np.array_equal(table(command, config), whole)


class TestRepeatWholeGrid:
    def test_default_sweep(self):
        config = {
            "n": "1:10:10",
            "theta": repr(math.pi / 3.0),
            "chi": "0.0",
            "r12": "1,0",
            "rho_p": "0.5",
            "rho_mu": "1.0",
            "rho_phase": "0.0",
            "kappa_convention": "gram",
        }
        expected = repeat_reference(range(1, 11), math.pi / 3.0, 0.0, 1.0, 0.5, 1.0, 0.0)
        assert np.array_equal(table("repeat", config), expected)

    def test_small_counts_complex_r12(self):
        config = {
            "n": "1:4:4",
            "theta": "1.1",
            "chi": "0.7",
            "r12": "0.3,-0.8",
            "rho_p": "0.35",
            "rho_mu": "0.9",
            "rho_phase": "2.2",
            "kappa_convention": "gram",
        }
        expected = repeat_reference(range(1, 5), 1.1, 0.7, complex(0.3, -0.8), 0.35, 0.9, 2.2)
        assert np.array_equal(table("repeat", config), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_complex_inputs(self, seed):
        rng = np.random.default_rng(400 + seed)
        theta = float(rng.choice([1e-7, 1e-3, 0.1, 1.3, math.pi]))
        chi = float(rng.uniform(-math.pi, math.pi))
        modulus, angle = rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)
        r12 = complex(modulus * math.cos(angle), modulus * math.sin(angle))
        p, mu, phase = (float(x) for x in rng.uniform([0.0, 0.0, -4.0], [1.0, 1.0, 4.0]))
        top = int(rng.choice([16, 300, 1024]))
        points = int(rng.integers(2, 60))
        config = {
            "n": f"1:{top}:{points}",
            "theta": repr(theta),
            "chi": repr(chi),
            "r12": f"{r12.real!r},{r12.imag!r}",
            "rho_p": repr(p),
            "rho_mu": repr(mu),
            "rho_phase": repr(phase),
            "kappa_convention": "gram",
        }
        counts = np.unique(np.rint(np.linspace(1, top, points)).astype(int))
        expected = repeat_reference(counts.tolist(), theta, chi, r12, p, mu, phase)
        assert np.array_equal(table("repeat", config), expected)

    # One default sweep of ten counts in one block. The measurement and the
    # input state are checked when built, and nothing checks them again; the
    # repeated measurement derives its powers and root once.
    DEFAULTS = {**cli._COMMANDS["repeat"].defaults, "kappa_convention": "gram"}

    def test_default_sweep_checks_each_correlation_matrix_once_per_entry(self, monkeypatch):
        checked = spy_correlation_checks(monkeypatch)
        run_sweep("repeat", self.DEFAULTS)
        assert checked == ["entanglement", "gram"]

    def test_default_sweep_eigensolves(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        run_sweep("repeat", self.DEFAULTS)
        # Two for the measurement, one check of rho, one root of the Gram
        # powers, two derived states in the coherent information and one per
        # entropy of the meter and joint states.
        assert len(calls) == 8


# LAPACK eigensolves of one default sweep of the other commands. ``single``
# and ``continuous`` check their input state once, when it is built, and
# ``single`` roots its Gram matrix once, for the joint state and the meter
# ensemble both. A basis ensemble is checked when it is built, one
# eigensolve per state: ``single`` and ``isweep`` build theirs in the sweep.
# ``fig3`` builds no ensemble and no receiver: its priors and basis states
# are float constants, its dephasing matrices are derived from the parsed
# ``q`` and not checked again, and its rigid receiver's spectra are the
# populations. So ``fig3`` makes no eigensolve.
@pytest.mark.parametrize(
    "command, solves",
    [("single", 14), ("continuous", 3), ("fig3", 0), ("isweep", 8), ("fig2a", 0), ("fig2b", 0)],
)
def test_default_sweep_eigensolves(monkeypatch, command, solves):
    calls = count_eigensolves(monkeypatch)
    run_sweep(command, {**cli._COMMANDS[command].defaults, "kappa_convention": "gram"})
    assert len(calls) == solves


class TestClosedFormsWholeGrid:
    """fig2a, fig2b and isweep's ``I_c`` against the scalar closed forms."""

    @pytest.mark.parametrize("p", ["0.5", "0", "1", "0.3", "1e-300"])
    def test_fig2a(self, p):
        config = {"q": "0:1:51", "mu": "0:1:37", "p": p, "kappa_convention": "gram"}
        expected = [
            scalar_coherent_info_two_level(q, float(p), mu)
            for q in np.linspace(0.0, 1.0, 51).tolist()
            for mu in np.linspace(0.0, 1.0, 37).tolist()
        ]
        assert np.array_equal(table("fig2a", config)[:, 2], expected)

    @pytest.mark.parametrize("mu", ["1.0", "0", "0.8", "0.123456789"])
    def test_fig2b(self, mu):
        # Unequal axes; axes of the same bytes, on which I_c_B is written as
        # the transpose of I_c_E (a grid from -0 starts at 0.0, as one from 0
        # does); and axes equal in value but not in bytes (the last point of
        # 0:-0:41 is -0.0), which take the general route.
        for q_E, q_B in [
            ("0:1:41", "0.05:1:29"),
            ("0:1:41", "0:1:41"),
            ("-0:1:41", "0:1:41"),
            ("0:-0:41", "0:0:41"),
        ]:
            config = {"q_E": q_E, "q_B": q_B, "mu": mu, "kappa_convention": "gram"}
            expected = [
                scalar_compete_two_level(q_eve, q_bob, float(mu))
                for q_eve in cli._parse_grid(q_E, "q_E").tolist()
                for q_bob in cli._parse_grid(q_B, "q_B").tolist()
            ]
            assert np.array_equal(table("fig2b", config)[:, 2:], expected), (q_E, q_B)

    @pytest.mark.parametrize(
        "q_E, q_B, points",
        [
            ("0:1:201", "0:1:201", 201 * 201),
            ("0:1:41", "0.05:1:29", 2 * 41 * 29),
            ("-0:1:41", "0:1:41", 41 * 41),
            ("0:-0:41", "0:0:41", 2 * 41 * 41),
        ],
    )
    def test_fig2b_square_grid_evaluates_one_surface(self, q_E, q_B, points, monkeypatch):
        """On two axes of the same bytes the closed form is evaluated once
        per grid point, for I_c_E alone; otherwise once per point for each
        of the two surfaces."""
        evaluated = []
        closed_form = information.coherent_info_two_level

        def counted(q, p, mu):
            evaluated.append(np.broadcast(q, p, mu).size)
            return closed_form(q, p, mu)

        for module in (cli, information):
            monkeypatch.setattr(module, "coherent_info_two_level", counted)
        run_sweep("fig2b", {"q_E": q_E, "q_B": q_B, "mu": "0.7", "kappa_convention": "gram"})
        assert sum(evaluated) == points

    @pytest.mark.parametrize("seed", range(3))
    def test_isweep(self, seed):
        rng = np.random.default_rng(500 + seed)
        p, mu = (float(x) for x in rng.uniform(0.0, 1.0, 2))
        config = {"q": "0:1:101", "p": repr(p), "mu": repr(mu), "kappa_convention": "gram"}
        expected = [
            scalar_coherent_info_two_level(q, p, mu) for q in np.linspace(0.0, 1.0, 101).tolist()
        ]
        assert np.array_equal(table("isweep", config)[:, 1], expected)


def continuous_reference(times, kappa, chi_dot, r_dot, p, mu, phase, convention):
    rho = qubit_state(p, mu, phase)
    rows = []
    # The meter overlap decays at the convention's rate, as the overlap of I_s does.
    decay = {"gram": kappa, "paper": kappa / 2.0}[convention]
    for t in times:
        vectors = scalar_continuous_gram_sqrt(decay, t, chi_dot)
        meter = (vectors * np.diag(rho).real) @ vectors.conj().T
        weights = scalar_dephasing_matrix(r_dot, t) * rho
        joint = np.einsum("ij,ki,lj->ikjl", weights, vectors, vectors.conj()).reshape(4, 4)
        rows.append(
            [
                t,
                meter[0, 0].real,
                meter[0, 1].real,
                meter[0, 1].imag,
                meter[1, 1].real,
                von_neumann_entropy(joint),
                von_neumann_entropy(meter),
                scalar_semiclassical_info_continuous(kappa, t, convention),
            ]
        )
    return np.array(rows)


def assert_same_floats(got, expected):
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestContinuousWholeGrid:
    def test_default_sweep(self):
        config = dict(cli._COMMANDS["continuous"].defaults, kappa_convention="gram")
        expected = continuous_reference(
            np.linspace(0.0, 5.0, 51).tolist(), 1.0, 0.0, 0j, 0.5, 1.0, 0.0, "gram"
        )
        assert_same_floats(table("continuous", config), expected)

    def test_default_sweep_builds_the_meter_vectors_once(self, monkeypatch):
        """The meter and joint states of a block share one measurement, and
        so one set of meter vectors."""
        built = []
        original = repeated.continuous_soft

        def counted(params):
            built.append(params)
            return original(params)

        for module in (cli, repeated):
            monkeypatch.setattr(module, "continuous_soft", counted)
        run_sweep("continuous", dict(cli._COMMANDS["continuous"].defaults, kappa_convention="gram"))
        assert len(built) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_complex_inputs(self, seed):
        rng = np.random.default_rng(600 + seed)
        stop = float(rng.choice([0.5, 5.0, 40.0]))
        points = int(rng.integers(2, 60))
        kappa = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 5.0)]))
        chi_dot = float(rng.choice([-0.0, -1.3, 12.0]))
        r_dot = [0j, complex(0.0, -0.0), complex(rng.uniform(0, 2), rng.uniform(-2, 2))][seed % 3]
        p, mu, phase = (float(x) for x in rng.uniform([0.0, 0.0, -4.0], [1.0, 1.0, 4.0]))
        convention = ("gram", "paper")[seed % 2]
        config = {
            "t": f"0:{stop!r}:{points}",
            "kappa": repr(kappa),
            "chi_dot": repr(chi_dot),
            "r_dot": f"{r_dot.real!r},{r_dot.imag!r}",
            "rho_p": repr(p),
            "rho_mu": repr(mu),
            "rho_phase": repr(phase),
            "kappa_convention": convention,
        }
        times = np.linspace(0.0, stop, points).tolist()
        expected = continuous_reference(times, kappa, chi_dot, r_dot, p, mu, phase, convention)
        assert_same_floats(table("continuous", config), expected)

    @pytest.mark.parametrize("kappa, r_dot", [(1.0, complex(1e308, 1e308)), (1e308, 0j)])
    def test_overflowing_decay_keeps_its_floats(self, kappa, r_dot):
        """A decay exponent that overflows gives exactly 0, as the scalar
        ``math``/``cmath`` calls do, with no error and no warning."""
        config = {
            **cli._COMMANDS["continuous"].defaults,
            "kappa": repr(kappa),
            "r_dot": f"{r_dot.real!r},{r_dot.imag!r}",
            "kappa_convention": "gram",
        }
        expected = continuous_reference(
            np.linspace(0.0, 5.0, 51).tolist(), kappa, 0.0, r_dot, 0.5, 1.0, 0.0, "gram"
        )
        assert_same_floats(table("continuous", config), expected)
