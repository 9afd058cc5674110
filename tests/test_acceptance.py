"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import cmath
import json
import math
import time

import numpy as np

from conftest import binary_entropy, rand_correlation, rand_density

from softmeas.cli import main
from softmeas.information import (
    CompetitionParams,
    StateEnsemble,
    coherent_info_channel,
    coherent_info_soft,
    coherent_info_two_level,
    compete_two_level,
    eve_bob_semiclassical,
    semiclassical_info_continuous,
    soft_object_channel,
)
from softmeas.matcore import (
    _unchecked_entropy,
    matrix_sqrt_psd,
    partial_trace,
    von_neumann_entropy,
)
from softmeas.measurement import (
    SoftMeasurement,
    TwoLevelMeterParams,
    apply_soft,
    two_level_gram,
)
from softmeas.repeated import (
    ContinuousLimitParams,
    continuous_soft,
    discrete_step,
    joint_dm_repeated,
    meter_dm_repeated,
    repeat_soft,
    two_level_gram_sqrt,
)


def report(number: int, name: str, passed: bool) -> None:
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def qubit_state(p: float, mu: float, phase: float = 0.0) -> np.ndarray:
    off = mu * math.sqrt(p * (1.0 - p)) * np.exp(1j * phase)
    return np.array([[p, off], [np.conj(off), 1.0 - p]])


def test_criterion_1_closed_form_vs_matrix_oracle():
    start = time.perf_counter()
    grid = np.round(np.linspace(0.0, 1.0, 11), 10)
    ones = np.ones((2, 2))
    worst = 0.0
    for q in grid:
        gram = np.array([[1.0, q], [q, 1.0]])
        for p in grid:
            for mu in grid:
                closed = coherent_info_two_level(float(q), float(p), float(mu))
                matrix = coherent_info_soft(qubit_state(p, mu), SoftMeasurement(ones, gram))
                worst = max(worst, abs(closed - matrix))
    elapsed = time.perf_counter() - start
    report(1, f"closed form vs matrix oracle (max |d|={worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-10 and elapsed < 5.0)


def test_criterion_2_channel_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for case in range(200):
        dim = 2 if case % 2 == 0 else 3
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        gram = rand_correlation(rng, dim)
        measurement = SoftMeasurement(ent, gram)
        closed = coherent_info_soft(rho, measurement)
        channel = coherent_info_channel(soft_object_channel(measurement), rho)
        worst = max(worst, abs(closed - channel))
    elapsed = time.perf_counter() - start
    report(2, f"purification channel oracle (max |d|={worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-8 and elapsed < 30.0)


def test_criterion_3_two_level_square_root_closed_form():
    # At theta = 0 with chi != 0 the Gram matrix is exactly singular and the
    # floating-point rounding of exp(i*chi) perturbs its zero eigenvalue by
    # ~1e-16. The generic square root treats such an eigenvalue as zero, so
    # the comparison covers the degenerate edge too; that edge is also
    # pinned by its exact closed value below.
    worst = 0.0
    for theta in np.linspace(0.0, math.pi, 21):
        for chi in np.linspace(-math.pi, math.pi, 20):
            params = TwoLevelMeterParams(theta=float(theta), chi=float(chi))
            for n in (1, 2, 5, 17):
                closed = two_level_gram_sqrt(params, n)
                generic = matrix_sqrt_psd(two_level_gram(params) ** n)
                worst = max(worst, float(np.abs(closed - generic).max()))
    degenerate_ok = True
    for chi in np.linspace(-math.pi, math.pi, 20):
        for n in (1, 2, 5, 17):
            closed = two_level_gram_sqrt(TwoLevelMeterParams(theta=0.0, chi=float(chi)), n)
            phase = np.exp(1j * n * chi)
            exact = np.array([[1.0, phase], [np.conj(phase), 1.0]]) / math.sqrt(2.0)
            degenerate_ok = degenerate_ok and np.abs(closed - exact).max() <= 1e-14
    report(3, f"two-level square root closed form (max |d|={worst:.2e})",
           worst <= 1e-11 and degenerate_ok)


def test_criterion_4_discrete_to_continuous_convergence():
    rng = np.random.default_rng(204)
    rho = rand_density(rng, 2)
    kappa, chi_dot, r_dot = 1.0, 0.6, 0.25 + 0.1j
    ok = True
    detail = []
    for kt in (0.5, 1.0, 2.0):
        t = kt / kappa
        params = ContinuousLimitParams(kappa=kappa, t=t, chi_dot=chi_dot, r_dot=r_dot)
        exact = apply_soft(continuous_soft(params), rho)
        errors = []
        for n in (20, 40, 80):
            approx = apply_soft(repeat_soft(discrete_step(kappa, chi_dot, r_dot, t / n), n), rho)
            errors.append(float(np.abs(approx - exact).max()))
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        detail.append(f"kt={kt}: ratios {ratios[0]:.3f},{ratios[1]:.3f}")
        ok = ok and all(r <= 0.8 for r in ratios)
    report(4, "first-order convergence to the continuous limit (" + "; ".join(detail) + ")", ok)


def test_criterion_5_single_measurement_surface():
    exact = (
        coherent_info_two_level(1.0, 0.5, 0.0) == 1.0
        and coherent_info_two_level(1.0, 0.5, 1.0) == 0.0
        and all(coherent_info_two_level(0.0, 0.5, mu) == 0.0 for mu in np.linspace(0, 1, 11))
    )
    monotone = True
    mus = np.linspace(0.0, 1.0, 101)
    for q in (0.1, 0.35, 0.62, 0.9, 1.0):
        values = [coherent_info_two_level(q, 0.5, float(mu)) for mu in mus]
        monotone = monotone and all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    report(5, "single-measurement surface endpoints and monotonicity", exact and monotone)


def test_criterion_6_competition_surface():
    grid = np.linspace(0.0, 1.0, 51)
    blocked = all(
        compete_two_level(CompetitionParams(q_eve=float(q), q_bob=0.0, mu=1.0))[0] == 0.0
        for q in grid
    )
    symmetric = True
    coincide = True
    for a in grid:
        for b in grid:
            ie, ib = compete_two_level(CompetitionParams(q_eve=float(a), q_bob=float(b), mu=1.0))
            ie_sw, ib_sw = compete_two_level(
                CompetitionParams(q_eve=float(b), q_bob=float(a), mu=1.0)
            )
            symmetric = symmetric and ie == ib_sw and ib == ie_sw
            single = coherent_info_two_level(float(b), 0.5, float(a))
            coincide = coincide and abs(ie - single) <= 1e-12
    report(6, "competition surface: blocked edge, swap symmetry, surface coincidence",
           blocked and symmetric and coincide)


def test_criterion_7_interception_surface():
    ensemble = StateEnsemble(
        probs=np.array([0.5, 0.5]),
        states=(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    bob = SoftMeasurement(np.eye(2), np.eye(2))
    qs = np.linspace(0.0, 1.0, 51)
    thetas = np.linspace(0.0, math.pi / 2.0, 51)
    aligned = all(
        abs(eve_bob_semiclassical(ensemble, 0.0, np.array([[1.0, q], [q, 1.0]]), bob) - 1.0)
        <= 1e-12
        for q in qs
    )
    corner_zero = eve_bob_semiclassical(ensemble, math.pi / 2.0, np.eye(2), bob)
    corner_one = eve_bob_semiclassical(ensemble, math.pi / 2.0, np.ones((2, 2)), bob)
    bounded = True
    for q in qs[::5]:
        for theta in thetas[::5]:
            value = eve_bob_semiclassical(
                ensemble, float(theta), np.array([[1.0, q], [q, 1.0]]), bob
            )
            bounded = bounded and -1e-12 <= value <= 1.0 + 1e-12
    report(7, "interception surface: aligned column, corners, bounds",
           aligned
           and abs(corner_zero) <= 1e-12
           and abs(corner_one - 1.0) <= 1e-12
           and bounded)


def test_criterion_8_continuous_measurement_limits():
    rho = np.diag([0.7, 0.3]).astype(complex)
    at_zero = von_neumann_entropy(
        meter_dm_repeated(rho, continuous_soft(ContinuousLimitParams(kappa=1.0, t=0.0)))
    )
    at_late = von_neumann_entropy(
        meter_dm_repeated(rho, continuous_soft(ContinuousLimitParams(kappa=1.0, t=30.0)))
    )
    target = von_neumann_entropy(rho)
    infos = [semiclassical_info_continuous(1.0, float(t)) for t in np.linspace(0.0, 30.0, 301)]
    monotone = all(b >= a - 1e-13 for a, b in zip(infos, infos[1:]))
    report(8, f"continuous limits (S_meter(0)={at_zero:.1e}, |S-target|={abs(at_late-target):.1e})",
           at_zero <= 1e-12
           and abs(at_late - target) <= 1e-4
           and infos[0] == 0.0
           and monotone
           and infos[-1] >= 1.0 - 1e-6)


def test_criterion_9_superoperator_fuzz():
    rng = np.random.default_rng(209)
    dims = (2, 3, 4)
    worst_trace = worst_eig = worst_diag = worst_transfer = 0.0
    meter_identical = True
    for case in range(1000):
        dim = dims[case % 3]
        rho = rand_density(rng, dim)
        ent = rand_correlation(rng, dim)
        gram = rand_correlation(rng, dim)
        joint = apply_soft(SoftMeasurement(ent, gram), rho)
        worst_trace = max(worst_trace, abs(float(np.trace(joint).real) - 1.0))
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(joint).min()))
        reduced = partial_trace(joint, [dim, dim], keep=0)
        worst_diag = max(
            worst_diag, float(np.abs(np.diag(reduced) - np.diag(rho)).max())
        )
        coherent = apply_soft(SoftMeasurement(np.ones((dim, dim)), gram), rho)
        worst_transfer = max(
            worst_transfer,
            abs(_unchecked_entropy(coherent) - _unchecked_entropy(rho)),
        )
        n = 1 + case % 3
        ent_b = rand_correlation(rng, dim)
        meter_a = partial_trace(
            joint_dm_repeated(rho, repeat_soft(SoftMeasurement(ent, gram), n)),
            [dim, dim],
            keep=0,
        )
        meter_b = partial_trace(
            joint_dm_repeated(rho, repeat_soft(SoftMeasurement(ent_b, gram), n)),
            [dim, dim],
            keep=0,
        )
        meter_identical = meter_identical and np.array_equal(meter_a, meter_b)
        repeated = repeat_soft(SoftMeasurement(ent, gram), n)
        meter_identical = meter_identical and np.array_equal(
            meter_dm_repeated(rho, repeated), meter_dm_repeated(rho, repeated)
        )
    report(
        9,
        "fuzz: trace {:.1e}, min-eig {:.1e}, diag {:.1e}, transfer {:.1e}, meter bit-identical {}".format(
            worst_trace, worst_eig, worst_diag, worst_transfer, meter_identical
        ),
        worst_trace <= 1e-9
        and worst_eig <= 1e-9
        and worst_diag <= 1e-10
        and worst_transfer <= 1e-9
        and meter_identical,
    )


def test_criterion_10_cli_figure_regression(tmp_path):
    start = time.perf_counter()
    ok = True
    for command in ("fig2a", "fig2b", "fig3"):
        paths = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{command}_{attempt}.csv"
            code = main([command, "--out", str(out)])
            ok = ok and code == 0
            paths.append(out)
        first, second = (p.read_bytes() for p in paths)
        ok = ok and first == second and len(first.splitlines()) == 51 * 51 + 1
    elapsed = time.perf_counter() - start
    report(10, f"CLI figure sweeps byte-identical across runs ({elapsed:.1f}s)",
           ok and elapsed < 60.0)


def balance_excess(tmp_path, argv: list[str], p: float) -> float:
    """The largest ``I_c + I_s - H(p)`` over the rows that ``argv`` writes."""
    out = tmp_path / "balance.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    i_c, i_s = payload["columns"].index("I_c"), payload["columns"].index("I_s")
    return max(row[i_c] + row[i_s] for row in payload["rows"]) - binary_entropy(p)


def test_criterion_11_single_information_balance(tmp_path):
    """What the object keeps and what the meter learns share the entropy of
    the populations: ``I_c + I_s <= H(p)``, at random meters and states."""
    rng = np.random.default_rng(211)
    worst = balance_excess(tmp_path, ["single"], 0.5)
    for _ in range(20):
        theta, chi, modulus, phase, rho_p, rho_mu, rho_phase = rng.uniform(
            [0, -3, 0, -3, 0, 0, -3], [math.pi, 3, 1, 3, 1, 1, 3]
        ).tolist()
        r12 = modulus * cmath.exp(1j * phase)
        values = {"theta": theta, "chi": chi, "rho_p": rho_p, "rho_mu": rho_mu,
                  "rho_phase": rho_phase}
        argv = ["single", f"--param=r12={r12.real!r},{r12.imag!r}"]
        argv += [f"--param={name}={value!r}" for name, value in values.items()]
        worst = max(worst, balance_excess(tmp_path, argv, rho_p))
    report(11, f"single: I_c + I_s <= H(p) (max excess {worst:.1e})", worst <= 1e-12)


def test_criterion_12_isweep_information_balance(tmp_path):
    worst = -math.inf
    for p in (0.5, 0.3, 0.9):
        for mu in (1.0, 0.6, 0.0):
            argv = ["isweep", "--param", f"p={p}", "--param", f"mu={mu}"]
            worst = max(worst, balance_excess(tmp_path, argv, p))
    report(12, f"isweep: I_c + I_s <= H(p) on every row (max excess {worst:.1e})", worst <= 1e-12)
