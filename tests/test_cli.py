"""CLI sweep-runner tests."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softmeas import cli
from softmeas.cli import main
from softmeas.errors import InvalidMeasurement


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestFig2a:
    def test_endpoints(self, tmp_path):
        code, out = run_cli(
            ["fig2a", "--param", "q=0:1:3", "--param", "mu=0:1:3"], tmp_path
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["q", "mu", "I_c"]
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[(1.0, 0.0)] == 1.0
        assert table[(1.0, 1.0)] == 0.0
        assert table[(0.0, 0.0)] == 0.0 and table[(0.0, 1.0)] == 0.0

    def test_monotone_in_mu_per_row(self, tmp_path):
        code, out = run_cli(
            ["fig2a", "--param", "q=0.6:0.6:1", "--param", "mu=0:1:21"], tmp_path
        )
        assert code == 0
        _, rows = read_csv(out)
        values = [r[2] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestFig2b:
    def test_structure(self, tmp_path):
        code, out = run_cli(
            ["fig2b", "--param", "q_E=0:1:5", "--param", "q_B=0:1:5"], tmp_path
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["q_E", "q_B", "I_c_E", "I_c_B"]
        table = {(r[0], r[1]): (r[2], r[3]) for r in rows}
        for q_eve in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert table[(q_eve, 0.0)][0] == 0.0  # sharp receiver blocks interceptor
        for a, b in ((0.25, 0.75), (0.0, 1.0), (0.5, 0.25)):
            assert table[(a, b)][0] == table[(b, a)][1]  # swap symmetry


class TestFig3:
    def test_structure(self, tmp_path):
        code, out = run_cli(
            ["fig3", "--param", "q=0:1:5", "--param", f"theta=0:{math.pi/2}:5"],
            tmp_path,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["q", "theta", "I_s"]
        for q, theta, info in rows:
            assert -1e-12 <= info <= 1.0 + 1e-12
            if theta == 0.0:
                assert info == pytest.approx(1.0, abs=1e-12)
        table = {(round(r[0], 6), round(r[1], 6)): r[2] for r in rows}
        corner = round(math.pi / 2.0, 6)
        assert table[(0.0, corner)] == pytest.approx(0.0, abs=1e-12)
        assert table[(1.0, corner)] == pytest.approx(1.0, abs=1e-12)


class TestContinuous:
    def test_columns_and_limits(self, tmp_path):
        code, out = run_cli(
            [
                "continuous",
                "--param",
                "t=0:30:4",
                "--param",
                "rho_p=0.7",
                "--param",
                "rho_mu=0",
            ],
            tmp_path,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == [
            "t",
            "meter_00",
            "meter_01_re",
            "meter_01_im",
            "meter_11",
            "joint_entropy",
            "meter_entropy",
            "I_s",
        ]
        first, last = rows[0], rows[-1]
        assert first[0] == 0.0 and first[6] == 0.0  # no meter entropy yet
        h = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
        assert last[6] == pytest.approx(h, abs=1e-4)
        infos = [r[7] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(infos, infos[1:]))
        assert infos[-1] >= 1.0 - 1e-6

    def test_kappa_convention_changes_info_column(self, tmp_path):
        """A convention is one overlap rate, which every column reads: the
        ``paper`` rows at ``kappa`` are the ``gram`` rows at ``kappa / 2``,
        meter states included, byte for byte."""
        outs = {}
        for convention, kappa in (("gram", "1.0"), ("paper", "1.0"), ("gram", "0.5")):
            argv = ["continuous", "--param", "t=0:5:11", "--param", f"kappa={kappa}"]
            code, outs[convention, kappa] = run_cli(
                argv + ["--kappa-convention", convention], tmp_path, f"{convention}{kappa}.csv"
            )
            assert code == 0
        gram, paper = (read_csv(outs[c, "1.0"])[1][1] for c in ("gram", "paper"))
        assert gram[7] != paper[7] and gram[1:5] != paper[1:5]
        assert outs["paper", "1.0"].read_bytes() == outs["gram", "0.5"].read_bytes()

    @pytest.mark.parametrize("convention", ["gram", "paper"])
    def test_meter_entropy_is_the_holevo_information(self, convention):
        """Two equiprobable pure meter states: the meter entropy is the
        Holevo information ``I_s`` of the row, under either convention."""
        config = dict(
            cli._COMMANDS["continuous"].defaults,
            t="0:20:101",
            kappa="0.37",
            kappa_convention=convention,
        )
        _, table, _ = cli.run_sweep("continuous", config)
        np.testing.assert_allclose(table[:, 6], table[:, 7], atol=1e-14, rtol=0.0)


class TestRepeat:
    def test_single_step_matches_single_command(self, tmp_path):
        code_r, out_r = run_cli(["repeat", "--param", "n=1:1:1"], tmp_path, "r.csv")
        code_s, out_s = run_cli(["single"], tmp_path, "s.csv")
        assert code_r == 0 and code_s == 0
        _, repeat_rows = read_csv(out_r)
        _, single_rows = read_csv(out_s)
        # meter/joint entropies and I_c agree between the two views
        assert repeat_rows[0][5] == pytest.approx(single_rows[0][3], abs=1e-12)
        assert repeat_rows[0][6] == pytest.approx(single_rows[0][4], abs=1e-12)
        assert repeat_rows[0][7] == pytest.approx(single_rows[0][5], abs=1e-12)

    def test_orthogonal_meter_keeps_identity_vectors(self, tmp_path):
        code, out = run_cli(
            ["repeat", "--param", "n=1:4:4", "--param", f"theta={math.pi}"], tmp_path
        )
        assert code == 0
        _, rows = read_csv(out)
        for row in rows:
            assert row[1] == pytest.approx(1.0, abs=1e-12)
            assert row[2] == pytest.approx(0.0, abs=1e-12)
            assert row[4] == pytest.approx(1.0, abs=1e-12)

    def test_meter_approaches_populations(self, tmp_path):
        code, out = run_cli(
            [
                "repeat",
                "--param",
                "n=80:80:1",
                "--param",
                "theta=2.0",
                "--param",
                "rho_p=0.7",
                "--param",
                "rho_mu=0",
            ],
            tmp_path,
        )
        assert code == 0
        _, rows = read_csv(out)
        h = -(0.7 * math.log2(0.7) + 0.3 * math.log2(0.3))
        assert rows[0][5] == pytest.approx(h, abs=1e-6)


class TestOutputFormats:
    def test_determinism_byte_identical(self, tmp_path):
        args = ["fig2a", "--param", "q=0:1:11", "--param", "mu=0:1:11"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_csv_uses_lf_endings(self, tmp_path):
        _, out = run_cli(["single"], tmp_path)
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_json_round_trips_through_config(self, tmp_path):
        args = ["isweep", "--param", "q=0:1:7", "--param", "mu=0.8"]
        code, out = run_cli(args + ["--format", "json"], tmp_path, "a.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "isweep"
        params = [f"{k}={v}" for k, v in payload["config"].items() if k != "kappa_convention"]
        replay = ["isweep"] + [x for kv in params for x in ("--param", kv)]
        code, out2 = run_cli(replay + ["--format", "json"], tmp_path, "b.json")
        assert code == 0
        assert json.loads(out2.read_text())["rows"] == payload["rows"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        args = ["fig2a", "--param", "q=0:1:6", "--param", "mu=0:1:6"]
        _, serial = run_cli(args + ["--jobs", "1"], tmp_path, "serial.csv")
        _, parallel = run_cli(args + ["--jobs", "2"], tmp_path, "parallel.csv")
        assert serial.read_bytes() == parallel.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["single"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("q,")


class TestErrorHandling:
    def test_unknown_parameter_is_config_error(self, capsys):
        assert main(["fig2a", "--param", "bogus=1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_grid_is_config_error(self, capsys):
        assert main(["fig2a", "--param", "q=1:0:5"]) == 2
        assert main(["fig2a", "--param", "q=0:1:0"]) == 2
        assert main(["fig2a", "--param", "q=zap"]) == 2

    def test_malformed_complex_is_config_error(self, capsys):
        assert main(["repeat", "--param", "r12=1"]) == 2

    @pytest.mark.parametrize("command", ["repeat", "single"])
    @pytest.mark.parametrize("r12", ["nan,0", "0,inf", "-inf,nan"])
    def test_non_finite_r12_is_config_error(self, command, r12, capsys):
        code, err = run_failing([command, "--param", f"r12={r12}"], capsys)
        assert code == 2
        assert err.startswith("softmeas: config error: parameter r12 must be finite, got ")

    def test_out_of_range_measurement_is_invariant_violation(self, capsys):
        assert main(["repeat", "--param", "theta=nan"]) == 3

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("# sweep\nq = 0:1:3\nmu = 0:0:1\n")
        out = tmp_path / "o.csv"
        assert main(["fig2a", "--config", str(cfg), "--param", "p=0.5", "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "q,mu,I_c"
        assert len(out.read_text().splitlines()) == 4

    def test_missing_config_file(self, capsys):
        assert main(["fig2a", "--config", "/nonexistent/file.cfg"]) == 2

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code, err = run_failing(["fig2a", "--param", "q=0:1:3", "--out", str(out)], capsys)
            assert code == 2
            assert err.startswith(f"softmeas: config error: cannot write output file {out}: ")
            assert err.count("\n") == 1

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("run_sweep called for an unwritable --out")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path / "missing" / "x.csv"
        argv = ["fig3", "--param", "q=0:1:201", "--param", "theta=0:1.5:201", "--out", str(out)]
        code, err = run_failing(argv, capsys)
        assert code == 2
        assert err.startswith(f"softmeas: config error: cannot write output file {out}: ")

    def test_failed_sweep_leaves_out_empty(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_text("old\n")
        code, err = run_failing(["fig2a", "--param", "q=0:2:3", "--out", str(out)], capsys)
        assert code == 3 and err.startswith("softmeas: fig2a grid point")
        assert out.read_text() == ""

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_jobs_must_be_positive(self, capsys):
        assert main(["fig2a", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


def run_failing(argv, capsys):
    """Exit code and stderr of a run that must not warn or raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


class TestNonFiniteInput:
    """Non-finite parameters are invariant violations: exit 3, one line, no traceback."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["continuous", "--param", "kappa=nan"], "kappa must be finite"),
            (["continuous", "--param", "t=0:inf:3"], "t must be finite"),
            (["continuous", "--param", "r_dot=nan,0"], "r_dot must be finite"),
            (["continuous", "--param", "chi_dot=inf"], "chi_dot must be finite"),
            (["fig3", "--param", "theta=0:inf:3"], "rotation angle[0, 0] must be finite"),
            (["fig3", "--param", "q=0:inf:3"], "dephase[0, 0] is not Hermitian"),
            (["repeat", "--param", "chi=inf"], "chi must be finite, got inf"),
            (["single", "--param", "rho_phase=inf"], "rho_phase must be finite, got inf"),
            (["repeat", "--param", "rho_phase=nan"], "rho_phase must be finite, got nan"),
            (["continuous", "--param", "rho_phase=-inf"], "rho_phase must be finite, got -inf"),
        ],
    )
    def test_exits_three_with_one_line(self, argv, expected, capsys):
        code, err = run_failing(argv, capsys)
        assert code == 3
        assert err.startswith("softmeas: ") and err.count("\n") == 1
        assert expected in err


class TestOverflow:
    """Finite parameters whose accumulated phase, or whose repetition count,
    does not fit a float or an int64 fail with one line, no traceback and no
    warning."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["repeat", "--param", "chi=1e308", "--param", "n=1:3:3"],
                "repeat grid point 1 (n=2): accumulated phase n*chi is not finite",
            ),
            (
                ["continuous", "--param", "chi_dot=1e308"],
                "continuous grid point 18 (t=1.8): accumulated phase chi_dot*t is not finite",
            ),
            (
                ["continuous", "--param", "r_dot=0,1e308"],
                "continuous grid point 18 (t=1.8): accumulated phase Im(r_dot)*t is not finite",
            ),
        ],
    )
    def test_phase_overflow_exits_three(self, argv, expected, capsys):
        code, err = run_failing(argv, capsys)
        assert code == 3
        assert err.startswith(f"softmeas: {expected}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "grid, value",
        [("1:1e30:3", "5e+29"), ("1:9.3e18:2", "9.3e+18"), ("-1e30:1:3", "-1e+30"), ("0:2:3", "0")],
    )
    def test_count_outside_int64_is_config_error(self, grid, value, capsys):
        code, err = run_failing(["repeat", "--param", f"n={grid}"], capsys)
        assert code == 2
        message = f"parameter n: repetition count {value} is outside [1, 2**63)"
        assert err == f"softmeas: config error: {message}\n"


class TestCommandTable:
    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_grids_are_defaults_and_columns_unique(self, name):
        command = cli._COMMANDS[name]
        assert set(command.grids) <= set(command.defaults)
        assert len(set(command.columns)) == len(command.columns)


class TestFailingGridPoint:
    def test_names_command_index_and_values(self, capsys):
        code, err = run_failing(["fig3", "--param", "q=0:2:3"], capsys)
        assert code == 3
        # q = 2 first fails at theta = 0: row 2 of 3, column 0 of 51.
        assert err.startswith("softmeas: fig3 grid point 102 (q=2, theta=0): ")
        assert "dephase[2, 0] is not PSD" in err

    def test_scalar_closed_form_names_its_point(self, capsys):
        code, err = run_failing(["fig2b", "--param", "q_B=0:3:4"], capsys)
        assert code == 3
        assert err.startswith("softmeas: fig2b grid point 2 (q_E=0, q_B=2): q_bob must lie")

    def test_stacked_repeat_names_its_point(self, capsys):
        code, err = run_failing(["isweep", "--param", "q=0:2:5"], capsys)
        assert code == 3
        assert err.startswith("softmeas: isweep grid point 3 (q=1.5): gram[3] is not PSD")

    def test_later_block_names_its_grid_point(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 51)  # one q row per block
        code, err = run_failing(["fig3", "--param", "q=0:2:3"], capsys)
        assert code == 3
        assert err.startswith("softmeas: fig3 grid point 102 (q=2, theta=0): ")
        assert "dephase[2, 0] is not PSD" in err
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 2)
        code, err = run_failing(["isweep", "--param", "q=0:2:5"], capsys)
        assert err.startswith("softmeas: isweep grid point 3 (q=1.5): gram[3] is not PSD")

    def test_later_block_rebases_every_label(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 3)  # one q row per block
        code, err = run_failing(["fig3", "--param", "q=0:2:5", "--param", "theta=0:1:3"], capsys)
        assert code == 3
        # Both failures are at q = 1.5, grid row 3, which is row 0 of its block.
        assert err == (
            "softmeas: fig3 grid point 9 (q=1.5, theta=0): dephase[3, 0] is not PSD: "
            "eigenvalue -5.000e-01; dephase[3, 0] has an entry with modulus > 1\n"
        )
        config = {**cli._COMMANDS["fig3"].defaults, "q": "0:2:5", "theta": "0:1:3"}
        with pytest.raises(InvalidMeasurement) as excinfo:
            cli.run_sweep("fig3", config)
        assert excinfo.value.index == (3, 0)
        assert excinfo.value.indices == ((3, 0), (3, 0))
        message = "gram[1, 0] is not PSD; entanglement[0, 2] has an entry with modulus > 1"
        assert cli._relabeled(message, ((1, 0), (0, 2)), ((41, 0), (40, 2))) == (
            "gram[41, 0] is not PSD; entanglement[40, 2] has an entry with modulus > 1"
        )

    def test_non_finite_output_names_its_grid_point(self, monkeypatch, capsys):
        fig2a = cli._COMMANDS["fig2a"]

        def poisoned(config, q, mu):
            (info,) = fig2a.sweep(config, q, mu)
            return [np.where((q == 0.5) & (mu == 0.25), np.nan, info)]

        monkeypatch.setitem(cli._COMMANDS, "fig2a", fig2a._replace(sweep=poisoned))
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 5)  # one q row per block
        code, err = run_failing(["fig2a", "--param", "q=0:1:5", "--param", "mu=0:1:5"], capsys)
        assert code == 3
        # q = 0.5 is row 2 (the third block) and mu = 0.25 column 1: flat index 11.
        assert err == (
            "softmeas: fig2a grid point 11 (q=0.5, mu=0.25): "
            "invariant violation: non-finite value in column 'I_c'\n"
        )


# sha256 of each command's default CSV as the per-point implementation wrote
# it, before grids were evaluated whole; the whole-grid path must reproduce
# every byte.
DEFAULT_CSV_SHA256 = {
    "single": "9766aeee9fb73abaa8944474c8e4a40fac30eafa87540dada85194b58b42b733",
    "repeat": "8044d2fc7558692a261d6fee65115142f2f059f34eee0311d9e718a2710aaa0f",
    "continuous": "e7759e1b71192441277a4c19f2184b108aadce9c617cc6608e08c41e085712e3",
    "fig2a": "5364c60321c4823f0ab386d49395dd273d51d1f7929d24f39c4ccf14b6511568",
    "fig2b": "1831bef7bc8a580732524dcce4a3f23617c98879f62b54839234f93eca074eda",
    "fig3": "cef30c0993c238792cd09230ed5cd4fa4cb01532846733648284a484c088edcb",
    "isweep": "d0c996a4d9539818b818738e5cbfdb2fc4bb0317208d6c425ec7e6066f39ad88",
}


# sha256 of each command's default JSON as the per-value ``json.dumps``
# emitter wrote it, before the rows were written by a template.
DEFAULT_JSON_SHA256 = {
    "single": "176c1c3e9ae77cc656cb304ada3ac414f3d540601b6d8764b8368dba574cdbc4",
    "repeat": "524fd1bb5c095edb509216a5f5876b6ae77a4884ac9fdb935d0d4bf58f07daa2",
    "continuous": "cbc44c4bca10295eae0b38a21edf4cc835cc821450b0a59e8a539a54a39b91b4",
    "fig2a": "2841f2dd070bbbee7731a81e0dca5bd386c8a6f133e28bf8a895668b4fb49bd8",
    "fig2b": "6a327a302a53cb3447dbecb1505de119a82992e885825ca001bd18bd1b220114",
    "fig3": "6e61210b0728fb94901820bfa5d1a40c225e317883ac14b8bde8d4d5d933f277",
    "isweep": "996d85eadf8a6397245a22cd7e9b0ccc4b54ea881dfcfa8177c6cb7289245426",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_CSV_SHA256))
def test_default_csv_digest_is_pinned(command, tmp_path):
    code, out = run_cli([command], tmp_path)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CSV_SHA256[command]


@pytest.mark.parametrize("command", sorted(DEFAULT_JSON_SHA256))
def test_default_json_digest_is_pinned(command, tmp_path):
    code, out = run_cli([command, "--format", "json"], tmp_path, "out.json")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_JSON_SHA256[command]


# sha256 of the 301x301 fig2b JSON as the one-string emitter wrote it,
# before the output was written a chunk of rows at a time.
LARGE_FIG2B_JSON_SHA256 = "e8fc128e793033bc5d817a600d4fe262f6b69be897f150cc78fb3ffbb1eef391"


def test_large_grid_text_is_not_held_whole(tmp_path):
    """A 301x301 JSON sweep (10 MB of text) is written a chunk of rows at a
    time: the traced peak stays near the float table (2.9 MB), where
    holding the whole text at once peaks above 30 MiB."""
    argv = ["fig2b", "--format", "json", "--param", "q_E=0:1:301", "--param", "q_B=0:1:301"]
    tracemalloc.start()
    try:
        code, out = run_cli(argv, tmp_path, "big.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12 * 2**20
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_FIG2B_JSON_SHA256


# sha256 of the 201x201 fig3 JSON as one matrix product per grid point gave
# it, before the points sharing a right factor were joined into one product.
# Its 40,401 points span five blocks, so block edges cross those products;
# on a BLAS that rounds them differently this fails instead of the digest
# moving silently.
LARGE_FIG3_JSON_SHA256 = "1e573fdf809f1a06d396bc90a3ff1bd4f0c6fe1649e4d2e7ab449189c237ba17"


def test_large_fig3_surface_digest_is_pinned(tmp_path):
    argv = ["fig3", "--format", "json", "--param", "q=0:1:201"]
    argv += ["--param", f"theta=0:{math.pi / 2.0!r}:201"]
    code, out = run_cli(argv, tmp_path, "fig3.json")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_FIG3_JSON_SHA256


# The per-value emitters that the row templates replaced, kept as references.


def per_value_csv(columns, rows):
    def text(value):
        out = format(float(value), ".12g")
        return "0" if out == "-0" else out

    lines = [",".join(columns)]
    lines.extend(",".join(text(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def per_value_json(command, config, columns, rows):
    payload = {
        "command": command,
        "config": config,
        "columns": list(columns),
        "rows": [[float(v) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


# Finite doubles, with signed zeros, the smallest subnormal, values near the
# largest double and values whose 12-digit form changes notation drawn often.
VALUES = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1, 1e-5, 1e16]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
)


# Grid axes draw repeated values, signed zeros and integer-valued floats
# (which JSON writes as ``3.0``) often, and the extremes of the doubles.
AXIS_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 3.0, -2.0, 0.5, 5e-324, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def grid_tables(draw):
    """A float table over a grid of 0 to 3 axes (each of 0 to 4 values) in C
    order, its grid columns first, then 0 to 3 output columns of any value."""
    axes = draw(st.lists(st.lists(AXIS_VALUES, max_size=4), max_size=3))
    outputs = draw(st.integers(0 if axes else 1, 3))
    points = list(itertools.product(*axes))
    values = draw(
        st.lists(
            st.lists(VALUES, min_size=outputs, max_size=outputs),
            min_size=len(points),
            max_size=len(points),
        )
    )
    rows = [list(point) + row for point, row in zip(points, values)]
    width = len(axes) + outputs
    columns = tuple(f"c{j}" for j in range(width))
    shape = tuple(map(len, axes))
    return columns, rows, np.array(rows, dtype=float).reshape(len(rows), width), shape


def emitted(emit, *args):
    """The text that ``emit(*args)`` writes with chunks of 1, 2, 3 and the
    default number of rows, one string per chunk size."""
    texts = []
    for rows in (1, 2, 3, cli._BLOCK_POINTS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_POINTS", rows)
            texts.append("".join(emit(*args)))
    return texts


class TestTemplateEmit:
    """The column-wise emitters write the bytes of the per-value ones, with
    any number of rows per chunk (1, 2 and 3 put chunk boundaries inside,
    at and after every small grid)."""

    @settings(deadline=None)
    @given(grid_tables())
    def test_csv_matches_per_value_format(self, table):
        columns, rows, array, shape = table
        expected = per_value_csv(columns, rows)
        assert emitted(cli._emit_csv, columns, array, shape) == [expected] * 4

    @settings(deadline=None)
    @given(grid_tables(), st.text(max_size=6), st.dictionaries(st.text(max_size=6), st.text()))
    def test_json_matches_json_dumps(self, table, command, config):
        columns, rows, array, shape = table
        expected = per_value_json(command, config, columns, rows)
        assert emitted(cli._emit_json, command, config, columns, array, shape) == [expected] * 4

    def test_single_point_without_grid(self):
        columns = ("q", "input_entropy", "I_c")
        rows = [[-0.0, 1.0, 5e-324]]
        array = np.array(rows)
        assert emitted(cli._emit_csv, columns, array, ()) == [per_value_csv(columns, rows)] * 4
        assert emitted(cli._emit_json, "single", {}, columns, array, ()) == [
            per_value_json("single", {}, columns, rows)
        ] * 4

    @pytest.mark.parametrize("width", [1, 4])
    def test_empty_tables(self, width):
        columns = tuple(f"c{j}" for j in range(width))
        empty = np.empty((0, width))
        for shape in [(0,), (3, 0), (0, 2, 0)][:width]:
            assert emitted(cli._emit_csv, columns, empty, shape) == [per_value_csv(columns, [])] * 4
            assert emitted(cli._emit_json, "x", {"q": "0:1:3"}, columns, empty, shape) == [
                per_value_json("x", {"q": "0:1:3"}, columns, [])
            ] * 4

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_grid_sweeps_across_chunk_boundaries(self, rows, tmp_path, monkeypatch):
        """Whole sweeps evaluated in blocks and written in chunks of ``rows``
        rows (51 and 2601 rows are multiples of 3) keep the pinned default
        bytes."""
        monkeypatch.setattr(cli, "_BLOCK_POINTS", rows)
        for fmt, pinned in (("csv", DEFAULT_CSV_SHA256), ("json", DEFAULT_JSON_SHA256)):
            for command in ("single", "isweep", "fig2b"):
                code, out = run_cli([command, "--format", fmt], tmp_path, f"{command}.{fmt}")
                assert code == 0
                assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned[command]
