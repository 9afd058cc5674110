"""CLI sweep-runner tests."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softmeas import cli
from softmeas.cli import main
from softmeas.errors import ConfigError, InvalidMeasurement, OutOfRange, SoftMeasError


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

    def test_out_of_range_measurement_is_config_error(self, capsys):
        code, err = run_failing(["repeat", "--param", "theta=nan"], capsys)
        assert code == 2
        assert err == "softmeas: config error: parameter theta must be finite, got nan\n"
        code, err = run_failing(["single", "--param", "theta=4"], capsys)
        assert code == 2
        assert err == "softmeas: config error: parameter theta must lie in [0, pi], got 4.0\n"

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

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"theta = \xff\xfe\n")
        code, err = run_failing(["single", "--config", str(cfg)], capsys)
        assert code == 2
        reason = "not UTF-8 text (invalid start byte)"
        assert err == f"softmeas: config error: cannot read config file {cfg}: {reason}\n"

    def test_config_file_byte_order_mark_is_skipped(self, tmp_path):
        """A UTF-8 byte-order mark, as some editors write one, is not part
        of the first key: the file gives the bytes of the same file without it."""
        text = b"theta = 1.0\nrho_mu = 0.3\n"
        outputs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            code, out = run_cli(["single", "--config", str(cfg)], tmp_path, f"{name}.csv")
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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
        """A sweep that fails, on an invariant the library derives or on a
        value outside its domain, leaves the ``--out`` file empty."""
        out = tmp_path / "x.csv"
        for argv, code, message in (
            (["repeat", "--param", "chi=1e308", "--param", "n=1:3:3"], 3, "repeat grid point 1"),
            (["fig2a", "--param", "q=0:2:3"], 2, "config error: parameter q must lie in [0, 1]"),
        ):
            out.write_text("old\n")
            got, err = run_failing(argv + ["--out", str(out)], capsys)
            assert got == code and err.startswith(f"softmeas: {message}")
            assert out.read_text() == ""

    def test_failed_write_leaves_out_empty(self, tmp_path, monkeypatch, capsys):
        """A write that fails after some text went out leaves the ``--out``
        file empty too, not a prefix of the new text over the old tail."""

        def failing_emit(*args):
            yield "q,theta,I_s\n" * 10_000
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_emit_csv", failing_emit)
        out = tmp_path / "x.csv"
        out.write_text("old\n" * 100_000)
        code, err = run_failing(["fig3", "--param", "q=0:1:3", "--out", str(out)], capsys)
        assert code == 2
        assert err == (
            f"softmeas: config error: cannot write output file {out}: "
            "[Errno 28] No space left on device\n"
        )
        assert out.read_bytes() == b""

    @pytest.mark.parametrize(
        "argv, limit",
        [(["fig3"], 4096), (["fig3", "--param", "q=0:1:3", "--param", "theta=0:1.5:3"], 64)],
        ids=["87KB-past-4KiB", "buffered-past-64B"],
    )
    def test_write_that_keeps_failing_leaves_out_empty(self, argv, limit, tmp_path):
        """A write that fails on every try still leaves the ``--out`` file
        empty, also when the text is still buffered, so that the stream's
        flush fails at the cut and again at close. A file size limit makes
        every write past ``limit`` bytes fail with ``EFBIG``."""
        out = tmp_path / "x.csv"
        out.write_text("old\n" * 100_000)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "from softmeas.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(out)],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            f"softmeas: config error: cannot write output file {out}: [Errno 27] File too large\n"
        )
        assert out.read_bytes() == b""

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["fig2b", "--format", "json"], "x.json"),
            (["fig3", "--param", "q=0:1:3", "--param", "theta=0:1.5:3"], "x.csv"),
        ],
        ids=["fig2b-json-51x51", "fig3-csv-3x3"],
    )
    def test_shorter_rewrite_leaves_no_stale_tail(self, argv, name, tmp_path):
        """Written over a longer file (the 201x201 ``fig2b`` JSON), a run
        gives exactly the bytes of the same run into a fresh path."""
        out = tmp_path / name
        big = ["fig2b", "--format", "json", "--param", "q_E=0:1:201", "--param", "q_B=0:1:201"]
        assert main(big + ["--out", str(out)]) == 0
        old_size = out.stat().st_size
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv + ["--out", str(tmp_path / f"fresh-{name}")]) == 0
        fresh = (tmp_path / f"fresh-{name}").read_bytes()
        assert len(fresh) < old_size
        assert out.read_bytes() == fresh

    def test_out_keeps_its_inode(self, tmp_path):
        """The file is overwritten in place: a symlink is written through and
        stays a link, and the target keeps its inode, mode and hard links."""
        target = tmp_path / "target.csv"
        target.write_text("old\n" * 100_000)
        target.chmod(0o640)
        hard = tmp_path / "hard.csv"
        os.link(target, hard)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        inode = target.stat().st_ino
        assert main(["fig2a", "--param", "q=0:1:3", "--param", "mu=0:1:3", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.stat().st_ino == inode
        assert target.stat().st_mode & 0o777 == 0o640
        assert hard.read_bytes() == target.read_bytes()
        assert target.read_text().startswith("q,mu,I_c\n0,0,")
        assert target.read_text().count("\n") == 10

    def test_null_device_out_is_not_truncated(self, monkeypatch, capsys):
        """A target that is not a regular file is written and never cut."""
        cuts = []
        monkeypatch.setattr(os, "ftruncate", lambda *args: cuts.append(args))
        assert run_failing(["fig3", "--out", os.devnull], capsys) == (0, "")
        assert cuts == []

    @pytest.mark.parametrize("command", sorted(set(cli._COMMANDS) - {"continuous"}))
    def test_kappa_convention_is_read_only_by_continuous(self, command, tmp_path, capsys):
        """Every other command takes only the default convention, from the
        flag or from a config file, and records it in its JSON header."""
        cfg = tmp_path / "paper.cfg"
        cfg.write_text("kappa_convention = paper\n")
        message = (
            f"softmeas: config error: parameter kappa_convention must be 'gram' for {command},"
            " which does not read it, got 'paper'\n"
        )
        for argv in (["--kappa-convention", "paper"], ["--config", str(cfg)]):
            assert run_failing([command, *argv], capsys) == (2, message)
        code, out = run_cli([command, "--kappa-convention", "gram", "--format", "json"], tmp_path)
        assert code == 0
        assert json.loads(out.read_text())["config"]["kappa_convention"] == "gram"

    def test_closed_stdout_pipe_exits_two_without_traceback(self):
        """A reader that closes the pipe early, as ``softmeas ... | head -1``
        does, is a failed write: one line and exit 2, with no traceback and
        no "Exception ignored" from the interpreter's flush at exit."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "softmeas.cli", "fig2b"]
        argv += ["--param", "q_E=0:1:201", "--param", "q_B=0:1:201"]  # 2 MB, past any pipe buffer
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline() == b"q_E,q_B,I_c_E,I_c_B\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert "Traceback" not in err and "Exception ignored" not in err
        assert code == 2
        assert err == (
            "softmeas: config error: cannot write standard output: [Errno 32] Broken pipe\n"
        )

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
    """A non-finite value is outside every declared domain: a config error
    naming the parameter, exit 2, one line, no traceback. The test keeps the
    name it had when the library's checks found these values (exit 3), so
    that its ids stay stable."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["continuous", "--param", "kappa=nan"], "kappa must be finite"),
            (["continuous", "--param", "t=0:inf:3"], "t must be finite"),
            (["continuous", "--param", "r_dot=nan,0"], "r_dot must be finite"),
            (["continuous", "--param", "chi_dot=inf"], "chi_dot must be finite"),
            (["fig3", "--param", "theta=0:inf:3"], "theta must be finite"),
            (["fig3", "--param", "q=0:inf:3"], "q must be finite"),
            (["repeat", "--param", "chi=inf"], "chi must be finite, got inf"),
            (["single", "--param", "rho_phase=inf"], "rho_phase must be finite, got inf"),
            (["repeat", "--param", "rho_phase=nan"], "rho_phase must be finite, got nan"),
            (["continuous", "--param", "rho_phase=-inf"], "rho_phase must be finite, got -inf"),
        ],
    )
    def test_exits_three_with_one_line(self, argv, expected, capsys):
        code, err = run_failing(argv, capsys)
        assert code == 2
        assert err.startswith("softmeas: config error: parameter ") and err.count("\n") == 1
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
        message = f"parameter n must lie in [1, 2**63), got grid value {float(value)}"
        assert err == f"softmeas: config error: {message}\n"

    @pytest.mark.parametrize("points", ["99999999999999999999", "10000000000000000000"])
    @pytest.mark.parametrize("command", ["fig3", "isweep"])
    def test_count_numpy_refuses_is_config_error(self, command, points, capsys):
        """Counts that numpy refuses before it allocates anything."""
        code, err = run_failing([command, "--param", f"q=0:1:{points}"], capsys)
        assert code == 2
        message = f"parameter q: cannot make a grid of {points} points"
        assert err == f"softmeas: config error: {message}\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["fig3", "--param", "q=-1e308:-1e308:2"],
                "parameter q must lie in [-1, 1], got grid value -1e+308",
            ),
            (
                ["isweep", "--param", "q=0:1e308:3"],
                "parameter q must lie in [0, 1], got grid value 5e+307",
            ),
        ],
        ids=["fig3", "isweep"],
    )
    def test_correlation_grid_past_the_largest_float_is_config_error(self, argv, expected, capsys):
        """A grid whose correlation matrices' Hermitian part would overflow
        is outside its domain before any matrix is built."""
        code, err = run_failing(argv, capsys)
        assert code == 2
        assert err == f"softmeas: config error: {expected}\n"

    @pytest.mark.parametrize("command, name", [("fig2a", "q"), ("repeat", "n"), ("fig3", "q")])
    def test_span_past_the_largest_float_is_config_error(self, command, name, capsys):
        """Finite end points whose span overflows would make grid points the
        user never gave (NaN, infinite); the span is refused where the grid
        is built, naming the parameter and its end points."""
        code, err = run_failing([command, "--param", f"{name}=-1e308:1e308:3"], capsys)
        assert code == 2
        message = f"parameter {name}: the span from -1e+308 to 1e+308 exceeds the largest float"
        assert err == f"softmeas: config error: {message}\n"


# Values at, inside and just outside each declared domain, drawn from the
# schema: each domain's edges (for a complex domain, of the modulus or of the
# real part) with their neighbouring floats, the extremes of the doubles and
# any float. test_every_domain_has_edges fails for a domain added without
# its edges here.
DOMAIN_EDGES = {
    cli._FINITE: [0.0],
    cli._UNIT: [0.0, 1.0],
    cli._CORRELATION: [-1.0, 1.0],
    cli._ANGLE: [0.0, math.pi],
    cli._NONNEGATIVE: [0.0],
    cli._COUNTS: [1.0, 2.0**63],
    cli._MODULUS: [1.0],
    cli._DECAY: [0.0],
    cli._CONVENTION: [],
}
EXTREMES = [1e308, -1e308, 5e-324, -5e-324, 0.5, -0.5, 2.0]


def domain_floats(domain):
    edges = [
        x
        for edge in DOMAIN_EDGES[domain]
        for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))
    ]
    return st.one_of(st.sampled_from(edges + EXTREMES), st.floats(-4.0, 4.0), st.floats())


@st.composite
def param_texts(draw, param):
    """The text of a value of the declared parameter ``param``, drawn at,
    inside and just outside its domain, written as its kind reads it."""
    if param.kind is cli._inside:
        return draw(st.sampled_from([*cli._CONVENTIONS, "bogus", ""]))
    x = draw(domain_floats(param.domain))
    if param.kind is cli._parse_float:
        return repr(x)
    if param.kind is cli._parse_complex:
        if draw(st.booleans()):  # x as the modulus, at any angle
            angle = draw(st.floats(-math.pi, math.pi))
            return f"{x * math.cos(angle)!r},{x * math.sin(angle)!r}"
        return f"{x!r},{draw(domain_floats(param.domain))!r}"
    y = draw(domain_floats(param.domain))
    return f"{min(x, y)!r}:{max(x, y)!r}:{draw(st.integers(1, 3))}"


@st.composite
def schema_runs(draw):
    """A command, its resolved config with every grid cut to at most 3
    points, and 1 to 3 of its parameters set to values drawn from their
    domains' edges."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[command]
    config = {**spec.defaults, "kappa_convention": "gram"}
    for name in spec.grids:
        config[name] = config[name].rsplit(":", 1)[0] + ":3"
    names = st.lists(st.sampled_from(sorted(spec.params)), min_size=1, max_size=3, unique=True)
    names = draw(names)
    for name in names:
        config[name] = draw(param_texts(spec.params[name]))
    return command, config, names


# The messages of the invariants the library derives from valid values.
DERIVED = re.compile(
    r"(^|\): )(accumulated phase \S+ is not finite|eigenvalue \S+ below"
    r"|invariant violation: non-finite value)"
)


def test_every_domain_has_edges():
    domains = {p.domain for spec in cli._COMMANDS.values() for p in spec.params.values()}
    assert domains <= set(DOMAIN_EDGES)


@settings(deadline=None, max_examples=500)
@given(schema_runs())
@example(("single", {**cli._COMMANDS["single"].defaults, "theta": "4"}, ["theta"]))
@example(("continuous", {**cli._COMMANDS["continuous"].defaults, "kappa": "-1"}, ["kappa"]))
@example(("fig3", {**cli._COMMANDS["fig3"].defaults, "q": "0:2:3"}, ["q"]))
@example(("repeat", {**cli._COMMANDS["repeat"].defaults, "r12": "0.6,0.8"}, ["r12"]))
def test_schema_agrees_with_the_library(run):
    """A value the parser accepts never fails a library domain check: the
    sweep succeeds, or the parser refuses a drawn parameter by name, or an
    invariant the library derives from valid values fails (an accumulated
    phase overflows, a derived state has an eigenvalue below the entropy's
    clamp, an output is not finite). No range check of a parameter and no
    check of a matrix built from parameters fails, and nothing warns."""
    command, config, names = run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cli.run_sweep(command, config)
        except ConfigError as exc:
            assert re.match(rf"parameter ({'|'.join(names)})\b", str(exc)), str(exc)
        except SoftMeasError as exc:
            assert not isinstance(exc, (OutOfRange, InvalidMeasurement)), str(exc)
            assert DERIVED.search(str(exc)), str(exc)


# Parameter values as a user might mistype them: numbers out of range or not
# finite, and text that is no number. Grids built from them have 1 to 8
# points, or a count numpy refuses before it allocates anything.
MISTYPED_NUMBERS = st.sampled_from(
    ["0", "1", "0.5", "-1", "2", "1e308", "-1e308", "5e-324"]
    + ["nan", "inf", "-inf", "1e999", "", "x"]
)
MISTYPED_COUNTS = st.one_of(st.integers(1, 8), st.integers(10**19, 10**30)).map(str)
MISTYPED_VALUES = st.one_of(
    MISTYPED_NUMBERS,
    st.tuples(MISTYPED_NUMBERS, MISTYPED_NUMBERS, MISTYPED_COUNTS).map(":".join),
    st.lists(MISTYPED_NUMBERS, max_size=4).map(":".join),
    st.lists(MISTYPED_NUMBERS, max_size=4).map(",".join),
)


@st.composite
def mistyped_runs(draw):
    """A command, ``--param`` overrides of its parameters with mistyped
    values or values drawn from their domains' edges, and the end of a
    ``--config`` file: random bytes, or lines of such values."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    declared = cli._COMMANDS[command].params

    def pair(name):
        return st.tuples(st.just(name), st.one_of(MISTYPED_VALUES, param_texts(declared[name])))

    pairs = st.sampled_from(sorted(declared)).flatmap(pair)
    params = draw(st.lists(pairs, max_size=3))
    lines = st.lists(pairs, max_size=3).map(lambda kv: "".join(f"{k} = {v}\n" for k, v in kv))
    config = draw(st.one_of(st.binary(max_size=32), lines.map(str.encode)))
    return command, params, config


@settings(deadline=None, max_examples=300)
@given(mistyped_runs())
@example(("fig3", [("q", "0:1:99999999999999999999")], b""))
@example(("isweep", [("q", "0:1:99999999999999999999")], b""))
@example(("single", [], b"theta = \xff\xfe\n"))
def test_main_never_raises(tmp_path_factory, run):
    """Whatever the parameters, ``main`` returns 0, 2 or 3, and on 2 or 3
    writes one ``softmeas:`` line to stderr, with no warning. The config
    file sets every grid axis to 4 points before its drawn end, so that a
    grid no value overrides stays small."""
    command, params, config = run
    grids = "".join(f"{name} = 0:1:4\n" for name in cli._COMMANDS[command].grids)
    path = tmp_path_factory.getbasetemp() / "mistyped.cfg"
    path.write_bytes(grids.encode() + config)
    argv = [command, "--config", str(path)]
    argv += [f"--param={name}={value}" for name, value in params]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("softmeas:"), lines
    else:
        assert err.getvalue() == ""


class TestCommandTable:
    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_grids_are_defaults_and_columns_unique(self, name):
        command = cli._COMMANDS[name]
        assert set(command.grids) <= set(command.defaults)
        assert len(set(command.columns)) == len(command.columns)

    KINDS = {
        cli._parse_grid: "grid",
        cli._parse_counts: "count grid",
        cli._parse_float: "float",
        cli._parse_complex: "complex",
        cli._inside: "choice",
    }

    def test_readme_tables_match_the_schema(self):
        """The README's command table lists each command's grid and output
        columns, and its parameter table each parameter's kind, default and
        domain, in the order of ``_COMMANDS``."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        cells = [
            [cell.strip().replace("`", "") for cell in line.strip("|").split("|")]
            for line in readme.splitlines()
            if line.startswith("| `")
        ]
        commands = [
            (name, ", ".join(spec.grids) or "(none)", ", ".join(spec.outputs))
            for name, spec in cli._COMMANDS.items()
        ]
        params = [
            (command, name, self.KINDS[p.kind], p.default, p.domain.rule)
            for command, spec in cli._COMMANDS.items()
            for name, p in spec.params.items()
        ]
        assert [tuple(row) for row in cells if len(row) == 3] == commands
        assert [tuple(row) for row in cells if len(row) == 5] == params


def scale_grids(monkeypatch, command, factor):
    """Make ``command`` evaluate each grid point at ``factor`` times its grid
    values: a poisoned sweep, whose library checks then fail at points the
    parser accepted, as a check of an invariant the library derives would."""
    spec = cli._COMMANDS[command]

    def poisoned(**values):
        block = spec.sweep(**values)
        return lambda *axes: block(*(factor * axis for axis in axes))

    monkeypatch.setitem(cli._COMMANDS, command, spec._replace(sweep=poisoned))


@pytest.mark.parametrize(
    "argv",
    [
        ["--param", "r12=0.6,0.8", "--param", "n=1e18:9.2e18:3"],
        ["--param", "theta=0", "--param", "chi=0.05", "--param", "n=9.2e18:9.2e18:1"],
    ],
    ids=["entanglement", "gram"],
)
def test_repeat_of_a_unit_modulus_entry_at_huge_counts_succeeds(argv, capsys):
    """Entries of modulus 1 whose float modulus is 1 plus an ulp, at counts
    near the largest int64: every value lies in its domain, so the run
    succeeds with finite output."""
    code, err = run_failing(["repeat", *argv], capsys)
    assert (code, err) == (0, "")


@st.composite
def later_block_failures(draw):
    """A count grid of ``points`` rows, a block size ``block`` below it and
    a failing ``row`` in a block after the first."""
    points = draw(st.integers(2, 12))
    block = draw(st.integers(1, points - 1))
    return points, block, draw(st.integers(block, points - 1))


class TestFailingGridPoint:
    """A grid value outside its domain is a config error naming the value; a
    check that fails at a grid point the parser accepted names the command,
    the point's grid index and its parameter values."""

    def test_names_command_index_and_values(self, monkeypatch, capsys):
        code, err = run_failing(["fig3", "--param", "q=0:2:3"], capsys)
        assert code == 2
        assert err == (
            "softmeas: config error: parameter q must lie in [-1, 1], got grid value 2.0\n"
        )
        scale_grids(monkeypatch, "fig3", 2.0)
        code, err = run_failing(["fig3", "--param", "q=0:1:3"], capsys)
        assert code == 3
        # q = 1 (evaluated at 2) first fails at theta = 0: row 2 of 3, column 0 of 51.
        assert err == (
            "softmeas: fig3 grid point 102 (q=1, theta=0): dephase is not PSD: "
            "eigenvalue -1.000e+00; dephase has an entry with modulus > 1 (stack member [2, 0])\n"
        )

    def test_scalar_closed_form_names_its_point(self, monkeypatch, capsys):
        code, err = run_failing(["fig2b", "--param", "q_B=0:3:4"], capsys)
        assert code == 2
        assert err == (
            "softmeas: config error: parameter q_B must lie in [0, 1], got grid value 2.0\n"
        )
        scale_grids(monkeypatch, "fig2b", 3.0)
        code, err = run_failing(["fig2b", "--param", "q_B=0:1:4"], capsys)
        assert code == 3
        point = "fig2b grid point 2 (q_E=0, q_B=0.666666666667)"
        assert err.startswith(f"softmeas: {point}: q_bob must lie in [0, 1], got 2.0")

    def test_stacked_repeat_names_its_point(self, monkeypatch, capsys):
        code, err = run_failing(["isweep", "--param", "q=0:2:5"], capsys)
        assert code == 2
        assert err == "softmeas: config error: parameter q must lie in [0, 1], got grid value 1.5\n"
        scale_grids(monkeypatch, "isweep", 2.0)
        code, err = run_failing(["isweep", "--param", "q=0:1:5"], capsys)
        assert code == 3
        assert err.startswith("softmeas: isweep grid point 3 (q=0.75): gram is not PSD")
        assert err.endswith(" (stack member [3])\n")

    def test_later_block_names_its_grid_point(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 2)  # two counts per block
        code, err = run_failing(["repeat", "--param", "chi=0.7e308", "--param", "n=1:4:4"], capsys)
        assert code == 3
        # n = 3 is the first count of the second block.
        assert err == (
            "softmeas: repeat grid point 2 (n=3): "
            "accumulated phase n*chi is not finite (stack member [2])\n"
        )
        scale_grids(monkeypatch, "fig3", 2.0)
        scale_grids(monkeypatch, "isweep", 2.0)
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 51)  # one q row per block
        code, err = run_failing(["fig3", "--param", "q=0:1:3"], capsys)
        assert code == 3
        assert err.startswith("softmeas: fig3 grid point 102 (q=1, theta=0): dephase is not PSD")
        assert err.endswith(" (stack member [2, 0])\n")
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 2)
        code, err = run_failing(["isweep", "--param", "q=0:1:5"], capsys)
        assert err.startswith("softmeas: isweep grid point 3 (q=0.75): gram is not PSD")
        assert err.endswith(" (stack member [3])\n")

    def test_later_block_rebases_every_label(self, monkeypatch, capsys):
        scale_grids(monkeypatch, "fig3", 2.0)
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 3)  # one q row per block
        code, err = run_failing(["fig3", "--param", "q=0:1:5", "--param", "theta=0:1:3"], capsys)
        assert code == 3
        # Both failures are at q = 0.75, grid row 3, which is row 0 of its block.
        assert err == (
            "softmeas: fig3 grid point 9 (q=0.75, theta=0): dephase is not PSD: "
            "eigenvalue -5.000e-01; dephase has an entry with modulus > 1 (stack member [3, 0])\n"
        )
        config = {**cli._COMMANDS["fig3"].defaults, "q": "0:1:5", "theta": "0:1:3"}
        with pytest.raises(InvalidMeasurement) as excinfo:
            cli.run_sweep("fig3", config)
        assert excinfo.value.index == (3, 0)

    @settings(deadline=None, max_examples=50)
    @given(later_block_failures())
    def test_random_later_block_names_its_grid_row(self, case):
        """A failure at grid row ``row`` of a later block of ``block`` rows
        carries that row, not its place in the block, in ``index`` and in
        the message's one closing stack member."""
        points, block, row = case
        # The phase n*chi first overflows at count row + 1.
        chi = sys.float_info.max / (row + 0.5)
        config = {**cli._COMMANDS["repeat"].defaults, "chi": repr(chi), "n": f"1:{points}:{points}"}
        with mock.patch.object(cli, "_BLOCK_POINTS", block):
            with pytest.raises(SoftMeasError) as excinfo:
                cli.run_sweep("repeat", config)
        assert excinfo.value.index == (row,)
        assert str(excinfo.value) == (
            f"repeat grid point {row} (n={row + 1}): "
            f"accumulated phase n*chi is not finite (stack member [{row}])"
        )

    def test_non_finite_output_names_its_grid_point(self, monkeypatch, capsys):
        fig2a = cli._COMMANDS["fig2a"]

        def poisoned(p):
            block = fig2a.sweep(p)

            def evaluate(q, mu):
                (info,) = block(q, mu)
                return [np.where((q == 0.5) & (mu == 0.25), np.nan, info)]

            return evaluate

        monkeypatch.setitem(cli._COMMANDS, "fig2a", fig2a._replace(sweep=poisoned))
        monkeypatch.setattr(cli, "_BLOCK_POINTS", 5)  # one q row per block
        code, err = run_failing(["fig2a", "--param", "q=0:1:5", "--param", "mu=0:1:5"], capsys)
        assert code == 3
        # q = 0.5 is row 2 (the third block) and mu = 0.25 column 1: flat index 11.
        assert err == (
            "softmeas: fig2a grid point 11 (q=0.5, mu=0.25): "
            "invariant violation: non-finite value in column 'I_c' (stack member [2, 1])\n"
        )

    def test_negative_zero_coordinate_is_named_as_zero(self, monkeypatch, capsys):
        """A grid that stops at ``-0`` ends in the float -0.0 (``0:-0:3`` is
        0, 0, -0.0), which the CSV writes as ``0``; a failure at that point
        names it as ``0`` too, not ``-0``."""
        assert np.signbit(cli._parse_grid("0:-0:3", "q")).tolist() == [False, False, True]
        fig2a = cli._COMMANDS["fig2a"]

        def poisoned(p):
            block = fig2a.sweep(p)
            return lambda q, mu: [np.where(np.signbit(q) & (mu == 0.25), np.nan, *block(q, mu))]

        monkeypatch.setitem(cli._COMMANDS, "fig2a", fig2a._replace(sweep=poisoned))
        code, err = run_failing(["fig2a", "--param", "q=0:-0:3", "--param", "mu=0:1:5"], capsys)
        assert code == 3
        assert err == (
            "softmeas: fig2a grid point 11 (q=0, mu=0.25): "
            "invariant violation: non-finite value in column 'I_c' (stack member [2, 1])\n"
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


def kernel_marked(commands, needs_fma, avx512_numpy_only=()):
    """The commands as parameters, each digest that holds only on some
    kernel sets marked (see the markers in pyproject.toml): those of
    continuous and repeat hold only on SkylakeX, those in ``needs_fma``
    only with FMA, those in ``avx512_numpy_only`` only under numpy's
    AVX-512 dispatch."""
    groups = (
        (pytest.mark.needs_fma, needs_fma),
        (pytest.mark.skylakex_only, ("continuous", "repeat")),
        (pytest.mark.avx512_numpy_only, avx512_numpy_only),
    )
    return [
        pytest.param(command, marks=[mark for mark, names in groups if command in names])
        for command in sorted(commands)
    ]


@pytest.mark.parametrize("command", kernel_marked(DEFAULT_CSV_SHA256, {"fig3"}))
def test_default_csv_digest_is_pinned(command, tmp_path):
    code, out = run_cli([command], tmp_path)
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CSV_SHA256[command]


@pytest.mark.parametrize(
    "command", kernel_marked(DEFAULT_JSON_SHA256, {"fig3", "isweep"}, {"fig3"})
)
def test_default_json_digest_is_pinned(command, tmp_path):
    code, out = run_cli([command, "--format", "json"], tmp_path, "out.json")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_JSON_SHA256[command]


# sha256 of a continuous JSON away from the defaults, where r_dot, chi_dot and
# the input state's phase are all 0: the paper convention, a complex r_dot, a
# phase drift and a phased input state, on 401 times. It pins the dephasing,
# the phase of the meter states and the complex coherences, as the separate
# continuous-limit state functions gave them before the limit became a soft
# measurement.
CONTINUOUS_PAPER_JSON_SHA256 = "3e2ce5ea824bfd8e68eefd27d2a17c9cfa0e1e2bb0a704d1baa59a2687c5e78a"


@pytest.mark.skylakex_only
@pytest.mark.avx512_numpy_only
def test_non_default_continuous_digest_is_pinned(tmp_path):
    argv = ["continuous", "--format", "json", "--kappa-convention", "paper"]
    for value in ("t=0:7:401", "r_dot=0.3,2", "chi_dot=1.3", "rho_p=0.3", "rho_mu=0.6"):
        argv += ["--param", value]
    argv += ["--param", "rho_phase=0.7"]
    code, out = run_cli(argv, tmp_path, "out.json")
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CONTINUOUS_PAPER_JSON_SHA256


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


@pytest.mark.needs_fma
@pytest.mark.avx512_numpy_only
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


def grid_table(shape, outputs):
    """A float table over a grid of ``shape`` in C order: its grid columns,
    then ``outputs`` columns of random values."""
    axes = [np.linspace(0.0, 1.0, n) for n in shape]
    grid = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    values = np.random.default_rng(len(shape)).random((outputs, math.prod(shape)))
    return np.column_stack([*grid, *values]) if grid else values.T


class TestChunkedEmit:
    """The emitters write a header, then one piece per chunk of at most
    ``_BLOCK_POINTS`` rows, so that the text held at once does not grow
    with the table."""

    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("shape", [(), (10,), (4, 5), (2, 3, 2), (3, 0), (3, 3000)])
    def test_one_piece_per_chunk(self, shape, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_POINTS", block)
        block = cli._BLOCK_POINTS
        table = grid_table(shape, 2)
        columns = tuple(f"c{j}" for j in range(table.shape[1]))
        rows = len(table)
        sizes = [min(block, rows - start) for start in range(0, rows, block)]
        csv = list(cli._emit_csv(columns, table, shape))
        assert csv[0] == ",".join(columns) + "\n"
        assert [piece.count("\n") for piece in csv[1:]] == sizes
        pieces = list(cli._emit_json("x", {}, columns, table, shape))
        assert [piece.count("\n    ]") for piece in pieces[1:-1]] == sizes
        assert "".join(pieces) == per_value_json("x", {}, columns, table.tolist())


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

    @pytest.mark.needs_fma
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
