"""Sweep benchmark for softmeas.

Runs one workload through the public ``softmeas.cli.main`` in a closed loop
(one caller, one sweep after another), checks every output, and prints the
metrics named in ``BENCHMARK.json`` as the last line of standard output::

    python3 bench/run.py --workload fig3-surface --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced passes with passes traced by
:mod:`layertrace` and reports the per-layer metrics. Run from any directory;
the package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported, so that the two pool workers of fig3-jobs2
# do not oversubscribe the cores with BLAS threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import lzma
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layertrace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH_DIR / "reference" / "seed0.json.xz"
REFERENCE_SEED = 0
# Outputs carry 12 significant digits; values are O(1) bits.
REFERENCE_TOL = 1e-9
BOUND_TOL = 1e-9
MIN_PASSES = 3
SETUP_LAUNCHES = 11
# Time of speed_probe() on the reference box (2 shared vCPUs of a 2.0 GHz
# Xeon VM, Python 3.11, numpy with BLAS threads 1) in a middling phase. A
# scaled time is the time the work would have taken had the probe taken this.
PROBE_REF_S = 0.130

HALF_PI = math.pi / 2.0

# Grid points per axis: the stated sizes, and the tiny ones the self-test uses.
GRID_POINTS = {
    "full": {"fig3": 51, "fig2": 201, "repeat": 1024},
    "tiny": {"fig3": 5, "fig2": 11, "repeat": 16},
}

WORKLOADS = ("fig3-surface", "fig3-jobs2", "fig2-closed-form", "repeat-deep")

COLUMNS = {
    "fig3": ("q", "theta", "I_s"),
    "fig2a": ("q", "mu", "I_c"),
    "fig2b": ("q_E", "q_B", "I_c_E", "I_c_B"),
    "repeat": (
        "n", "psi_00", "psi_01_re", "psi_01_im", "psi_11",
        "meter_entropy", "joint_entropy", "I_c",
    ),
}

# Physical bounds at D=2: Holevo information in [0, 1] bit, coherent
# information in [-1, 1] bit, entropies of a qubit in [0, 1] and of the
# two-qubit joint state in [0, 2]; the collective meter vectors are unit
# vectors with real nonnegative diagonal.
BOUNDS = {
    "I_s": (0.0, 1.0),
    "I_c": (-1.0, 1.0),
    "I_c_E": (-1.0, 1.0),
    "I_c_B": (-1.0, 1.0),
    "psi_00": (0.0, 1.0),
    "psi_11": (0.0, 1.0),
    "psi_01_re": (-1.0, 1.0),
    "psi_01_im": (-1.0, 1.0),
    "meter_entropy": (0.0, 1.0),
    "joint_entropy": (0.0, 2.0),
}


class CheckFailed(Exception):
    """An output, an exit code or a trace binding was not what it must be."""


@dataclass(frozen=True)
class Invocation:
    """One ``softmeas`` command line of a workload pass."""

    command: str
    params: tuple[tuple[str, str], ...]
    grid: tuple[str, ...]
    fmt: str = "csv"
    jobs: int = 1

    def argv(self, out: Path, params: dict[str, str] | None = None) -> list[str]:
        argv = [self.command, "--format", self.fmt, "--jobs", str(self.jobs), "--out", str(out)]
        for key, value in (params or dict(self.params)).items():
            argv += ["--param", f"{key}={value}"]
        return argv

    def first_point_argv(self, out: Path) -> list[str]:
        """The same command with every grid cut down to its first point."""
        params = dict(self.params)
        for name in self.grid:
            start = params[name].split(":")[0]
            params[name] = f"{start}:{start}:1"
        return self.argv(out, params)

    def axes(self) -> list:
        params = dict(self.params)
        axes = []
        for name in self.grid:
            start, stop, points = params[name].split(":")
            axis = np.linspace(float(start), float(stop), int(points))
            if self.command == "repeat":
                axis = np.unique(np.rint(axis).astype(int)).astype(float)
            axes.append(axis)
        return axes

    @property
    def rows(self) -> int:
        return math.prod(len(a) for a in self.axes())


def workload(name: str, seed: int, scale: str = "full") -> list[Invocation]:
    """The command lines of one pass. The seed draws only the fixed physical
    parameters, inside their valid domains; grid sizes do not depend on it."""
    rng = random.Random(f"{name}:{seed}")
    points = GRID_POINTS[scale]
    if name in ("fig3-surface", "fig3-jobs2"):
        # fig3 has no fixed physical parameter: every seed runs the same surface.
        n = points["fig3"]
        params = (("q", f"0:1:{n}"), ("theta", f"0:{HALF_PI!r}:{n}"))
        jobs = 2 if name == "fig3-jobs2" else 1
        return [Invocation("fig3", params, ("q", "theta"), jobs=jobs)]
    if name == "fig2-closed-form":
        n = points["fig2"]
        p = f"{rng.uniform(0.05, 0.95):.6f}"
        mu = f"{rng.uniform(0.0, 1.0):.6f}"
        return [
            Invocation("fig2a", (("q", f"0:1:{n}"), ("mu", f"0:1:{n}"), ("p", p)), ("q", "mu")),
            Invocation(
                "fig2b",
                (("q_E", f"0:1:{n}"), ("q_B", f"0:1:{n}"), ("mu", mu)),
                ("q_E", "q_B"),
                fmt="json",
            ),
        ]
    if name == "repeat-deep":
        n = points["repeat"]
        params = (
            ("n", f"1:{n}:{n}"),
            ("theta", "0.1"),
            ("chi", "0.05"),
            ("r12", "0.999,0.01"),
            ("rho_p", f"{rng.uniform(0.1, 0.9):.6f}"),
            ("rho_mu", f"{rng.uniform(0.2, 1.0):.6f}"),
            ("rho_phase", f"{rng.uniform(0.0, 2.0 * math.pi):.6f}"),
        )
        return [Invocation("repeat", params, ("n",))]
    raise ValueError(f"unknown workload {name!r}")


# -- output checks ---------------------------------------------------------


def read_output(path: Path, fmt: str) -> tuple[tuple[str, ...], list[list[float]]]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        return tuple(payload["columns"]), payload["rows"]
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed(f"{path.name}: CSV does not end with a newline")
    return tuple(lines[0].split(",")), [[float(v) for v in line.split(",")] for line in lines[1:-1]]


def check_output(inv: Invocation, path: Path, reference: dict | None) -> None:
    """Columns, grid, finiteness, physical bounds and, if given, the reference."""
    columns, rows = read_output(path, inv.fmt)
    if columns != COLUMNS[inv.command]:
        raise CheckFailed(f"{inv.command}: columns {columns}")
    table = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    if table.shape[0] != inv.rows:
        raise CheckFailed(f"{inv.command}: {table.shape[0]} rows, expected {inv.rows}")
    if not np.all(np.isfinite(table)):
        raise CheckFailed(f"{inv.command}: non-finite value")
    mesh = np.meshgrid(*inv.axes(), indexing="ij")
    for j, axis in enumerate(mesh):
        if np.max(np.abs(table[:, j] - axis.ravel())) > REFERENCE_TOL:
            raise CheckFailed(f"{inv.command}: grid column {columns[j]} differs from the grid")
    for j, name in enumerate(columns[len(inv.grid):], start=len(inv.grid)):
        lo, hi = BOUNDS[name]
        if table[:, j].min() < lo - BOUND_TOL or table[:, j].max() > hi + BOUND_TOL:
            raise CheckFailed(f"{inv.command}: {name} outside [{lo}, {hi}]")
        if reference is not None:
            expected = np.array(reference[inv.command][name])
            if expected.shape != table[:, j].shape:
                raise CheckFailed(f"{inv.command}: reference has {expected.size} rows")
            worst = float(np.max(np.abs(table[:, j] - expected) - REFERENCE_TOL * np.abs(expected)))
            if worst > REFERENCE_TOL:
                raise CheckFailed(f"{inv.command}: {name} differs from the reference")


def load_reference(seed: int, scale: str) -> dict | None:
    if seed != REFERENCE_SEED or scale != "full":
        return None
    with lzma.open(REFERENCE_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def digest(paths: list[Path]) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                sha.update(chunk)
    return sha.hexdigest()


# -- passes ----------------------------------------------------------------


def run_pass(cli, invocations: list[Invocation], outs: list[Path], log) -> list[float] | None:
    """One full pass of the workload: each command's wall time in seconds, or
    None, logged, if a command exited nonzero or raised."""
    seconds = []
    for inv, out in zip(invocations, outs):
        t0 = time.perf_counter()
        try:
            code = cli.main(inv.argv(out))
        except (Exception, SystemExit) as exc:  # a failed pass is counted, not fatal
            log(f"softmeas {inv.command} raised {exc!r}")
            return None
        seconds.append(time.perf_counter() - t0)
        if code != 0:
            log(f"softmeas {inv.command} exited with {code}")
            return None
    return seconds


_PROBE_MATRIX = np.array([[0.6, 0.2], [0.2, 0.4]])


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, small-numpy and float-formatting work.

    The box runs in phases whose speed differs by up to a factor of two, for
    minutes at a time. This probe runs no softmeas code, so a change to
    softmeas cannot move it; timed between passes, it measures how fast the
    box was then.
    """
    t0 = time.perf_counter()
    total = 0.0
    for i in range(300_000):
        total += i * i % 7
    for _ in range(3_000):
        w = np.linalg.eigvalsh(_PROBE_MATRIX)
        total += float(np.sum(w * np.log2(w)))
    for i in range(20_000):
        total += len(",".join(f"{v:.12g}" for v in (i * 1e-3, i * 0.37, 1.0 / (i + 1))))
    if not math.isfinite(total):
        raise CheckFailed("speed probe returned a non-finite value")
    return time.perf_counter() - t0


def probe_seconds(workers: int) -> float:
    """Mean time of ``workers`` speed probes run at once, one in this process
    and the others in forked children, so that every core a pass uses is probed."""
    children = []
    for _ in range(workers - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, repr(speed_probe()).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    seconds = [speed_probe()]
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as pipe:
            reply = pipe.read()
        os.waitpid(pid, 0)
        if not reply:
            raise CheckFailed("a speed probe child wrote nothing")
        seconds.append(float(reply))
    return statistics.fmean(seconds)


def setup_times(invocations: list[Invocation], work: Path, log) -> list[float | None]:
    """Time from launching a fresh interpreter until ``softmeas.cli.main`` has
    imported, resolved the workload's config and grid, and emitted the first row."""
    code = (
        "import json, sys, time\n"
        "from softmeas.cli import main\n"
        "if not sys.modules['softmeas'].__file__.startswith(sys.argv[2]): sys.exit(4)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    if main(argv) != 0: sys.exit(1)\n"
        "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
    )
    argvs = [inv.first_point_argv(work / f"setup-{i}.{inv.fmt}") for i, inv in enumerate(invocations)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argvs), str(SRC)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            log(f"setup launch exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            times.append(None)
            continue
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, invocations: list[Invocation]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "run_seconds": args.seconds,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "grids": {
            inv.command: {name: len(axis) for name, axis in zip(inv.grid, inv.axes())}
            for inv in invocations
        },
        "params": {inv.command: dict(inv.params) for inv in invocations},
        "rows_per_pass": sum(inv.rows for inv in invocations),
        "jobs": invocations[0].jobs,
    }


class Run:
    """State of one benchmark run: counts of attempts and failures, and a log."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.work = work
        self.invocations = workload(args.workload, args.seed, args.scale)
        self.rows = sum(inv.rows for inv in self.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def log(self, message: str) -> None:
        self.problems.append(message)
        print(f"# {message}", file=sys.stderr)

    def outs(self, tag: str) -> list[Path]:
        return [self.work / f"{tag}-{i}.{inv.fmt}" for i, inv in enumerate(self.invocations)]

    def warm(self, cli) -> tuple[str, list[tuple[Invocation, Path]]]:
        """Untimed first pass, plus a serial pass when the workload uses the pool.

        Returns the digest every later pass must reproduce byte for byte and
        the outputs whose values are checked.
        """
        serial = [Invocation(i.command, i.params, i.grid, i.fmt, 1) for i in self.invocations]
        passes = [("warm", self.invocations)]
        if serial != self.invocations:
            passes.insert(0, ("serial", serial))
        checked, digests = [], []
        for tag, invocations in passes:
            outs = self.outs(tag)
            self.attempted += 1
            if run_pass(cli, invocations, outs, self.log) is None:
                raise CheckFailed(f"the {tag} pass failed")
            digests.append(digest(outs))
            checked += list(zip(invocations, outs))
        if len(set(digests)) != 1:
            raise CheckFailed("--jobs output is not byte-identical to the serial output")
        return digests[0], checked

    def timed_pass(self, cli, expected: str, outs: list[Path]) -> list[float] | None:
        """Per-command wall times of one pass, or None if it failed."""
        self.attempted += 1
        seconds = run_pass(cli, self.invocations, outs, self.log)
        if seconds is not None and digest(outs) != expected:
            self.log("pass output differs from the checked output")
            seconds = None
        if seconds is None:
            self.failed += 1
        return seconds

    def check_values(self, checked: list[tuple[Invocation, Path]]) -> bool:
        reference = load_reference(self.args.seed, self.args.scale)
        try:
            for inv, path in checked:
                check_output(inv, path, reference)
        except (CheckFailed, ValueError, KeyError) as exc:  # ValueError: unparsable output
            self.log(f"output check failed: {exc!r}")
            return False
        return True


def measure_end_to_end(run: Run, cli, reports) -> tuple[dict, dict]:
    expected, checked = run.warm(cli)
    reports.collect()
    times, speeds, worker_kib = [], [], 0
    outs = run.outs("pass")
    jobs = run.invocations[0].jobs
    before = probe_seconds(jobs)
    deadline = time.perf_counter() + run.args.seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        seconds = run.timed_pass(cli, expected, outs)
        after = probe_seconds(jobs)
        if seconds is not None:
            times.append(seconds)
            speeds.append(PROBE_REF_S * 2.0 / (before + after))
        before = after
        worker_kib = max(worker_kib, sum(r["maxrss_kib"] for r in reports.collect()))
        if run.failed > MIN_PASSES:
            break
    # Read before the value checks parse the outputs in this process.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_kib
    if not run.check_values(checked):
        run.failed = run.attempted
    if not times:
        raise CheckFailed("no pass succeeded")

    setups = setup_times(run.invocations, run.work, run.log)
    run.attempted += len(setups)
    run.failed += sum(s is None for s in setups)
    setups = [s for s in setups if s is not None]
    if not setups:
        raise CheckFailed("no setup launch succeeded")

    # Each pass time is scaled to the reference speed by the probes timed on
    # either side of it; the unscaled figures are kept in the record. Set-up
    # time is not scaled: a launched interpreter may run on another core than
    # this process, and the probe here did not follow it.
    by_command = {inv.command: statistics.median(t[i] for t in times)
                  for i, inv in enumerate(run.invocations)}
    times = [sum(t) for t in times]
    scaled = [t * speed for t, speed in zip(times, speeds)]
    q1, median, q3 = quartiles(times)
    s1, smedian, s3 = quartiles(scaled)
    metrics = {
        "rows_per_s": run.rows / smedian,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_kib / 1024.0,
    }
    detail = {
        "pass_s": {"median": median, "q1": q1, "q3": q3, "n": len(times)},
        "command_s": by_command,
        "rows_per_s": {"q1": run.rows / s3, "q3": run.rows / s1, "n": len(times)},
        "raw_rows_per_s": {
            "median": run.rows / median, "q1": run.rows / q3, "q3": run.rows / q1,
            "throughput": run.rows * len(times) / sum(times), "n": len(times),
        },
        "speed": dict(zip(("q1", "median", "q3"), quartiles(speeds)), n=len(speeds)),
        "setup_s": dict(zip(("q1", "median", "q3"), quartiles(setups)), n=len(setups)),
        "worker_peak_rss_mib": worker_kib / 1024.0,
    }
    return metrics, detail


def measure_layers(run: Run, cli, tracer, reports) -> tuple[dict, dict]:
    tracer.verify_pristine()
    expected, checked = run.warm(cli)
    reports.collect()
    plain, traced, aggregates = [], [], []
    outs = run.outs("pass")
    deadline = time.perf_counter() + run.args.seconds
    while not traced or time.perf_counter() < deadline:
        tracer.verify_pristine()
        seconds = run.timed_pass(cli, expected, outs)
        reports.collect()
        if seconds is not None:
            plain.append(sum(seconds))
        tracer.reset()
        tracer.install()
        try:
            seconds = run.timed_pass(cli, expected, outs)
        finally:
            tracer.uninstall()
        total = tracer.aggregate()
        for report in reports.collect():
            layertrace.merge(total, report.get("trace", {}))
        if seconds is not None:
            traced.append(sum(seconds))
            aggregates.append(total)
        if run.failed > MIN_PASSES:
            break
    tracer.verify_pristine()
    if not run.check_values(checked):
        run.failed = run.attempted
    if not plain or not traced:
        raise CheckFailed("no pass succeeded")

    counts = [k for k, v in aggregates[0].items() if isinstance(v, int)]
    if any(a[k] != aggregates[0][k] for a in aggregates for k in counts):
        run.log("layer counts differ between traced passes")
    metrics = {k: aggregates[0][k] for k in counts}
    for key in aggregates[0]:
        if key not in metrics:
            metrics[key] = statistics.median(a[key] for a in aggregates)
    busy = sum(metrics[f"{g}.self_s"] for g in layertrace.GROUPS)
    metrics["validation.share"] = metrics["validation.self_s"] / busy
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    detail = {
        "plain_pass_s": statistics.median(plain),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "per_row": {k: metrics[k] / run.rows for k in counts},
    }
    if run.invocations[0].jobs > 1:
        detail["note"] = (
            "layer spans inside pool workers are not in the parent's span tree: "
            "worker aggregates are added to the layer metrics, and cli.* come from the parent"
        )
    return metrics, detail


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(GRID_POINTS), default="full",
                        help="grid sizes: the stated ones, or tiny ones for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "softmeas" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"bench: no softmeas sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sys.path.insert(0, str(SRC))
    import softmeas.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"bench: softmeas imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = BENCH_DIR / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args, work)
    try:
        if args.trace:
            tracer = layertrace.Tracer()
            reports = layertrace.ChildReports(work, tracer)
            values, detail = measure_layers(run, cli, tracer, reports)
            names = spec["per_layer"]
        else:
            reports = layertrace.ChildReports(work)
            values, detail = measure_end_to_end(run, cli, reports)
            names = spec["end_to_end"]
    except CheckFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record = stamp(args, run.invocations)
    record.update(attempted=run.attempted, failed=run.failed, problems=run.problems,
                  detail=detail, metrics=metrics)
    record["failed_frac"] = {"value": run.failed / run.attempted, "unit": "ratio"}
    for name, metric in metrics.items():
        q = detail.get(name, {})
        extra = f" (q1 {q['q1']:.6g}, q3 {q['q3']:.6g}, n={q['n']})" if q else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{extra}")
    if "raw_rows_per_s" in detail:
        raw, speed = detail["raw_rows_per_s"], detail["speed"]
        print(f"raw_rows_per_s {raw['median']:.6g} rows/s (wall time, unscaled; "
              f"q1 {raw['q1']:.6g}, q3 {raw['q3']:.6g}, n={raw['n']})")
        print(f"speed {speed['median']:.6g} of the reference box "
              f"(q1 {speed['q1']:.6g}, q3 {speed['q3']:.6g}, n={speed['n']})")
    print(f"failed_frac {run.failed / run.attempted:.6g} ratio ({run.failed} of {run.attempted})")
    if "note" in detail:
        print(f"note: {detail['note']}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
