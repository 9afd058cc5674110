"""Fast self-test of the benchmark, at tiny grids (about 30 s).

    python3 bench/selftest.py

For every workload it runs ``run.py --scale tiny`` once untraced and twice
traced (two seeds), and checks that

* the last line of standard output is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, with a correct
  result and no failed operation;
* every end-to-end metric (untraced) and every per-layer metric (traced)
  named in ``BENCHMARK.json`` is printed with its unit, and ``failed_frac``
  is printed too;
* every count repeats exactly between the two traced runs.

It also checks that the trace wrappers are bound in every module that
imported the original and are all gone after ``uninstall``, and that
``run.py`` exits nonzero without a result in a directory holding only
``BENCHMARK.json`` and the benchmark's files. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import layertrace
import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args: str, cwd: Path = run.ROOT, script: Path = run.BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result_of(lines: list[str], names: list[dict], label: str) -> dict:
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: result {lines[-1]}")
    for metric in names:
        printed = result["metrics"].get(metric["name"])
        if printed is None or printed.get("unit") != metric["unit"]:
            raise AssertionError(f"{label}: {metric['name']} missing or without unit {metric['unit']}")
        if not isinstance(printed["value"], (int, float)):
            raise AssertionError(f"{label}: {metric['name']} is not a number")
    if set(result["metrics"]) != {m["name"] for m in names}:
        raise AssertionError(f"{label}: unexpected metrics {sorted(result['metrics'])}")
    if not any(line.startswith("failed_frac ") for line in lines):
        raise AssertionError(f"{label}: failed_frac not printed")
    return result


def check_workload(name: str, spec: dict) -> None:
    code, lines, err = bench("--workload", name, "--seconds", "1", "--scale", "tiny", "--trace", "0")
    if code != 0:
        raise AssertionError(f"{name} untraced exited {code}: {err}")
    result_of(lines, spec["end_to_end"], f"{name} untraced")

    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    seen = []
    for seed in ("0", "1"):
        code, lines, err = bench(
            "--workload", name, "--seed", seed, "--seconds", "1", "--scale", "tiny", "--trace", "1"
        )
        if code != 0:
            raise AssertionError(f"{name} traced exited {code}: {err}")
        metrics = result_of(lines, spec["per_layer"], f"{name} traced")["metrics"]
        seen.append({c: metrics[c]["value"] for c in counts})
    if seen[0] != seen[1]:
        raise AssertionError(f"{name}: counts differ between runs: {seen}")
    rows = sum(inv.rows for inv in run.workload(name, 0, "tiny"))
    per_row = ", ".join(f"{c} {seen[0][c] / rows:g}" for c in counts if seen[0][c])
    print(f"ok {name}: {rows} rows; per row: {per_row}")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import softmeas.cli as cli
    import softmeas.information as information

    originals = (cli.holevo_info, information.holevo_info, np.linalg.eigvalsh)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        if cli.holevo_info is originals[0] or information.holevo_info is not cli.holevo_info:
            raise AssertionError("holevo_info is not wrapped in both cli and information")
        if np.linalg.eigvalsh is originals[2]:
            raise AssertionError("numpy.linalg.eigvalsh is not wrapped")
        try:
            tracer.verify_pristine()
        except RuntimeError:
            pass
        else:
            raise AssertionError("verify_pristine accepted installed wrappers")
    finally:
        tracer.uninstall()
    tracer.verify_pristine()
    if (cli.holevo_info, information.holevo_info, np.linalg.eigvalsh) != originals:
        raise AssertionError("uninstall left a wrapper bound")
    print("ok tracer: wrappers bound everywhere, originals restored")


def check_bare_directory() -> None:
    """Without ``src/`` the benchmark must fail without printing a result."""
    bare = run.BENCH_DIR / ".work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy2(run.SPEC_PATH, bare / "BENCHMARK.json")
        code, lines, _ = bench(
            "--workload", run.WORKLOADS[0], "--seconds", "1", cwd=bare, script=bare / "bench" / "run.py"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        raise AssertionError(f"bare directory: exit {code}, output {lines}")
    print(f"ok bare directory: exit {code}, no result")


def main() -> int:
    spec = json.loads(run.SPEC_PATH.read_text())
    try:
        check_tracer_restores()
        check_bare_directory()
        for name in run.WORKLOADS:
            check_workload(name, spec)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
