"""Run every workload untraced and traced, print one table, and optionally
write the stamped records as one point of the trend.

    python3 bench/report.py [--seed 0] [--seconds 20] [--out bench/results/BENCH_<label>.json]

Each run is a separate ``run.py`` process, so that set-up time and peak RSS
are those of one workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

LAYER_COLUMNS = (
    "matcore.eig_calls",
    "matcore.eig_validation_calls",
    "validation.calls",
    "information.ensembles_built",
    "repeated.collective_representation.calls",
)


def run_once(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    line = next(line for line in proc.stdout.splitlines() if line.startswith("record "))
    return json.loads(line[len("record "):])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, help="write all records to this JSON file")
    args = parser.parse_args()
    spec = json.loads(run.SPEC_PATH.read_text())

    records = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            records.append(run_once(name, args.seed, args.seconds, trace))
            print(f"# {name} --trace {trace} done", file=sys.stderr)

    names = [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_frac": "ratio"}
    header = ["workload"] + [f"{n} ({units[n]})" for n in names]
    print("  ".join(f"{h:>24}" for h in header))
    for record in records:
        if record["trace"]:
            continue
        cells = [record["workload"]]
        for n in names:
            metric = record["failed_frac"] if n == "failed_frac" else record["metrics"][n]
            cells.append(f"{metric['value']:.6g}")
        q, raw = record["detail"]["rows_per_s"], record["detail"]["raw_rows_per_s"]
        print("  ".join(f"{c:>24}" for c in cells)
              + f"   rows/s q1 {q['q1']:.6g} q3 {q['q3']:.6g} n={q['n']}"
              + f", unscaled {raw['median']:.6g}")

    print("\nper row, traced run:")
    print("  ".join(f"{h:>24}" for h in ["workload", *LAYER_COLUMNS, "validation.share"]))
    for record in records:
        if not record["trace"]:
            continue
        per_row = record["detail"]["per_row"]
        cells = [record["workload"], *(f"{per_row[c]:g}" for c in LAYER_COLUMNS),
                 f"{record['metrics']['validation.share']['value']:.3f}"]
        print("  ".join(f"{c:>24}" for c in cells))

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"records": records}, indent=1, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
