"""Write the reference outputs that seed-0 runs of ``run.py`` are compared with.

    python3 bench/make_reference.py

Runs every workload's command lines once at seed 0 and the stated grid sizes,
and stores each output column (grid columns excepted) rounded to the CLI's
12 significant digits in ``bench/reference/seed0.json.xz``. Regenerate it
only when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import lzma
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import softmeas.cli as cli

    work = run.BENCH_DIR / ".work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    outputs: dict[str, dict[str, list[float]]] = {}
    try:
        for name in run.WORKLOADS:
            for inv in run.workload(name, run.REFERENCE_SEED):
                if inv.command in outputs:
                    continue
                out = work / f"{inv.command}.{inv.fmt}"
                if cli.main(inv.argv(out)) != 0:
                    print(f"softmeas {inv.command} failed", file=sys.stderr)
                    return 1
                columns, rows = run.read_output(out, inv.fmt)
                outputs[inv.command] = {
                    column: [float(format(row[j], ".12g")) for row in rows]
                    for j, column in enumerate(columns)
                    if j >= len(inv.grid)
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with lzma.open(run.REFERENCE_PATH, "wb", preset=9) as handle:
        handle.write(json.dumps(outputs, sort_keys=True).encode())
    print(f"wrote {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
