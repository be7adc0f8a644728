"""One-off reference sweep, outside the gated workloads.

    python3 perfbench/sweep.py

Times each ``mixlab repro`` criterion once, each in a fresh process at one
thread with the repro seed, and each subcommand on ``configs/*.cfg`` once,
and writes the figures to ``perfbench/results/sweep.json``.
Subcommands write their artifacts under ``perfbench/results/sweep/``, never
into the committed ``out/`` tree.  Exit code 2 from a subcommand means it does
not apply to that config (for example ``srb`` on the solenoid).  The output
also records which criteria each benchmark workload scales down.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SUBCOMMANDS = ("validate", "srb", "cohomology", "tails", "correlate", "tdist", "solenoid")
REPRO_SEED = 42
TIMEOUT_S = 900

SCALED = {
    "mixing": {
        "criterion_04": "constant-roof correlation, 1M samples -> 100k",
        "criterion_05": "height_mix on 1+x^2 with fit, 1M and 2M samples -> 100k, "
        "at 1 and nproc threads",
        "criterion_11": "1 vs 8 threads byte identity -> 1 vs nproc threads",
    },
    "attractor": {
        "criterion_07": "contraction ratio at 1e5 pairs (invariance probe left out)",
        "criterion_08": "domination of (2,20,1/4) (the failing (2,10,1/2) model left out)",
        "criterion_09": "eta on the 16-point grid -> 4 seeded grid points; sandwich at 200k",
        "correlate:solenoid.cfg": "all three observables, 5000 samples -> 20000",
    },
    "certify": {
        "criterion_01": "exact witness for 1+x^2 to period 4 (float twin left out)",
        "criterion_02": "no witness for 1+x, period 8 -> 12 (coboundary probe left out)",
        "criterion_03": "Ulam 1024 density and gap, 20 duality pairs -> 6 "
        "(dense 64 and N=96 left out)",
        "criterion_06": "first-return tails of three_branch at cap 12",
        "criterion_10": "16x16 temporal distance at depth 30, both roofs (depth 40 left out)",
        "srb:three_branch.cfg": "Ulam density at 1023 bins",
    },
}


def _timed(argv: list[str]) -> tuple[int, float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return proc.returncode, time.perf_counter() - t0, proc.stdout


def criterion_runs() -> list[tuple[str, list[str]]]:
    from_src = (
        "import json, sys; from mixlab.acceptance import CHECKS; "
        f"r = CHECKS[int(sys.argv[1])](seed={REPRO_SEED}, threads=1); "
        "print(json.dumps({'passed': r.passed, 'elapsed': r.elapsed, 'name': r.name}))"
    )
    return [(f"criterion_{i + 1:02d}", [sys.executable, "-c", from_src, str(i)]) for i in range(11)]


def subcommand_runs() -> list[tuple[str, list[str]]]:
    runs = []
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for cmd in SUBCOMMANDS:
            out_dir = RESULTS / "sweep" / cfg.stem / cmd
            argv = [sys.executable, "-m", "mixlab.cli", cmd, "--config", str(cfg.relative_to(ROOT)),
                    "--threads", "1", "--out", str(out_dir)]
            runs.append((f"{cmd}:{cfg.name}", argv))
    return runs


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import environment

    rows = {}
    for name, run in criterion_runs():
        code, wall, stdout = _timed(run)
        row = {"exit": code, "process_wall_s": wall}
        if code == 0:
            row.update(json.loads(stdout.strip().splitlines()[-1]))
        rows[name] = row
        print(name, row, flush=True)
    for name, run in subcommand_runs():
        code, wall, _ = _timed(run)
        rows[name] = {"exit": code, "process_wall_s": wall}
        print(name, rows[name], flush=True)
    report = {
        "environment": {**environment(), "threads": 1, "seed": REPRO_SEED},
        "runs": rows,
        "scaled_by_workload": SCALED,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "sweep.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
