"""Regenerate every artifact and check it against the committed tree.

Usage, from anywhere in a checkout:

    python3 tools/artifact_digests.py

Each subcommand except repro (the keys of `mixlab.cli._HANDLERS`) runs on
each configs/*.cfg in a fresh process, writing into a temporary directory
(correlate at --format csv+svg).  Every file committed under out/<config>/
is compared byte for byte with its regenerated copy.  Then `mixlab repro
--threads 1` runs once, and one untraced pass of each perfbench workload runs
at seed 5 with one worker, as `tools/reach.py` runs it.  One sha256 line is
printed per regenerated file and per subcommand's standard output (with the
temporary directory cut out), and one per workload pass (the digest the
benchmark compares across passes, with the pass's check verdict), so two
checkouts can be compared line by line.  Exits 1 if any committed file is
missing or differs, or a workload pass fails its own check.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from mixlab.cli import _HANDLERS  # noqa: E402

COMMANDS = [name for name in _HANDLERS if name != "repro"]
PERFBENCH_SEED = 5


def mixlab(args: list[str], tmp: Path) -> tuple[int, bytes]:
    """Run one mixlab command from the repo root; its exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "mixlab.cli", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    return run.returncode, run.stdout.replace(str(tmp).encode(), b"<tmp>")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def files_under(top: Path) -> list[Path]:
    return sorted(p for p in top.rglob("*") if p.is_file())


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="artifact_digests_") as name:
        tmp = Path(name)
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            out = tmp / cfg.stem
            for cmd in COMMANDS:
                fmt = ["--format", "csv+svg"] if cmd == "correlate" else []
                args = [cmd, "--config", f"configs/{cfg.name}", "--out", str(out), "--threads", "1"]
                code, stdout = mixlab(args + fmt, tmp)
                print(f"{digest(stdout)}  {cfg.stem}/{cmd}.stdout (exit {code})")
            for path in files_under(out):
                print(f"{digest(path.read_bytes())}  {path.relative_to(tmp)}")
            for committed in files_under(ROOT / "out" / cfg.stem):
                fresh = out / committed.relative_to(ROOT / "out" / cfg.stem)
                if not fresh.is_file():
                    print(f"MISSING {committed.relative_to(ROOT)}")
                    failures += 1
                elif fresh.read_bytes() != committed.read_bytes():
                    print(f"DIFFERS {committed.relative_to(ROOT)}")
                    failures += 1
                else:
                    print(f"same    {committed.relative_to(ROOT)}")

        repro = tmp / "repro"
        code, _ = mixlab(["repro", "--threads", "1", "--out", str(repro)], tmp)
        print(f"repro exit {code}")
        for path in files_under(repro):
            print(f"{digest(path.read_bytes())}  {path.relative_to(tmp)}")
    failures += perfbench_passes()
    print(f"{failures} committed file(s) missing or different, or workload check(s) failed")
    return 1 if failures else 0


def perfbench_passes() -> int:
    """Print each perfbench workload's pass digest; the number of failed checks."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import NullTracer
    from workloads import WORKLOADS

    failed = 0
    for name, cls in WORKLOADS.items():
        workload = cls(PERFBENCH_SEED, NullTracer(), 1)
        checks, pass_digest = workload.check(workload.run_pass().outputs)
        bad = [c.name for c in checks if not c.passed]
        verdict = f"{len(bad)} of {len(checks)} checks failed: {', '.join(bad)}" if bad else "checks pass"
        print(f"{pass_digest}  perfbench/{name} ({verdict})")
        failed += len(bad)
    return failed


if __name__ == "__main__":
    sys.exit(main())
