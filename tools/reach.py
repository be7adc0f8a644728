"""List the statements under src/mixlab that no config, subcommand or check reaches.

Usage, from anywhere in a checkout:

    python3 tools/reach.py

One process line-traces (``sys.settrace``, mixlab frames only) three kinds
of run, each writing into a temporary directory:

- every subcommand except repro (the keys of `mixlab.cli._HANDLERS`) on
  every configs/*.cfg, at --threads 1
  (correlate at --format csv+svg);
- ``mixlab repro --threads 1``;
- one pass of each perfbench workload at seed 5 and one thread, with the
  workload's own check of that pass.

Worker processes forked during the runs keep the trace and hand their lines
back when they exit.  A statement counts as reached when a line event fires
on its first line.  The output lists, grouped by file and enclosing
function, first the statements with code that only the perfbench workloads
reach (no subcommand and no check does) and their count, then every
statement that no run reaches and one summary line.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixlab"
PERFBENCH_SEED = 5


class LineTrace:
    """Lines executed in mixlab frames, gathered from this process and its forks."""

    def __init__(self, child_dir: Path):
        self.prefix = str(SRC) + os.sep
        self.lines: set[tuple[str, int]] = set()
        self.child_dir = child_dir

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def start(self) -> None:
        from multiprocessing import util

        # a forked multiprocessing child runs after-fork hooks once its
        # finalizers are cleared, and its finalizers when it exits
        util.register_after_fork(self, lambda t: util.Finalize(None, t._dump, exitpriority=0))
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)

    def _dump(self) -> None:
        text = "".join(f"{name}\t{line}\n" for name, line in self.lines)
        (self.child_dir / f"child-{os.getpid()}.txt").write_text(text)

    def merged(self) -> set[tuple[str, int]]:
        lines = set(self.lines)
        for path in self.child_dir.glob("child-*.txt"):
            for row in path.read_text().splitlines():
                name, line = row.split("\t")
                lines.add((name, int(line)))
        return lines


def code_lines(code) -> set[int]:
    """Lines that carry bytecode in a code object and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> dict[int, str]:
    """First line of every statement with bytecode, mapped to its enclosing function."""
    source = path.read_text()
    with_code = code_lines(compile(source, str(path), "exec"))
    found: dict[int, str] = {}

    def visit(node, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                if child.lineno in with_code:
                    found.setdefault(child.lineno, scope)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def run_cli(out: Path) -> None:
    from mixlab.cli import _HANDLERS, main

    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for cmd in (name for name in _HANDLERS if name != "repro"):
            fmt = ["--format", "csv+svg"] if cmd == "correlate" else []
            main([cmd, "--config", str(cfg), "--out", str(out / cfg.stem), "--threads", "1", *fmt])
    main(["repro", "--threads", "1", "--out", str(out / "repro")])


def run_workloads() -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import NullTracer
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        workload = cls(PERFBENCH_SEED, NullTracer(), 1)
        workload.check(workload.run_pass().outputs)


def listing(found: dict[Path, dict[int, str]], keep) -> int:
    """Print the statements whose (file, line) key passes `keep`, grouped; their count."""
    count = 0
    for path, scopes in found.items():
        source = path.read_text().splitlines()
        by_scope: dict[str, list[int]] = {}
        for line, scope in sorted(scopes.items()):
            if keep((str(path), line)):
                by_scope.setdefault(scope, []).append(line)
        for scope, lines in by_scope.items():
            print(f"{path.relative_to(ROOT)}  {scope}")
            for line in lines:
                print(f"    {line:5d}  {source[line - 1].strip()[:96]}")
            count += len(lines)
    return count


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="reach_") as name:
        tmp = Path(name)
        (tmp / "children").mkdir()
        trace = LineTrace(tmp / "children")
        trace.start()  # before mixlab is imported, so module bodies count too
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                run_cli(tmp / "out")
                by_cli = trace.merged()
                run_workloads()
        finally:
            trace.stop()
        reached = trace.merged()

    found = {path: statements(path) for path in sorted(SRC.glob("*.py"))}
    total = sum(len(scopes) for scopes in found.values())
    only = listing(found, lambda key: key in reached and key not in by_cli)
    print(f"{only} statements under src/mixlab reached only by the perfbench workloads")
    missed = listing(found, lambda key: key not in reached)
    print(f"{missed} of {total} statements under src/mixlab reached by no run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
