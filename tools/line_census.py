"""Line census: which statements of ``src/rwtree`` no test executes.

Runs the test suite in this process under a ``sys.settrace`` tracer and
prints, per module, each statement of the package that never ran, with its
line number and text.  Only the standard library and pytest are used, so it
works where ``coverage`` is not installed.

    python tools/line_census.py [pytest arguments]

With no arguments it runs the whole suite as tier-1 does.  A statement is a
line that starts an ``ast`` statement and has bytecode of its own, so
function docstrings, ``else:`` lines and decorator-only lines are never
reported.  The tracer follows only frames of package code, so the suite
runs two to three times slower than without it.

When a test reaches the recursion limit, the tracer's own call raises
RecursionError and the interpreter switches tracing off.  So the census
arms its tracer again around each test's setup, call and teardown; armed
only once, it missed 396 statements of the suite instead of 38.  The lines
that such a test runs after the error, and code run in a subprocess, are
still not seen.  Hypothesis traces its examples only when no tracer is set,
so it leaves the census's tracer alone.
"""
from __future__ import annotations

import ast
import os
import sys
from pathlib import Path
from types import CodeType
from typing import Callable, Optional

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwtree"


class Census:
    """A pytest plugin recording the package lines that run."""

    def __init__(self, package: Path):
        self.prefix = str(package) + os.sep
        self.hit: dict[str, set[int]] = {}  # file -> the lines that ran
        self.local: dict[str, Optional[Callable]] = {}  # file -> its tracer

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        local = self.local.get(filename, self)
        if local is self:
            local = self.local[filename] = self._tracer(filename)
        return local and local(frame, event, arg)

    def _tracer(self, filename: str):
        """The line tracer of one package file, or None for other files.
        There is one per file, not one per frame: a tracer returns itself,
        so each would be a reference cycle, and the suite's cycle-collector
        test would count the ones of finished frames."""
        if not filename.startswith(self.prefix):
            return None
        add = self.hit.setdefault(filename, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def arm(self) -> None:
        sys.settrace(self._global)

    def pytest_configure(self, config) -> None:
        self.arm()  # before collection imports the package

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_setup(self, item):
        self.arm()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.arm()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_teardown(self, item):
        self.arm()
        yield


def _code_lines(code: CodeType) -> set[int]:
    """The lines that own bytecode in ``code`` and every code object in it."""
    out: set[int] = set()
    todo = [code]
    while todo:
        c = todo.pop()
        out.update(line for _, _, line in c.co_lines() if line is not None)
        todo.extend(k for k in c.co_consts if isinstance(k, CodeType))
    return out


def statements(path: Path) -> set[int]:
    """The first lines of the statements of ``path`` that own bytecode."""
    source = path.read_text(encoding="utf-8")
    starts = {n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt)}
    return starts & _code_lines(compile(source, str(path), "exec"))


def report(hit: dict[str, set[int]], package: Path) -> str:
    out = []
    total = missed = 0
    for path in sorted(package.glob("*.py")):
        stmts = statements(path)
        never = sorted(stmts - hit.get(str(path), set()))
        total += len(stmts)
        missed += len(never)
        out.append(f"{path.name}: {len(never)} of {len(stmts)} statements never ran")
        text = path.read_text(encoding="utf-8").splitlines()
        out += [f"  {path.name}:{n}: {text[n - 1].strip()}" for n in never]
    out.append(f"total: {missed} of {total} statements never ran")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    census = Census(PACKAGE)
    args = argv or ["-q", "--continue-on-collection-errors"]
    try:
        code = pytest.main(["-p", "no:cacheprovider", *args], plugins=[census])
    finally:
        sys.settrace(None)
    print(report(census.hit, PACKAGE))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
