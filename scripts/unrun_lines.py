#!/usr/bin/env python3
"""Print every function line of src/optigon that the tier-1 suite does not run.

    python scripts/unrun_lines.py [PYTEST_ARGS ...]

Runs pytest on tests/ (or on PYTEST_ARGS) in this process under a
sys.settrace tracer that records the lines run in src/optigon. A function
line is a line of any code object nested in a module's code: function and
class bodies, lambdas and comprehensions, but not module-level statements.
Tests that run optigon in a subprocess or a pool worker are not seen.
Prints `path:line: source` for each unrun line, then the count. Exits
with pytest's status if the suite failed, else 1 if any function line went
unrun, else 0. Tracing makes the suite run several times slower.
"""

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "optigon"


def function_lines(path: Path) -> set[int]:
    """The lines of every code object nested in the module's code."""
    def nested(code):
        return [c for c in code.co_consts if isinstance(c, types.CodeType)]

    stack = nested(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        stack.extend(nested(code))
    return lines


class LineTracer:
    """Records (file, line) for the frames of files under SRC."""

    def __init__(self):
        self.ran = set()
        self._ours = {}  # co_filename -> resolved path under SRC, or None

    def _path(self, filename: str) -> Path | None:
        if filename not in self._ours:
            path = Path(filename).resolve()
            self._ours[filename] = path if SRC in path.parents else None
        return self._ours[filename]

    def __call__(self, frame, event, arg):
        # the global tracer sees each call; the lines of ours go to _line
        path = self._path(frame.f_code.co_filename)
        if path is None:
            return None
        self.ran.add((path, frame.f_lineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.ran.add((self._path(frame.f_code.co_filename), frame.f_lineno))
        return self._line


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    tracer = LineTracer()
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = function_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (path, line) not in tracer.ran:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} function lines in src/optigon not run")
    return int(status) or int(unrun > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
