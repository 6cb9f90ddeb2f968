"""Which lines of the package a set of tests never runs.

Runs pytest in this process under a `sys.settrace` line tracer and prints,
for each module under `src/`, the executable lines that the given tests
never ran. Standard library only, so it works where `coverage` is not
installed; every traced line costs an interpreter call, so a traced run
takes about three times as long as a plain one.

    python tools/reach.py tests/test_kds.py tests/test_properties.py
    python tools/reach.py --only kds.py --only copem.py tests

Arguments after the options go to pytest as they are. A line counts as
executable when the compiled module attributes an instruction to it, so a
module-level statement counts as run once the module is imported, and
lines that only a subprocess runs (`__main__.py`, CLI tests that start a
new interpreter) read as never run. The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set:
    """Every line that some instruction of the compiled module maps to."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    out = []
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def trace(pytest_args: list) -> tuple:
    """(pytest's exit status, {file name: lines run}) for files under src/."""
    prefix = str(SRC) + "/"
    hits: dict = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        seen = hits.setdefault(name, set())
        seen.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line

        return on_line

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="report only files whose path ends with NAME (repeatable)")
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER,
                        help="test files and pytest options")
    args = parser.parse_args(argv)
    status, hits = trace(args.pytest_args)
    print()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if args.only and not any(rel.endswith(name) for name in args.only):
            continue
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        if missed:
            print(f"{rel}: {len(missed)} of {len(lines)} lines never run: {ranges(missed)}")
        else:
            print(f"{rel}: all {len(lines)} lines run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
