"""Line census: the executable lines of ``src/bcounter`` that a test run
never reaches.

Runs pytest in this process with the given arguments under a
``sys.settrace`` line tracer (``coverage`` is not needed), then prints, per
file, the executable lines that never ran and a total. A line is executable
when some code object compiled from the file maps an instruction to it.
Pytest's own exit status is returned.

    python tests/line_census.py -q -p no:cacheprovider --deselect \\
        tests/test_acceptance.py::test_03_model_check_verified_and_mutant_caught

Code that runs only in other processes or threads is not seen. Once every
line of a code object has run, its later frames are not traced; a hot
function with a line that never runs is traced throughout, so a census of
tier-1 without its three slowest acceptance tests takes about ten times as
long as the plain run.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bcounter"


def executable_lines(path: Path) -> set[int]:
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(_lines(code))
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _lines(code: types.CodeType) -> set[int]:
    # a module's code starts at line 0, which is no line of the source
    return {line for _, _, line in code.co_lines() if line}


def census(args: list[str]) -> tuple[int, dict[str, tuple[int, set[int]]]]:
    """Run pytest with ``args``; returns its exit status and, per file of
    the package, its number of executable lines and those that never ran."""
    prefix = str(PACKAGE) + "/"
    files = {str(p): executable_lines(p) for p in sorted(PACKAGE.rglob("*.py"))}
    unseen = {name: set(lines) for name, lines in files.items()}
    # id(code) -> (code, its lines not yet run, none outside the package);
    # holding the code keeps its id
    remaining: dict[int, tuple[types.CodeType, set[int]]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        entry = remaining.get(id(code))
        if entry is None:
            lines = _lines(code) if code.co_filename.startswith(prefix) else set()
            entry = remaining[id(code)] = code, lines
        left = entry[1]
        if not left:
            return None
        missing = unseen[code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                left.discard(frame.f_lineno)
                missing.discard(frame.f_lineno)
            return on_line

        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, {name: (len(files[name]), unseen[name]) for name in files}


def main(args: list[str]) -> int:
    status, files = census(args)
    total = never = 0
    for name, (n, lines) in files.items():
        total += n
        never += len(lines)
        if lines:
            rel = Path(name).relative_to(ROOT)
            print(f"{rel}: {len(lines)} of {n} never ran: {_ranges(sorted(lines))}")
    print(f"src/bcounter: {never} of {total} executable lines never ran")
    return status


def _ranges(lines: list[int]) -> str:
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
