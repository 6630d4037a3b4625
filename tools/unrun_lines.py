"""Run the test suite under a line tracer and list the lines of src/maskrec it never runs.

Usage, from the repository root, with pytest installed::

    python tools/unrun_lines.py [pytest arguments...]

This is CI's one run of the test suite, in dev mode::

    PYTHONPATH=src python -X dev tools/unrun_lines.py --continue-on-collection-errors --durations=5

so the times that ``--durations`` reports are times under the tracer.

The tracer (``sys.settrace`` and ``threading.settrace``) is installed
before maskrec is imported, and follows only frames whose code lives under
``src/maskrec``; pytest then runs in this process.  A module's executable
lines are the lines of every code object compiled from it
(``co_lines()``).  The tracer does not follow child processes, so every
line must run in this one: a test runs ``cli.py``'s ``sys.exit(main())``
through ``runpy``.

Exits with pytest's status if a test fails, else 1 if any line is
unrun (each is listed as ``path:line: source``), else 0.  Beside pytest it
needs only the standard library: no coverage package.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maskrec"

FILES = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
ran: dict[str, set[int]] = {filename: set() for filename in FILES}


def trace(frame, event, arg):
    """Global tracer: record a call into the package, then follow its lines."""
    filename = frame.f_code.co_filename
    if filename not in FILES:
        return None
    lines = ran[filename]
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """Every line number that some code object compiled from ``path`` runs."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    started = time.perf_counter()
    try:
        status = pytest.main(["-q", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - started

    unrun = []
    total = 0
    for filename, path in FILES.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        unrun += [
            f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
            for line in sorted(lines - ran[filename])
        ]
    for item in unrun:
        print(item)
    print(
        f"{len(unrun)} unrun lines of {total} executable lines in {len(FILES)} modules "
        f"of {PACKAGE.relative_to(ROOT)} ({elapsed:.1f} s under the tracer)"
    )
    if status != 0:
        return int(status)
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
