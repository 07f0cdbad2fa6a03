"""Lines of the package that no tier-1 test runs.

    python3 tools/line_trace.py [pytest arguments]

Run from the root of a checkout.  The tier-1 suite (tests/, or what the
pytest arguments name) runs in this process under a `sys.settrace` hook,
which records every line executed in a module of src/wrightasym/; the
standard library is all it needs.  The executable lines of a module are
the line starts of its compiled code objects (`dis.findlinestarts`), so a
statement that spans several lines counts each line its bytecode starts
on.  For every module this prints the executable lines that no test ran,
as `path:line: source`, then one count per module and the total.  Code
run in a subprocess (the tests that start `python -m wrightasym.cli`)
is not traced.  The exit code is pytest's.
"""

from __future__ import annotations

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wrightasym"


def _executable(path: Path) -> set[int]:
    """Line numbers on which some bytecode of the module starts."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(n for _, n in dis.findlinestarts(code) if n)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    ran: dict[str, set[int]] = {str(p): set() for p in modules}

    def tracer(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    counts = []
    for path in modules:
        source = path.read_text().splitlines()
        missed = sorted(_executable(path) - ran[str(path)])
        for n in missed:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
        counts.append((path.name, len(missed)))
    print()
    for name, n in counts:
        print(f"{name:<16} {n:4d} lines no test ran")
    print(f"{'total':<16} {sum(n for _, n in counts):4d}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
