"""List the statements of the ``shellbound`` package that a test run never
executes.

    python tools/linecov.py [--root DIR] [-- PYTEST_ARG ...]

runs pytest in this process, with ``DIR/src`` (by default this tree's)
first on the import path, under a line tracer installed with
``sys.settrace`` and ``threading.settrace`` that records only lines of
the modules in ``DIR/src/shellbound``.  It then prints, per module, each
statement that never ran, by line number and source text, and the count
of such statements against all of the module's; then the totals.  The
pytest arguments default to ``-q DIR/tests``.

A statement is counted by its first line: every AST statement whose
first line lies outside a docstring (the docstrings of ``tools/sloc.py``'s
``docstring_lines``).  It ran if a line event fired on one of its lines,
the header lines alone for a compound statement (``if``, ``for``,
``def`` and the like), whose body statements count on their own.

Only this process and the threads it starts are traced: a command-line
run that a test starts in a subprocess is not, so what only such runs
execute is listed as never run.  Tracing makes a run about five times
slower than a plain one.

Standard library plus pytest.  The exit code is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

from sloc import docstring_lines

ROOT = Path(__file__).resolve().parents[1]


def statements(source: str) -> dict[int, range]:
    """Each statement's first line, mapped to the lines whose line events
    count for it: all of its lines for a simple statement, the lines
    before its body for a compound one."""
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    spans: dict[int, range] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            spans.setdefault(node.lineno, range(node.lineno, max(last, node.lineno) + 1))
    return spans


def trace_lines(files: set[str], run) -> tuple[object, dict[str, set[int]]]:
    """What ``run()`` returns, and the lines of each of ``files`` (real
    paths) on which a line event fired while it ran."""
    hits: dict[str, set[int]] = {f: set() for f in files}
    # co_filename -> the set of its file's lines, or None for other files
    known: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            known[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = hits.get(os.path.realpath(name))
        return None if known[name] is None else local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def missed(source: str, ran: set[int]) -> tuple[int, list[int]]:
    """The number of statements in ``source``, and the first lines of
    those on none of whose counted lines a line event fired."""
    spans = statements(source)
    return len(spans), [n for n, span in sorted(spans.items()) if ran.isdisjoint(span)]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="List package statements a test run never executes.")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="root of the source tree whose src/shellbound is traced")
    ap.add_argument("pytest_args", nargs="*", help="arguments for pytest, after --")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "shellbound"
    if not package.is_dir():
        raise SystemExit(f"linecov: no package at {package}")
    paths = {os.path.realpath(p): p for p in sorted(package.glob("*.py"))}
    sys.path.insert(0, str(root / "src"))
    import pytest

    code, hits = trace_lines(set(paths), lambda: pytest.main(args.pytest_args
                                                             or ["-q", str(root / "tests")]))
    total = never = 0
    print()
    for real, path in sorted(paths.items(), key=lambda item: item[1].name):
        lines = path.read_text(encoding="utf-8").splitlines()
        count, lost = missed("\n".join(lines), hits[real])
        total, never = total + count, never + len(lost)
        print(f"{path.name}: {len(lost)} of {count} statements never ran")
        for n in lost:
            print(f"  {n:>5}  {lines[n - 1].strip()}")
    print(f"total: {never} of {total} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
