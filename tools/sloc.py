"""Count source lines per module of the ``shellbound`` package.

    python tools/sloc.py [PARENT_DIR]

prints, for every module under ``src/shellbound``, its physical lines and
its code lines, then the totals.  Given ``PARENT_DIR``, the root of
another source tree of the package (such as a checkout of the parent
commit, as ``tools/pairs.py`` takes), it prints instead each module's
code lines there, here, and the difference, then the totals; a module
missing from one tree counts 0 there.  A code line holds at least one
token that is neither a comment nor part of a docstring, so blank lines,
comment lines and docstring lines are left out.  A docstring is a string
literal standing as the first statement of a module, class or function.

Run from anywhere.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that carry no code of their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Physical lines and code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(source.splitlines()), len(code)


def modules(root: Path) -> dict[str, tuple[int, int]]:
    """Physical and code lines of each module of the package under ``root``."""
    package = root / "src" / "shellbound"
    if not package.is_dir():
        raise SystemExit(f"sloc: no package at {package}")
    return {path.name: count(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def with_total(rows: list[tuple]) -> list[tuple]:
    """``rows`` of a name and numbers, then a ``total`` row of their sums."""
    return rows + [("total", *(sum(col) for col in zip(*(r[1:] for r in rows))))]


def compare(parent: Path, tree: Path) -> list[tuple[str, int, int, int]]:
    """Per module of either tree: its code lines in ``parent``, in
    ``tree``, and the difference; then the totals."""
    before, after = modules(parent), modules(tree)
    rows = []
    for name in sorted(before.keys() | after.keys()):
        old, new = before.get(name, (0, 0))[1], after.get(name, (0, 0))[1]
        rows.append((name, old, new, new - old))
    return with_total(rows)


def table(header: tuple[str, ...], rows: list[tuple]) -> str:
    width = max(len(r[0]) for r in [header, *rows])
    return "\n".join(
        f"{r[0]:<{width}}" + "".join(f"  {v:>8}" for v in r[1:]) for r in [header, *rows]
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Count source lines per module.")
    ap.add_argument("parent", nargs="?", type=Path,
                    help="root of a source tree to compare code lines against")
    args = ap.parse_args(argv)
    if args.parent is None:
        rows = with_total([(name, *lines) for name, lines in modules(ROOT).items()])
        print(table(("module", "physical", "code"), rows))
    else:
        print(table(("module", "parent", "this", "change"), compare(args.parent, ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
