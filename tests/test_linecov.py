"""``tools/linecov.py`` run as a script on a small source tree."""

import subprocess
import sys
from pathlib import Path

LINECOV = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

INIT = '''"""A package docstring."""
from .mod import half


def unused():
    return 1
'''

MOD = '''def half(n):
    """Half of an even n."""
    if n % 2:
        raise ValueError(
            n)
    return n // 2
'''

TEST = '''from shellbound import half


def test_half():
    assert half(4) == 2
'''


def _linecov(root: Path, *pytest_args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINECOV), "--root", str(root), "--", "-q", "-p", "no:cacheprovider",
         *pytest_args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def test_lists_the_statements_no_test_ran(tmp_path):
    package = tmp_path / "src" / "shellbound"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(INIT, encoding="utf-8")
    (package / "mod.py").write_text(MOD, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TEST, encoding="utf-8")
    proc = _linecov(tmp_path, str(tmp_path / "tests"))
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout[proc.stdout.index("__init__.py:"):]
    # the docstrings are no statements, and the raise counts once, by its first line
    assert report.splitlines() == [
        "__init__.py: 1 of 3 statements never ran",
        "      6  return 1",
        "mod.py: 1 of 4 statements never ran",
        "      4  raise ValueError(",
        "total: 2 of 7 statements never ran",
    ]
    # a failing test run gives pytest's exit code
    (tmp_path / "tests" / "test_mod.py").write_text(TEST.replace("== 2", "== 3"), encoding="utf-8")
    assert _linecov(tmp_path, str(tmp_path / "tests")).returncode == 1


def test_a_tree_without_the_package_is_refused(tmp_path):
    proc = _linecov(tmp_path)
    assert proc.returncode != 0
    assert "linecov: no package at" in proc.stderr
