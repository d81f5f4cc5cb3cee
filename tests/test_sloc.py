"""``tools/sloc.py`` on two small source trees."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)


def _tree(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "shellbound"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source, encoding="utf-8")
    return root


SHARED_OLD = '''"""A module docstring
over two lines."""

# a comment
x = 1


def f():
    """One line."""
    return (x,
            2)
'''

SHARED_NEW = '''"""A module docstring."""
x = 1
'''


def test_count_skips_docstrings_comments_and_blanks():
    # x = 1, def f():, and the two lines of the return
    assert sloc.count(SHARED_OLD) == (11, 4)
    assert sloc.count(SHARED_NEW) == (2, 1)


def test_compare_lists_every_module_of_either_tree(tmp_path):
    parent = _tree(tmp_path / "parent", {"shared.py": SHARED_OLD, "gone.py": "a = 1\nb = 2\n"})
    change = _tree(tmp_path / "change", {"shared.py": SHARED_NEW, "new.py": "c = 3\n"})
    assert sloc.compare(parent, change) == [
        ("gone.py", 2, 0, -2),
        ("new.py", 0, 1, 1),
        ("shared.py", 4, 1, -3),
        ("total", 6, 2, -4),
    ]


def test_a_tree_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit, match="no package"):
        sloc.main([str(tmp_path)])


def test_main_prints_both_tables(tmp_path, monkeypatch, capsys):
    parent = _tree(tmp_path / "parent", {"shared.py": SHARED_OLD})
    monkeypatch.setattr(sloc, "ROOT", _tree(tmp_path / "change", {"shared.py": SHARED_NEW}))
    assert sloc.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["module", "physical", "code"], ["shared.py", "2", "1"], ["total", "2", "1"],
    ]
    assert sloc.main([str(parent)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "parent", "this", "change"]
    assert lines[1].split() == ["shared.py", "4", "1", "-3"]
    assert lines[2].split() == ["total", "4", "1", "-3"]
