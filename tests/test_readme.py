"""The README's examples run as written: the library example as a doctest,
and every ``shellbound`` line of the command-line examples, in order."""

import doctest
import re
import shlex
from pathlib import Path

from shellbound.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README text from the heading ``title`` to the next heading of
    the same level."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_library_example_runs():
    test = doctest.DocTestParser().get_doctest(section("Library example"), {}, "README", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    lines = re.findall(r"^    shellbound (.+)$", section("Command line"), flags=re.M)
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)) == 0, line
        capsys.readouterr()
