"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from younglat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    section = README[README.index("\n" + heading + "\n"):]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)
    return match.group(1)


def test_library_example_runs(capsys):
    exec(compile(fenced_block("## Library", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out == "{0: 1, 2: 1, 3: 1, 4: 1, 6: 1}\n"


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # run in order, so later lines read the files earlier ones wrote
    monkeypatch.chdir(tmp_path)
    commands = []
    for line in fenced_block("## Command line", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if ">" in argv:  # stdout redirection, which main() does not see
            argv = argv[:argv.index(">")]
        if argv:
            commands.append(argv)
    assert len(commands) == 9
    for program, *argv in commands:
        assert program == "younglat"
        assert main(argv) == 0, argv
        capsys.readouterr()
