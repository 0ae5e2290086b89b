"""The README's examples run as shown: the library quick start prints the
values in its comments, and each ``cliffgate`` example that needs no input
file prints every record line the README lists under it."""

import shlex
from pathlib import Path

import pytest

from cliffgate.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading):
    """The first fenced code block after a section heading."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def cli_examples():
    """(argv, shown record lines) for each example without an input file."""
    examples = []
    for chunk in fenced_block("## Command line").strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        argv = shlex.split(command, comments=True)[1:]
        shown = [line.strip() for line in shown if line.strip() != "..."]
        if "-i" not in argv:
            examples.append(pytest.param(argv, shown, id=argv[0]))
    return examples


def test_quick_start(capsys):
    code = fenced_block("## Library quick start")
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    comments = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert comments[:-1] == ["i*2^1*e[0,1,2,3]", "16 True", "0.0", "2 (4, 4)"]
    assert printed[:-1] == comments[:-1]
    # the last comment reads "~1e-16: the conjugation is exact"
    assert len(printed) == len(comments) and abs(float(printed[-1])) < 1e-15


EXAMPLES = cli_examples()


def test_every_subcommand_but_synth_has_an_example():
    assert [example.id for example in EXAMPLES] == [
        "closure", "certify", "verify-rep", "gateset", "power"
    ]


@pytest.mark.parametrize("argv, shown", EXAMPLES)
def test_command_line_example(capsys, argv, shown):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert shown and all(line in out for line in shown), (shown, out)
