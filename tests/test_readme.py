"""The README's examples stay true: its Python blocks run as written and
every `causalis` command line of its shell blocks parses, so an API or
flag change that breaks them fails here instead of leaving the
documentation wrong."""
import pathlib
import re
import shlex

import pytest

from causalis.cli import build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FENCED = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.M | re.S)
BLOCKS = [body for lang, body in FENCED if lang == "python"]
# continuation lines joined, as the shell would
COMMANDS = [line for lang, body in FENCED if not lang
            for line in body.replace("\\\n", " ").splitlines() if line.startswith("causalis ")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("k", range(len(BLOCKS)))
def test_readme_example_runs(k):
    exec(compile(BLOCKS[k], f"README.md python block {k}", "exec"), {})


def test_readme_command_lines_parse():
    # parsed only, never run: a removed or renamed flag raises SystemExit
    assert {shlex.split(line)[1] for line in COMMANDS} >= {"switch", "validate", "born",
                                                          "ineq", "sep", "demo"}
    parser = build_parser()
    for line in COMMANDS:
        parser.parse_args(shlex.split(line)[1:])
