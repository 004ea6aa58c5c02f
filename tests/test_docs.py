"""The README names only code that exists: every backticked dotted name
whose head is a `roenum` module or a name `roenum` exports resolves, and
every command of its CLI block parses."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import roenum
from roenum import cli

README = Path(__file__).parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_EXTENSIONS = {"py", "md", "json", "toml", "txt", "csv"}
MODULES = {info.name for info in pkgutil.iter_modules(roenum.__path__)}
CLI_BLOCK = re.compile(r"^## CLI\n.*?^```sh\n(.*?)^```", re.M | re.S)


def roenum_names(text: str) -> list[str]:
    """The backticked dotted names of `text` headed by roenum code, in
    order of first use; a file name such as `trie.py` is not one."""
    names = dict.fromkeys(DOTTED.findall(text))
    return [n for n in names
            if n.rsplit(".", 1)[1] not in FILE_EXTENSIONS
            and (n.split(".")[0] in MODULES
                 or n.split(".")[0] in roenum.__all__)]


def test_names_are_found_by_both_kinds_of_head():
    text = ("`parallel.dequeue` and `SelfReductionTrie.descend`, "
            "not `fractions.Fraction`, `x`, `poly % 2` or the file `trie.py`")
    assert roenum_names(text) == ["parallel.dequeue",   # a roenum module
                                  "SelfReductionTrie.descend"]  # an export


@pytest.mark.parametrize("name", roenum_names(README.read_text()))
def test_readme_name_resolves(name):
    head, *rest = name.split(".")
    obj = (importlib.import_module(f"roenum.{head}") if head in MODULES
           else getattr(roenum, head))
    for attr in rest:
        obj = getattr(obj, attr)


def cli_commands(text: str) -> list[list[str]]:
    """The argument lists of the `roenum ...` lines in the code block of
    the CLI section, each without its trailing `#` comment."""
    block = CLI_BLOCK.search(text).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("roenum ")]


def test_cli_commands_are_found():
    text = ("## CLI\n\n```sh\nroenum gen --n 3   # note\nls\n```\n"
            "```sh\nroenum verify\n```\n")
    assert cli_commands(text) == [["gen", "--n", "3"]]


@pytest.mark.parametrize("argv", cli_commands(README.read_text()),
                         ids=lambda argv: " ".join(argv))
def test_readme_cli_command_parses(argv):
    cli.build_parser().parse_args(argv)
