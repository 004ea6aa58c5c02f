"""The README names only code that exists: every backticked dotted name
whose head is a `roenum` module or a name `roenum` exports resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import roenum

README = Path(__file__).parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULES = {info.name for info in pkgutil.iter_modules(roenum.__path__)}


def roenum_names(text: str) -> list[str]:
    """The backticked dotted names of `text` headed by roenum code, in
    order of first use."""
    names = dict.fromkeys(DOTTED.findall(text))
    return [n for n in names
            if n.split(".")[0] in MODULES or n.split(".")[0] in roenum.__all__]


def test_names_are_found_by_both_kinds_of_head():
    text = ("`parallel.dequeue` and `SelfReductionTrie.descend`, "
            "not `fractions.Fraction`, `x` or `poly % 2`")
    assert roenum_names(text) == ["parallel.dequeue",   # a roenum module
                                  "SelfReductionTrie.descend"]  # an export


@pytest.mark.parametrize("name", roenum_names(README.read_text()))
def test_readme_name_resolves(name):
    head, *rest = name.split(".")
    obj = (importlib.import_module(f"roenum.{head}") if head in MODULES
           else getattr(roenum, head))
    for attr in rest:
        obj = getattr(obj, attr)
