"""No module of the package imports an underscore name from another of its
modules: what one module reads of another is that module's public API.

Imports at any depth count (cli imports bessel inside a function); dunder
names such as `__version__` are public.  Modules outside the package, such
as the interpreter's `_sha2` and `_sha256`, are not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tmb"


def _private_imports(source):
    """(line, module, name) of each underscore name imported from a package
    module, relative (`from .x import _y`) or absolute (`from tmb.x ...`)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "tmb":
            continue
        found += [(node.lineno, "." * node.level + module, alias.name)
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    assert _private_imports(path.read_text()) == []


def test_check_sees_nested_and_absolute_imports():
    source = ("from __future__ import annotations\n"
              "from . import __version__\n"
              "from .families import FamilySpec, _summarize\n"
              "try:\n"
              "    from _sha2 import sha256 as _sha256\n"
              "except ImportError:\n"
              "    from hashlib import sha256 as _sha256\n"
              "def f():\n"
              "    from tmb.shooting import _newton as newton\n"
              "    return newton\n")
    assert _private_imports(source) == [(3, ".families", "_summarize"),
                                        (9, "tmb.shooting", "_newton")]
