"""No module of the package or of its tests binds an imported name it never
reads.

No linter runs on the repository, so this is its unused-import check, on the
standard library alone.  Module-level imports count, those inside `try`
and `if` blocks too (cli's SHA-256 fallbacks); `from __future__` does not.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tmb"


def _module_imports(body):
    """(line, bound name) of each import in a module body, descending into
    try, except, else, finally and if blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.Try, ast.If)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_imports(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _unread_imports(source):
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted({(line, name) for line, name in _module_imports(tree.body)
                   if name not in read})


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []


def test_check_sees_try_block_and_unread_imports():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "try:\n"
              "    from _sha2 import sha256 as _sha256\n"
              "except ImportError:\n"
              "    from hashlib import sha256 as _sha256\n"
              "from .nonlinearity import primitive_F  # bound, never read\n"
              "x = math.pi\n")
    assert _unread_imports(source) == [(4, "_sha256"), (6, "_sha256"),
                                       (7, "primitive_F")]
