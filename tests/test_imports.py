"""Every imported name is read.

No linter is part of the test run, so this scan stands in for
pyflakes' F401: each module of the package and of the tests is parsed
with ``ast``, and a name bound by an import and never read is an
error.  A name listed in the module's ``__all__`` is a re-export, and
an import on a line marked ``# noqa: F401`` is kept for another module
that looks the name up on this one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "avlprange").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _unread_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read, except
    those in ``__all__`` and those imported on a ``# noqa: F401`` line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


def test_the_scan_finds_an_unread_import():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from math import pi  # noqa: F401\n"
        "from math import tau\n"
        "__all__ = ['tau']\n"
        "print(dumps, os.sep)\n"
    )
    assert _unread_imports(source) == ["loads (line 3)", "osp (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert _unread_imports(path.read_text()) == []
