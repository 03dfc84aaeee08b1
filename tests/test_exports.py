"""The package's export list matches what `__init__.py` imports."""
import ast
from pathlib import Path

import starclust


def imported_public_names() -> set[str]:
    """Public names bound by the package's own `from .module import ...` lines."""
    tree = ast.parse(Path(starclust.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_every_exported_name_resolves():
    missing = [name for name in starclust.__all__ if not hasattr(starclust, name)]
    assert missing == []
    assert len(set(starclust.__all__)) == len(starclust.__all__)


def test_every_imported_public_name_is_exported():
    names = imported_public_names()
    assert names  # the parse found the import lines
    assert sorted(names - set(starclust.__all__)) == []
