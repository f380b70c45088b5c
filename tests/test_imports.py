"""Every top-level import of the package is referenced in its module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "spin7"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_every_top_level_import_is_referenced():
    unused = {p.name: _unused_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
