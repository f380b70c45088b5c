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


def _private_imports(path: Path) -> list[str]:
    """`_name`s taken from another package module, by import or as an
    attribute of an imported package module."""
    tree = ast.parse(path.read_text())
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "spin7"):
            for a in node.names:
                if a.name.startswith("_"):
                    found.append(f"{node.module or '.'}.{a.name}")
                elif not node.module or node.module == "spin7":
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_no_module_reaches_into_another_modules_private_names():
    private = {p.name: _private_imports(p) for p in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in private.items() if names} == {}
