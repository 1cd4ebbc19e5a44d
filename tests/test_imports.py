from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


def test_every_import_is_used():
    # the package's __init__ imports names only to re-export them
    package = sorted((ROOT / "src" / "pmcover").glob("*.py"))
    modules = [p for p in package if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    assert len(modules) > 15
    unused = [line for path in modules for line in _unused_imports(path)]
    assert unused == []


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_package_does_not_import_fractions():
    # coefficients are doubled ints end to end; a rational type in the
    # package would bring back a second representation
    package = sorted((ROOT / "src" / "pmcover").glob("*.py"))
    assert len(package) > 5
    offenders = [
        str(path.relative_to(ROOT)) for path in package if "fractions" in _imported_modules(path)
    ]
    assert offenders == []


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "pmcover")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_package_modules_import_no_private_names_from_each_other():
    # a module's underscore names are its own; another module that needs one
    # needs it public, or not at all
    package = sorted((ROOT / "src" / "pmcover").glob("*.py"))
    assert len(package) > 5
    assert [line for path in package for line in _private_imports(path)] == []
