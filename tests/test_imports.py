import ast
from pathlib import Path

import splitkit

SOURCE = Path(splitkit.__file__).parent


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; __future__ features aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_use_every_name_they_import():
    # __init__ imports to re-export, so only the other modules are held to it
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 6
    stale = {
        p.name: found
        for p in modules
        if (found := unused_imports(ast.parse(p.read_text(), str(p))))
    }
    assert stale == {}


def test_unused_imports_finds_a_stale_name():
    tree = ast.parse("import os\nfrom typing import Callable, NamedTuple\nx: NamedTuple = os.sep\n")
    assert unused_imports(tree) == ["Callable (line 2)"]
