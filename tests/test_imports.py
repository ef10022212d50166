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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level private names a module defines (functions, classes
    and assigned names with one leading underscore), with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def names_read(tree: ast.Module) -> set[str]:
    """Every name a module loads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def orphaned_private_names(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Per module, the private names it defines that no module reads."""
    read = set().union(*map(names_read, trees.values()))
    orphans = {}
    for name, tree in trees.items():
        found = sorted(
            f"{n} (line {line})" for n, line in private_definitions(tree).items() if n not in read
        )
        if found:
            orphans[name] = found
    return orphans


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


def test_every_private_name_is_read_somewhere():
    # a helper that a refactor leaves with no caller shows up here
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SOURCE.glob("*.py"))}
    assert len(trees) >= 7
    assert orphaned_private_names(trees) == {}


def test_orphaned_private_names_finds_an_unread_helper():
    a = ast.parse("def _used():\n    pass\n\ndef _orphan():\n    pass\n_LIMIT: int = 3\n")
    b = ast.parse("from a import _used\nx = _used()\n_y = x\nprint(_y)\n")
    assert orphaned_private_names({"a": a, "b": b}) == {"a": ["_LIMIT (line 6)", "_orphan (line 4)"]}


def record_private_fields(tree: ast.Module) -> set[str]:
    """The underscore attributes the class ``_Facts`` assigns in its body."""
    facts = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Facts")
    return {
        t.id
        for node in facts.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.startswith("_") and not t.id.startswith("__")
    }


def test_only_recognition_reads_the_records_private_fields():
    # the record's memos are laid out by recognition alone; every other
    # module reads the record through its public facts and methods
    fields = record_private_fields(ast.parse((SOURCE / "recognition.py").read_text()))
    assert fields == {"_contractions", "_rechecks", "_found"}
    readers = {
        f"{p.name}:{node.lineno} {node.attr}"
        for p in sorted(SOURCE.glob("*.py"))
        if p.name != "recognition.py"
        for node in ast.walk(ast.parse(p.read_text(), str(p)))
        if isinstance(node, ast.Attribute) and node.attr in fields
    }
    assert readers == set()


WITNESS_LABELS = {"c4", "2k2", "nonsplit", "unbalanced"}


def label_tables(tree: ast.Module) -> set[str]:
    """The module-level names bound to a dict literal with a witness label
    among its keys."""
    tables = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value in WITNESS_LABELS for k in value.keys
        ):
            tables.update(t.id for t in targets if isinstance(t, ast.Name))
    return tables


def test_label_tables_finds_a_parallel_table():
    tree = ast.parse('_A = {"c4": 1}\n_B: dict = {"2k2": 2, "x": 3}\n_C = {"H2": "W4"}\n')
    assert label_tables(tree) == {"_A", "_B"}


def test_each_witness_label_has_one_entry():
    # the paper's four contraction witnesses are each defined once, in
    # recognition._LABELS: the verify rows read their hypotheses there,
    # classify reports the labels in its order, and no other table of
    # recognition is keyed by them
    from splitkit import classify, enumerate_all
    from splitkit.harness import CHECKERS
    from splitkit.recognition import _LABELS

    assert list(_LABELS) == ["c4", "2k2", "nonsplit", "unbalanced"]
    for theorem, label in (("LEMMA1", "c4"), ("LEMMA2", "2k2"), ("THM_UNBALANCED", "unbalanced")):
        assert CHECKERS[theorem].hypothesis is _LABELS[label].applies, theorem
    several = 0
    for n in range(1, 7):
        for g in enumerate_all(n):
            labels = [label for label, _ in classify(g).witnesses]
            assert labels == [label for label in _LABELS if label in labels], g
            several += len(labels) >= 2
    assert several
    tree = ast.parse((SOURCE / "recognition.py").read_text())
    assert label_tables(tree) == {"_LABELS"}
