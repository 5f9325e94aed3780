"""Every public name of src/rsmp has a caller.

A static check over src/rsmp and perfbench with the standard-library `ast`:
each public module-level function or class of src/rsmp must be referenced
from src/rsmp or perfbench (a name, an attribute, or a string naming it, as
the tracer's targets do) other than by its own definition or the package's
re-export, or be listed below with the reason it stays.  A public name that
nothing runs is code that only its own tests exercise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rsmp"
CALLERS = [SRC, ROOT / "perfbench"]

# (module, name) -> why it stays without a caller
ALLOWED = {
    ("bench", "best_regular_open_loop"): "the brute-force regular-control baseline the acceptance suite compares with",
    ("container", "read_section"): "reads back the binary files the CLI writes",
    ("control", "constant_control"): "the simplest relaxed control to build by hand",
    ("control", "dirac_embed"): "embeds a point-valued control as a one-hot relaxed control",
    ("control", "pair"): "the pairing of a test function with a relaxed control that defines its topology",
    ("forward", "paths_to_csv_string"): "the CSV writer's text, for a caller that keeps it in memory",
    ("problem", "validate_assumptions"): "the one check of the standing Lipschitz and growth assumptions",
}


def _public_definitions(tree: ast.Module) -> list:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(tree: ast.AST) -> list:
    """Names an AST refers to, by name, attribute or identifier string, with
    each top-level definition's own name left out of its body."""
    found = []
    for stmt in tree.body if isinstance(tree, ast.Module) else [tree]:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                name = node.value
            else:
                continue
            if name != own:
                found.append(name)
    return found


def uncalled() -> list:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in CALLERS
        for path in sorted(folder.glob("*.py"))
    }
    referenced = {name for path, tree in trees.items() if path != SRC / "__init__.py" for name in _references(tree)}
    return [
        (path.stem, name)
        for path, tree in trees.items()
        if path.parent == SRC
        for name in _public_definitions(tree)
        if name not in referenced
    ]


def test_every_public_name_has_a_caller():
    assert [item for item in uncalled() if item not in ALLOWED] == []


def test_allow_list_is_current():
    # an entry that gains a caller, or is gone, must leave the list
    assert set(ALLOWED) <= set(uncalled())


def test_guard_sees_an_uncalled_name():
    tree = ast.parse(
        "import used\n"
        "def used_fn():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Kept:\n    pass\n"
        "TARGETS = [('mod', 'Kept')]\n"
    )
    assert [name for name in _public_definitions(tree) if name not in _references(tree)] == ["used_fn", "recursive"]
