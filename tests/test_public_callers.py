"""Every public name of src/rsmp has a caller.

A static check over src/rsmp and perfbench with the standard-library `ast`:
each public module-level function or class of src/rsmp, and each public
method or property of such a class, must be referenced from src/rsmp or
perfbench (a name, an attribute, or a string naming it, as the tracer's
targets do) other than by its own definition or the package's re-export, or
be listed below with the reason it stays.  A method counts as referenced when
an attribute of its name is read anywhere, whatever the object.  A public
name that nothing runs is code that only its own tests exercise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rsmp"
CALLERS = [SRC, ROOT / "perfbench"]

# (module, name) -> why it stays without a caller
ALLOWED = {
    ("bench", "RiccatiSolution.P_at"): "the Riccati matrix P(t) of the LQ adjoint exactness checks (psi = 2 P x)",
    ("bench", "best_regular_open_loop"): "the brute-force regular-control baseline the acceptance suite compares with",
    ("container", "read_section"): "reads back the binary files the CLI writes",
    ("control", "constant_control"): "the simplest relaxed control to build by hand",
    ("control", "dirac_embed"): "embeds a point-valued control as a one-hot relaxed control",
    ("control", "pair"): "the pairing of a test function with a relaxed control that defines its topology",
    ("forward", "NoiseEnsemble.coarsen"): "the same driving paths on a coarser grid, for weak-convergence checks",
}


def _public_definitions(tree: ast.Module) -> list:
    """Public module-level functions and classes, and the public methods and
    properties of those classes as "Class.method"."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    return found


def _references(tree: ast.AST) -> list:
    """Names an AST refers to, by name, attribute or identifier string, with
    each definition's own name left out of its body: a function or method
    that only calls itself has no caller."""
    found = []

    def visit(node, own):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            name = node.value
        else:
            name = None
        if name is not None and name not in own:
            found.append(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def _uncalled(tree: ast.Module, referenced) -> list:
    """The public definitions of tree whose name (a method's own name) is not referenced."""
    return [name for name in _public_definitions(tree) if name.rpartition(".")[2] not in referenced]


def uncalled() -> list:
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for folder in CALLERS
        for path in sorted(folder.glob("*.py"))
    }
    referenced = {name for path, tree in trees.items() if path != SRC / "__init__.py" for name in _references(tree)}
    return [
        (path.stem, name) for path, tree in trees.items() if path.parent == SRC for name in _uncalled(tree, referenced)
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
    assert _uncalled(tree, _references(tree)) == ["used_fn", "recursive"]


def test_guard_sees_an_uncalled_method():
    tree = ast.parse(
        "class Record:\n"
        "    def used(self):\n        return self.size\n"
        "    def unused(self):\n        return self.unused()\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @property\n    def unread(self):\n        return 2\n"
        "    def passed(self):\n        return 3\n"
        "    def _private(self):\n        return 4\n"
        "callback = Record().passed\n"
        "Record().used()\n"
    )
    assert _uncalled(tree, _references(tree)) == ["Record.unused", "Record.unread"]
