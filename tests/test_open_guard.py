"""Only `rsmp.container` opens a file.

Every file argument of the package is a path (`str`, `bytes` or
`os.PathLike`) or an open file object, and `container._opened` is the one
place that turns a path into a file: the CSV and binary artifact functions
and the CLI's config, control and artifact files all go through it.  A
static check with the standard-library `ast`: the builtin `open`, or any
`.open` method (`io.open`, `Path.open`), is called in `_opened` alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"


def _opens(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute) and func.attr == "open"


def open_sites(tree: ast.Module) -> list:
    """(enclosing class and function names, line) of every call that opens a file."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if _opens(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_container_opener_opens_a_file():
    found = [
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in open_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("container", "_opened")]


def test_guard_sees_every_way_to_open():
    tree = ast.parse(
        "def f(path):\n    with open(path) as fh:\n        return fh.read()\n\n\n"
        "class A:\n    def g(self, path):\n        return io.open(path), path.open('w'), opened(path)\n"
    )
    assert open_sites(tree) == [("f", 2), ("A.g", 8), ("A.g", 8)]
