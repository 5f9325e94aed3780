"""A feedback step is resolved once, by one resolver.

`CellPartition.assign` is called in two places only: in `forward.simulate`,
which assigns each relaxed feedback step's cells one time and records them
in the ensemble it returns, and in `control._resolve`, which serves
`RelaxedControl.weights_at`, `RegularControl.values_at` and `pair`.  Every
sweep along an ensemble reads the recorded cells (`forward._step_weights`);
an `.assign(` anywhere else would assign the same cells a second time.  A
static check with the standard-library `ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"


def assign_sites(tree: ast.Module) -> list:
    """(enclosing class and function names, line) of every `<obj>.assign(...)` call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "assign":
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_simulate_and_the_resolver_assign_cells():
    found = sorted(
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in assign_sites(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [("control", "_resolve"), ("forward", "simulate")]


def test_guard_sees_every_assign_call():
    tree = ast.parse(
        "def f(part, x):\n    return part.assign(x)\n\n\n"
        "class A:\n    def g(self, x):\n        return self.feedback.assign(x), assign(x)\n"
    )
    assert assign_sites(tree) == [("f", 2), ("A.g", 7)]
