"""Only `adjoint._cell_sums` sums values per cell.

Every per-cell sum of the backward sweep (Hamiltonian and pairing,
separable and per-atom, recording and ring) adds by one rule: within blocks
of consecutive paths, then block by block.  A weighted `bincount` anywhere
else would bring back a second rule whose rounding grows with the path
count.  An unweighted `bincount` (a cell occupancy) is a count, not a sum,
and stays allowed.  A static check with the standard-library `ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"


def _weighted_bincount(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "bincount" and (len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords))


def weighted_sites(tree: ast.Module) -> list:
    """(enclosing class and function names, line) of every weighted bincount."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if _weighted_bincount(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_cell_sum_rule_bins_weights():
    found = [
        (path.stem, scope)
        for path in sorted(SRC.glob("*.py"))
        for scope, _ in weighted_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("adjoint", "_cell_sums")]


def test_guard_sees_every_weighted_bincount():
    tree = ast.parse(
        "def f(cells, w):\n    return np.bincount(cells, weights=w), np.bincount(cells, minlength=3)\n\n\n"
        "class A:\n    def g(self, cells, w):\n        return bincount(cells, w), numpy.bincount(cells, None, 4)\n"
    )
    assert weighted_sites(tree) == [("f", 2), ("A.g", 7), ("A.g", 7)]
