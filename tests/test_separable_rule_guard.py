"""A `Separable`'s parts have one reader.

Only `problem.py` calls the state or control part of a `Separable`, in
`Separable.__call__`, `_state_part` and `_control_table`, and only two
functions decide by the type of a coefficient: `_averaged`, the one
averaging rule per coefficient, and `cell_hamiltonians`, whose values (a
state part for a `Separable`, which keeps its table out) the one pairing
rule `_hamiltonian_rows` pairs; every other module sees a coefficient as a
callable.  A second reader would bring back a rule of its own.  `_averaged`
takes no problem, so no problem-level declaration can route an average.
No function sums a weight row: a control's rows have total mass 1 and a
direction's 0, which every caller states (`averaged_coefficients`' mass)
rather than computes, so a row sum (`np.einsum("qk->q", w)`,
`w @ np.ones(K)`) or a `_row_sums` would bring back a value that differs
from the stated one by rounding.  A static check with the standard-library
`ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"
PARTS = ("state", "control")


def part_sites(tree: ast.Module) -> list:
    """(what, enclosing class and function names) of every call of a part,
    `<obj>.state(...)` or `<obj>.control(...)`, and of every
    `isinstance(..., Separable)`, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Attribute) and func.attr in PARTS:
                    found.append((func.attr, ".".join(inner)))
                elif getattr(func, "id", None) == "isinstance" and "Separable" in ast.unparse(child.args[1]):
                    found.append(("isinstance", ".".join(inner)))
            visit(child, inner)

    visit(tree, ())
    return found


def functions(tree: ast.Module) -> dict:
    return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}


def _called(node: ast.AST) -> str | None:
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def row_sums(tree: ast.Module) -> list:
    """(line, source) of every weight-row sum, in line order: an einsum of
    one operand that sums out an index, or a product with np.ones; and every
    definition, import, name or attribute _row_sums."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _called(node) == "einsum" and node.args:
            spec = node.args[0]
            if isinstance(spec, ast.Constant) and isinstance(spec.value, str) and "->" in spec.value:
                inputs, output = (set(side) - {"."} for side in spec.value.replace(" ", "").split("->"))
                if "," not in inputs and len(output) < len(inputs):
                    found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if any(isinstance(side, ast.Call) and _called(side) == "ones" for side in (node.left, node.right)):
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias)):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "_row_sums":
                found.append((node.lineno, name))
    return sorted(found)


def test_no_function_sums_a_weight_row():
    for path in sorted(SRC.glob("*.py")):
        assert row_sums(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_guard_sees_every_row_sum():
    tree = ast.parse(
        "from .problem import _row_sums\n\n\n"
        "def _row_sums(w):\n    return np.einsum('qk->q', w), w @ np.ones(len(w)), np.einsum('k->', w)\n\n\n"
        "def f(w, vals):\n    return np.einsum('qk,kq->q', w, vals), np.einsum('...k->...k', w), problem._row_sums(w)\n"
        "\n\ndef g(w):\n    return np.einsum('...k->...', w)\n"
    )
    assert [line for line, _ in row_sums(tree)] == [1, 4, 5, 5, 5, 9, 13]


def test_only_problem_reads_the_parts():
    found = [(path.stem, *site) for path in sorted(SRC.glob("*.py"))
             for site in part_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sorted(found) == sorted([
        ("problem", "state", "Separable.__call__"),
        ("problem", "control", "Separable.__call__"),
        ("problem", "state", "_state_part"),
        ("problem", "control", "_control_table"),
        ("problem", "isinstance", "cell_hamiltonians.values"),
        ("problem", "isinstance", "_averaged"),
    ])


def test_the_per_atom_average_takes_no_problem():
    defined = functions(ast.parse((SRC / "problem.py").read_text(encoding="utf-8")))
    args = defined["_averaged"].args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert "p" not in names
    assert not any(a.annotation is not None and "Problem" in ast.unparse(a.annotation) for a in args.args)
    assert "_separable_average" not in defined


def test_guard_sees_every_part_read():
    tree = ast.parse(
        "def f(g, t, x):\n    return g.state(t, x), isinstance(g, rsmp.Separable)\n\n\n"
        "class A:\n    def h(self, g, t, xi):\n        return g.control(t, xi), isinstance(g, (int, Separable))\n"
    )
    assert part_sites(tree) == [
        ("state", "f"),
        ("isinstance", "f"),
        ("control", "A.h"),
        ("isinstance", "A.h"),
    ]
