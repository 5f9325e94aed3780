"""No code in src/rsmp tests a jump field for None.

A diffusion is the jump diffusion with J = 0 marks, so `Problem.jump` is
always a JumpSpec and `NoiseEnsemble.jump_counts` always an (M, N, J) array.
A static check with the standard-library `ast`: no `is None` or `is not None`
comparison in src/rsmp has a `.jump` or `.jump_counts` attribute as an
operand, except in `Problem.__post_init__`, which turns jump=None into the
spec without marks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"
FIELDS = {"jump", "jump_counts"}
ALLOWED = {("problem", "Problem.__post_init__")}


def _tests_a_jump_field_for_none(node: ast.AST) -> bool:
    if not isinstance(node, ast.Compare) or not any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
        return False
    operands = [node.left, *node.comparators]
    return any(isinstance(o, ast.Constant) and o.value is None for o in operands) and any(
        isinstance(o, ast.Attribute) and o.attr in FIELDS for o in operands
    )


def none_tests(tree: ast.Module) -> list:
    """(enclosing class and function names, line) of every None test of a jump field."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if _tests_a_jump_field_for_none(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def _sites() -> list:
    return [
        (path.stem, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in none_tests(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_no_none_test_of_a_jump_field():
    assert [site for site in _sites() if site[:2] not in ALLOWED] == []


def test_the_allowed_site_still_normalizes():
    assert {site[:2] for site in _sites()} == ALLOWED


def test_guard_sees_a_none_test():
    tree = ast.parse(
        "class A:\n    def f(self, p, noise):\n        if p.jump is not None and noise.jump_counts is None:\n"
        "            return p.phi is None\n\n\ndef g(p):\n    return None is p.jump or p.jump == None\n"
    )
    assert none_tests(tree) == [("A.f", 3), ("A.f", 3), ("g", 8)]
