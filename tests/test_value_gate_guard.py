"""Every value computed from a user callable passes one gate.

`rsmp.problem` is the only module that calls a coefficient callable, so
every coefficient and terminal-cost value gets its shape check there, and
`errors.require_finite` is the one NaN/Inf check: apart from it, only
`forward.guard_step`, which tells a NaN state from a blow-up, raises
NonFiniteCoefficient.  A static check with the standard-library `ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"
COEFFICIENTS = {"b", "sigma", "ell", "phi", "b_x", "sigma_x", "ell_x", "phi_x", "C", "C_x"}
CALLERS = {"problem"}
RAISERS = {("errors", "require_finite"), ("forward", "guard_step")}


def _calls_a_coefficient(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in COEFFICIENTS


def _raises_non_finite(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
    return name == "NonFiniteCoefficient"


def sites(tree: ast.Module, rule) -> list:
    """(enclosing class and function names, line) of every node the rule matches."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if rule(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def _package_sites(rule) -> list:
    return [
        (path.stem, scope, line)
        for path in sorted(SRC.glob("*.py"))
        for scope, line in sites(ast.parse(path.read_text(encoding="utf-8")), rule)
    ]


def test_only_problem_calls_a_coefficient():
    found = _package_sites(_calls_a_coefficient)
    assert [site for site in found if site[0] not in CALLERS] == []
    assert {site[0] for site in found} == CALLERS


def test_only_the_finite_check_and_the_state_guard_raise_non_finite():
    found = _package_sites(_raises_non_finite)
    assert [site for site in found if site[:2] not in RAISERS] == []
    assert {site[:2] for site in found} == RAISERS


def test_guard_sees_a_coefficient_call_and_a_raise():
    tree = ast.parse(
        "class A:\n    def f(self, p, x):\n        return p.phi(x) + phi(x) + p.jump.C(0, x, 1, 2)\n\n\n"
        "def g(vals):\n    if vals:\n        raise NonFiniteCoefficient('bad')\n"
        "    raise errors.NonFiniteCoefficient\n"
    )
    assert sites(tree, _calls_a_coefficient) == [("A.f", 3), ("A.f", 3)]
    assert sites(tree, _raises_non_finite) == [("g", 8), ("g", 9)]
