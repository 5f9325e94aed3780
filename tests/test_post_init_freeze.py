"""No `__post_init__` in src/rsmp freezes an array itself.

A static check with the standard-library `ast`: records take their numeric
inputs through `errors.frozen_field`, the one place that copies, checks and
freezes them, so a `setflags` call inside any `__post_init__` is a second,
hand-rolled way of doing the same.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"


def setflags_in_post_init(tree: ast.Module) -> list:
    """(class, line) of every `.setflags(...)` call inside a `__post_init__`."""
    out = []
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                out += [
                    (cls.name, node.lineno)
                    for node in ast.walk(item)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"
                ]
    return out


def test_no_post_init_calls_setflags():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := setflags_in_post_init(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_guard_sees_a_setflags_call():
    tree = ast.parse(
        "class A:\n    def __post_init__(self):\n        x = 1\n        self.a.setflags(write=False)\n\n"
        "class B:\n    def build(self):\n        self.b.setflags(write=False)\n"
    )
    assert setflags_in_post_init(tree) == [("A", 4)]
