"""Every parameter of the public API is read.

A static check over src/rsmp with the standard-library `ast`: for each
module-level public function and each public method of a module-level
class, every parameter (apart from a method's self or cls) must be loaded
somewhere in the function body.  A parameter that nothing reads is an option
that changes no result.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rsmp"

# (module, function, parameter) -> why it stays unread
ALLOWED = {}


def _params(fn: ast.FunctionDef, is_method: bool) -> list:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return names[1:] if is_method and not static else names


def _loaded(fn: ast.FunctionDef) -> set:
    return {
        node.id
        for stmt in fn.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _public_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _unread(tree: ast.Module) -> list:
    return [
        (name, arg)
        for name, fn, is_method in _public_functions(tree)
        for arg in _params(fn, is_method)
        if arg not in _loaded(fn)
    ]


def unread_parameters() -> list:
    return [
        (path.stem, name, arg)
        for path in sorted(SRC.glob("*.py"))
        for name, arg in _unread(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_every_public_parameter_is_read():
    unread = [item for item in unread_parameters() if item not in ALLOWED]
    assert unread == []


def test_allow_list_is_current():
    # an entry whose parameter is read again, or gone, must leave the list
    assert set(ALLOWED) <= set(unread_parameters())


def test_guard_sees_an_unread_parameter():
    tree = ast.parse("def f(a, b):\n    return a\n\nclass C:\n    def g(self, c):\n        return 1\n")
    assert _unread(tree) == [("f", "b"), ("C.g", "c")]
