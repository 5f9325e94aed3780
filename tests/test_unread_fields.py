"""Every dataclass field and public method of src/rsmp is read.

A static check with the standard-library `ast`: each field of a dataclass
and each public method (properties included) of a class defined in
src/rsmp must be accessed as `.name` somewhere in src/rsmp, tests or
perfbench.  A field or method that nothing reads is state or code that
changes no result.  perfbench is only read here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rsmp"
READERS = (SRC, ROOT / "tests", ROOT / "perfbench")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _members(tree: ast.Module) -> list:
    """(class, name) of every dataclass field and public method."""
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                out.append((cls.name, item.name))
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and _is_dataclass(cls):
                out.append((cls.name, item.target.id))
    return out


def _accessed(tree: ast.Module) -> set:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def unread_members() -> list:
    accessed = set()
    for folder in READERS:
        for path in sorted(folder.rglob("*.py")):
            accessed |= _accessed(_parse(path))
    return [
        (path.stem, cls, name)
        for path in sorted(SRC.glob("*.py"))
        for cls, name in _members(_parse(path))
        if name not in accessed
    ]


def test_every_field_and_method_is_read():
    assert unread_members() == []


def test_guard_sees_an_unread_field_and_method():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int\n\n    def f(self):\n        return self.a\n\n"
        "class B:\n    c: int\n\n    def g(self):\n        return A(1, 2).f()\n\n    def _h(self):\n        pass\n"
    )
    members = _members(tree)
    assert members == [("A", "a"), ("A", "b"), ("A", "f"), ("B", "g")]
    assert [m for m in members if m[1] not in _accessed(tree)] == [("A", "b"), ("B", "g")]
