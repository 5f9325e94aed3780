"""No code in src/rsmp tests a jump field for None, and no code does
integer arithmetic on the event counts.

A diffusion is the jump diffusion with J = 0 marks, so `Problem.jump` is
always a JumpSpec and `NoiseEnsemble.jump_counts` always an (M, N, J) array.
A static check with the standard-library `ast`: no `is None` or `is not None`
comparison in src/rsmp has a `.jump` or `.jump_counts` attribute as an
operand, except in `Problem.__post_init__`, which turns jump=None into the
spec without marks.

The counts are stored in the narrowest unsigned type that holds them, uint8
as a rule, and numpy keeps that type in arithmetic with a Python int (NEP
50): `counts - 1` wraps 0 to 255 and `counts * 64` wraps past 255.  So every
`.jump_counts` read in src/rsmp, indexed or transposed, either reads its
shape, subtracts a float compensator (a product with the step dt, such as
`lam * dt`), which only `forward._compensated_counts` does for every sweep,
or goes through `coarsen`'s wide sum (`_sum_steps`, which sums in int64);
the only other read is the container's, which writes the counts as <f8.
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


# (module, enclosing scope, kind) of the count reads that are neither a shape
# read nor a compensated increment
WIDE_READS = {("forward", "NoiseEnsemble.coarsen", "wide sum"), ("container", "paths_to_binary", "other")}


def _compensator(node: ast.AST) -> bool:
    """A product with the step dt, a float: lam * dt, lam[j] * noise.dt, ..."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        (isinstance(o, ast.Name) and o.id == "dt") or (isinstance(o, ast.Attribute) and o.attr == "dt")
        for o in (node.left, node.right)
    )


def _view_of(use: ast.AST, parent: ast.AST) -> bool:
    """Whether parent is an index or the transpose of use, a view of the same counts."""
    return (isinstance(parent, ast.Subscript) and parent.value is use) or (
        isinstance(parent, ast.Attribute) and parent.attr == "T")


def _called(node: ast.AST, name: str) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == name) or (isinstance(func, ast.Attribute) and func.attr == name)


def _kind(site: ast.Attribute, parents: dict) -> str:
    """How the counts at site are read, through indices and transposes:
    "shape", "compensated" (the left operand of a subtraction, `-` or
    `np.subtract`, of a compensator), "wide sum" (an argument of `_sum_steps`)
    or "other"."""
    use = site
    while _view_of(use, parents.get(use)):
        use = parents[use]
    parent = parents.get(use)
    if isinstance(parent, ast.Attribute) and parent.attr == "shape":
        return "shape"
    if isinstance(parent, ast.BinOp) and isinstance(parent.op, ast.Sub) and parent.left is use:
        return "compensated" if _compensator(parent.right) else "other"
    if _called(parent, "subtract") and len(parent.args) > 1 and parent.args[0] is use:
        return "compensated" if _compensator(parent.args[1]) else "other"
    if _called(parent, "_sum_steps") and any(arg is use for arg in parent.args):
        return "wide sum"
    return "other"


def count_reads(tree: ast.Module) -> list:
    """(enclosing class and function names, line, kind) of every `.jump_counts` read."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "jump_counts":
            scope, up = [], node
            while up in parents:
                up = parents[up]
                if isinstance(up, (ast.ClassDef, ast.FunctionDef)):
                    scope.append(up.name)
            found.append((node.lineno, node.col_offset, ".".join(reversed(scope)), _kind(node, parents)))
    return [(scope, line, kind) for line, _, scope, kind in sorted(found)]


def _count_sites() -> list:
    return [
        (path.stem, scope, line, kind)
        for path in sorted(SRC.glob("*.py"))
        for scope, line, kind in count_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_every_count_read_is_compensated_or_summed_wide():
    unsafe = [s for s in _count_sites() if s[3] not in ("shape", "compensated") and (s[0], s[1], s[3]) not in WIDE_READS]
    assert unsafe == []


def test_the_wide_reads_and_the_one_compensation_remain():
    sites = _count_sites()
    assert {(s[0], s[1], s[3]) for s in sites if s[3] not in ("shape", "compensated")} == WIDE_READS
    assert {(s[0], s[1]) for s in sites if s[3] == "compensated"} == {("forward", "_compensated_counts")}


def test_guard_sees_every_count_read():
    tree = ast.parse(
        "def f(noise, p, lam, dt, k, x):\n"
        "    a = noise.jump_counts[:, k] - p.jump.intensities * dt\n"
        "    b = noise.jump_counts[:, k, 0] - lam[0] * noise.dt\n"
        "    c = noise.jump_counts.shape[2]\n"
        "    d = noise.jump_counts * 64\n"
        "    e = noise.jump_counts[:, k] - 1\n"
        "    g = lam * dt - noise.jump_counts[:, k]\n"
        "    h = noise.jump_counts[:, k].sum()\n"
        "    i = np.sum(noise.jump_counts)\n"
        "    x += noise.jump_counts[:, k]\n"
        "    a = np.subtract(noise.jump_counts[:, k].T, lam[:, None] * noise.dt, order='C')\n"
        "    b = np.subtract(noise.jump_counts[:, k].T, lam[:, None])\n"
        "    c = np.subtract(lam * dt, noise.jump_counts)\n"
        "\n"
        "class A:\n"
        "    def coarsen(self, factor):\n"
        "        return _sum_steps(self.jump_counts.T, factor), _sum_steps(self.jump_counts * 2, factor)\n"
    )
    assert count_reads(tree) == [
        ("f", 2, "compensated"), ("f", 3, "compensated"), ("f", 4, "shape"), ("f", 5, "other"), ("f", 6, "other"),
        ("f", 7, "other"), ("f", 8, "other"), ("f", 9, "other"), ("f", 10, "other"),
        ("f", 11, "compensated"), ("f", 12, "other"), ("f", 13, "other"),
        ("A.coarsen", 17, "wide sum"), ("A.coarsen", 17, "other"),
    ]
