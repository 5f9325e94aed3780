"""Only `main` in rsmp/cli.py prints or writes config.json.

A command returns its summary line, the name of its JSON artifact and that
artifact's payload; `main` writes config.json and the artifact, then prints
the summary, so no result line is printed for a run whose files could not
be written.  A static check with the standard-library `ast`: every `print`
call and every "config.json" literal in src/rsmp/cli.py sits inside `main`.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "rsmp" / "cli.py"


def _is_protocol_site(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    return isinstance(node, ast.Constant) and node.value == "config.json"


def protocol_sites(tree: ast.Module) -> list:
    """(enclosing class and function names, line) of every print call and config.json literal."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if _is_protocol_site(child):
                found.append((".".join(inner), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_main_prints_or_writes_the_config():
    sites = protocol_sites(ast.parse(CLI.read_text(encoding="utf-8")))
    assert sites and {scope for scope, _ in sites} == {"main"}


def test_guard_sees_a_command_that_prints():
    tree = ast.parse(
        'def _cmd_x(config):\n    print("cost")\n    _write(config, "config.json", "")\n\n\n'
        'def main():\n    print("ok")\n'
    )
    assert protocol_sites(tree) == [("_cmd_x", 2), ("_cmd_x", 3), ("main", 7)]
