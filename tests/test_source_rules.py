"""Rules that hold for the source of every module in the package."""

import ast
from pathlib import Path

import su2k


def test_no_module_checks_an_invariant_with_assert():
    # `python -O` strips assert statements, so an invariant checked by one would stop being checked
    modules = sorted(Path(su2k.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(modules) > 5 and found == []
