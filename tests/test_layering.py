"""Package layering: every in-package import sits at module level."""

import ast
from pathlib import Path

import qubocut

SOURCES = sorted(Path(qubocut.__file__).parent.glob("*.py"))


def test_no_relative_import_inside_a_function():
    # a relative import in a function body hides a cycle between modules;
    # third-party imports deferred for start-up time are allowed
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == []
