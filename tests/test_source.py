"""Rules on the package's source that no behaviour test sees."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "belieffit").glob("*.py"))


def test_runtime_checks_raise_instead_of_assert():
    # `python -O` strips assert statements, so a check written as one
    # vanishes; the package raises its own errors instead
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1 and not asserts, asserts
