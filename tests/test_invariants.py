"""Internal invariants of the package must survive `python -O`, which
strips assert statements, so the package raises explicitly instead."""

import ast
from pathlib import Path

import diffrees


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(Path(diffrees.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
