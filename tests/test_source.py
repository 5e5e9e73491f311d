"""Checks on the library source itself."""
import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "ceord").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_assert_in_library(path):
    # assert vanishes under python -O; library checks must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"
