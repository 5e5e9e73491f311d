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


def test_mcsim_has_no_dense_algebra():
    # every mcsim estimator is closed form in the two eigenvalues; dense
    # covariances and linear solves belong to the test oracles
    path = next(p for p in SRC if p.name == "mcsim.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & {"dense", "eigenvalues"}
    linalg = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "linalg"
    ]
    assert not linalg, f"mcsim.py: np.linalg at line(s) {linalg}"
