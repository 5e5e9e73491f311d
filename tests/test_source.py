"""Checks on the library source itself."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ceord").glob("*.py"))


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


def test_library_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy belongs to the test references
    found = []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, f"scipy imported at {found}"


def test_verify_leaves_scipy_unloaded():
    # a fresh interpreter, so that no other test has imported scipy already
    script = (
        "import sys; from ceord.cli import main; "
        "rc = main(['verify', '--gamma-x', '1', '--gamma-z', '1', '--ell', '3', "
        "'--k', '2', '--dk', '0.75']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr); "
        "sys.exit(rc)"
    )
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert '"status": "valid"' in proc.stdout
    assert proc.stderr.strip() == "[]"


def test_converse_branches_on_case_only_in_case_helpers():
    # one program at lambda_W = min(lambda_s1(j), lambda_s2): the case label
    # is derived and reported, and nothing else branches on it
    path = next(p for p in SRC if p.name == "converse.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {"select_case"}
    found = []
    for top in tree.body:
        if getattr(top, "name", None) in allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Match):
                operands = [node.subject]
            else:
                continue
            if any(
                isinstance(n, ast.Name) and n.id in {"case", "CASE_P", "CASE_PHAT"}
                for op in operands
                for n in ast.walk(op)
            ):
                found.append(f"{getattr(top, 'name', '<module>')}:{node.lineno}")
    assert not found, f"case compared outside {sorted(allowed)} at {found}"


def test_converse_takes_no_case_argument():
    # lambda_W, and with it the case, follows from (model, k, j)
    from ceord import converse

    found = [
        name
        for name, fn in vars(converse).items()
        if inspect.isfunction(fn)
        and not name.startswith("_")
        and getattr(fn, "__module__", None) == converse.__name__
        and "case" in inspect.signature(fn).parameters
    ]
    assert not found, f"public converse callables taking case: {found}"


def test_cli_handlers_only_compute():
    # a handler returns (payload, table, exit code); main builds the model
    # and _emit writes the document, so no handler does either
    from ceord import cli

    path = next(p for p in SRC if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    handlers = [
        top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name.startswith("cmd_")
    ]
    assert {fn for fn, _ in cli._COMMANDS.values()} == {getattr(cli, h.name) for h in handlers}
    found = []
    for top in handlers:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in {"_emit", "_model", "_model_dict"}:
                    found.append(f"{top.name}:{node.lineno} calls {node.func.id}")
                elif node.func.id == "print" and not any(kw.arg == "file" for kw in node.keywords):
                    found.append(f"{top.name}:{node.lineno} prints to stdout")
            elif isinstance(node, ast.Attribute) and node.attr == "stdout":
                found.append(f"{top.name}:{node.lineno} uses stdout")
    assert not found, found
