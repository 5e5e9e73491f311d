"""Checks on the library source itself."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "ceord").glob("*.py"))
M0 = ["--gamma-x", "1", "--gamma-z", "1", "--ell", "3"]


def _fresh(script):
    """Run a Python script in a fresh interpreter that imports ceord from src."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_no_assert_in_library(path):
    # assert vanishes under python -O; library checks must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at line(s) {lines}"


ENVIRONMENT = {"environ", "getenv", "putenv"}


def _reads_environment(node):
    """Whether a node is os.environ, os.getenv or os.putenv, or imports one."""
    if isinstance(node, ast.Attribute):
        return node.attr in ENVIRONMENT and isinstance(node.value, ast.Name) and node.value.id == "os"
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in ENVIRONMENT for alias in node.names)
    return False


@pytest.mark.parametrize("path", SRC, ids=[p.name for p in SRC])
def test_library_reads_no_environment(path):
    # every input is a command-line flag, so a result depends on argv alone
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [node.lineno for node in ast.walk(tree) if _reads_environment(node)]
    assert not found, f"{path.name}: the environment read at line(s) {found}"


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


def _imported_roots(path, module_body=False):
    """(top-level module name, line) of every import statement in a file, or
    only of those in its module body, which run when the file is loaded."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body if module_body else ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for name in names:
            yield name.split(".")[0], node.lineno


def test_library_does_not_import_scipy():
    # numpy is the only runtime dependency; scipy belongs to the test references
    found = [
        f"{path.name}:{line}" for path in SRC for root, line in _imported_roots(path) if root == "scipy"
    ]
    assert not found, f"scipy imported at {found}"


def test_only_spectra_and_mcsim_import_numpy():
    # the frontier and the converse are closed forms; numpy serves the
    # Monte Carlo engine and the basis it draws in
    found = {path.stem for path in SRC for root, _ in _imported_roots(path) if root == "numpy"}
    assert found <= {"spectra", "mcsim"}, f"numpy imported by {sorted(found)}"
    # and only inside the functions that use it, so that importing ceord
    # loads no numpy
    eager = [
        f"{path.name}:{line}"
        for path in SRC
        for root, line in _imported_roots(path, module_body=True)
        if root == "numpy"
    ]
    assert not eager, f"numpy imported on load at {eager}"


def test_verify_leaves_scipy_unloaded():
    # a fresh interpreter, so that no other test has imported scipy already
    script = (
        "import sys; from ceord.cli import main; "
        "rc = main(['verify', '--gamma-x', '1', '--gamma-z', '1', '--ell', '3', "
        "'--k', '2', '--dk', '0.75']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr); "
        "sys.exit(rc)"
    )
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert '"status": "valid"' in proc.stdout
    assert proc.stderr.strip() == "[]"


FRONTIER = [
    ["point", *M0, "--k", "2", "--dk", "0.75"],
    ["sweep", *M0, "--k", "2", "--dk-min", "0.6", "--dk-max", "0.9", "--steps", "3"],
    ["region", *M0, "--k", "2", "--dk", "0.75"],
    ["conditions", *M0, "--k", "2", "--dk", "0.75"],
    ["verify", *M0, "--k", "2", "--dk", "0.75"],
    ["bt-check", *M0, "--k", "2", "--dk", "0.75"],
]


def test_frontier_commands_leave_numpy_unloaded():
    # the frontier is closed form: only the Monte Carlo engine needs numpy
    script = (
        "import sys; from ceord.cli import main; "
        f"codes = [main(argv) for argv in {FRONTIER!r}]; "
        "print(codes, 'numpy' in sys.modules, file=sys.stderr)"
    )
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{[0] * len(FRONTIER)} False"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples: a dataclass exec-compiles its methods when
    # its class is built, and dataclasses imports inspect, ast, dis and
    # tokenize; modules loaded before the script (site, .pth files) do not count
    script = (
        "import sys; startup = set(sys.modules); import ceord.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - startup)), file=sys.stderr)"
    )
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def test_cli_loads_argparse_and_csv_only_on_use(capsys, monkeypatch):
    # a well-formed argv is read from the compiled option table and written
    # as JSON or joined CSV lines, so neither module loads; help and a bad
    # argv still go to argparse, with its output and exit codes
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    point = ["point", *M0, "--k", "2", "--dk", "0.75"]
    table = ["region", *M0, "--k", "2", "--dk", "0.75", "--format", "csv"]
    others = [["-h"], ["point", "--bogus"]]
    script = (
        "import contextlib, io, sys; startup = set(sys.modules); from ceord.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): rc = main({point!r}) + main({table!r})\n"
        "print(rc, sorted({'argparse', 'csv'} & (set(sys.modules) - startup)), file=sys.stderr)\n"
        f"for argv in {others!r}:\n"
        "    try: main(argv)\n"
        "    except SystemExit as e: print('exit', e.code, file=sys.stderr)\n"
    )
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    from ceord.cli import main

    want_out, want_err = "", "0 []\n"
    for argv in others:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        cap = capsys.readouterr()
        want_out, want_err = want_out + cap.out, want_err + cap.err + f"exit {exit_.value.code}\n"
    assert (proc.stdout, proc.stderr) == (want_out, want_err)
    assert "exit 0\n" in want_err and want_err.endswith("exit 2\n")


def test_simulate_loads_numpy_on_first_draw(capsys):
    # the draw imports numpy where it is used, and gives the same output as
    # in a process that has it loaded already
    argv = ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "2000", "--seed", "1"]
    script = (
        "import sys; from ceord.cli import main; "
        f"rc = main({argv!r}); "
        "print('numpy' in sys.modules, file=sys.stderr); sys.exit(rc)"
    )
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "True"
    from ceord.cli import main

    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_converse_branches_on_case_only_in_case_helpers():
    # one program at lambda_W = min(lambda_s1(j), lambda_s2): _program names
    # the case from the comparison that picks lambda_W, the certificate
    # reports it, and nothing else branches on it
    path = next(p for p in SRC if p.name == "converse.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = {"_program"}
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
    # lambda_W, and with it the case, follows from the level k and j
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


RECORDS = [
    "spectra.SymmetricSpec",
    "spectra.SourceModel",
    "spectra.Level",
    "rdcore.RegimeReport",
    "rdcore.ConditionReport",
    "bergertung.RegionCheck",
    "converse.FeasiblePoint",
    "converse.Multipliers",
    "converse.KKTCertificate",
    "mcsim.SampleBatch",
    "mcsim.EmpiricalRD",
    "mcsim.DecompositionReport",
]


@pytest.mark.parametrize("name", RECORDS)
def test_records_reject_assignment(name):
    # a record is immutable: neither a field nor a new attribute can be set
    mod, cls = name.split(".")
    record_type = getattr(importlib.import_module(f"ceord.{mod}"), cls)
    rec = record_type(*[0.0] * len(record_type._fields))
    for field in (*record_type._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, field, 1.0)
    assert rec == (0.0,) * len(record_type._fields)


def _values(obj):
    """obj and every value, key and element nested in it."""
    yield obj
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield key
            yield from _values(val)
    elif isinstance(obj, (list, tuple)):
        for val in obj:
            yield from _values(val)


def test_no_handler_result_holds_a_record(monkeypatch):
    # a record is a tuple, which json and _dumps would silently write as an
    # array of its values; the handlers write each record with _asdict
    from ceord import cli

    runs = [
        *FRONTIER,
        ["simulate", *M0, "--k", "2", "--dk", "0.75", "--n", "1000", "--seed", "1"],
        ["decomp-check", *M0, "--lambda-q", "2", "--n", "1000", "--seed", "1"],
    ]
    results = []
    monkeypatch.setattr(cli, "_emit", lambda args, model, result: results.append(result) or 0)
    for argv in runs:
        assert cli.main(argv) == 0, argv
    assert len(results) == len(runs)
    found = [
        f"{argv[0]}: {type(val).__name__}"
        for argv, (payload, table, _) in zip(runs, results)
        for val in _values([payload, table])
        if isinstance(val, tuple) and type(val) is not tuple
    ]
    assert not found, found


def _bench_spans_constants():
    """TARGETS and MODULES of bench/spans.py, read without importing bench/."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in {"TARGETS", "MODULES"}:
                found[name] = ast.literal_eval(node.value)
    return found["TARGETS"], found["MODULES"]


def test_benchmark_targets_are_bound():
    # the benchmark's span recorder looks each target up with getattr and
    # its tests expect d_min bound in rdcore and converse; renaming or
    # dropping one of these breaks the benchmark, so change both together
    from ceord import converse, rdcore, spectra

    targets, _ = _bench_spans_constants()
    missing = [
        f"{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"ceord.{mod}"), name, None))
    ]
    assert not missing, f"bench/spans.py targets missing from ceord: {missing}"
    assert rdcore.d_min is spectra.d_min and converse.d_min is spectra.d_min


def test_cli_import_loads_every_benchmarked_module():
    # the benchmark times `import ceord.cli` per module of MODULES
    _, modules = _bench_spans_constants()
    script = "import sys, ceord.cli; print(' '.join(sorted(sys.modules)))"
    proc = _fresh(script)
    assert proc.returncode == 0, proc.stderr
    missing = sorted({f"ceord.{m}" for m in modules} - set(proc.stdout.split()))
    assert not missing, f"import ceord.cli leaves {missing} unloaded"


def _level_rule_comparisons(tree):
    """Lines of each two-sided comparison 1 <= X <= model.ell in a module."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Compare)
            and len(node.comparators) == 2
            and all(isinstance(op, ast.LtE) for op in node.ops)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1
            and ast.unparse(node.comparators[1]) == "model.ell"
        ):
            yield node.lineno


PAIR_MESSAGE = "need 1 <= k <= j <= ell"


def test_spectra_owns_the_level_rule():
    # 1 <= k <= ell, and its "out of range [1, ell]" message, live in
    # spectra.level; a three-way chain such as 1 <= k <= j <= ell is a
    # different rule and is not matched.  That (k, j) rule is spectra's
    # check_pair, the one place its message is written.  TestChannel, a
    # second lambda_q rule, is gone: every lambda-form takes lambda_q as a float.
    found = []
    for path in SRC:
        text = path.read_text(encoding="utf-8")
        if "TestChannel" in text:
            found.append(f"{path.name}: TestChannel")
        if path.name == "spectra.py":
            continue
        tree = ast.parse(text, filename=str(path))
        found += [f"{path.name}:{line}" for line in _level_rule_comparisons(tree)]
        if "out of range [1, " in text:
            found.append(f"{path.name}: the level rule's message")
        if PAIR_MESSAGE in text:
            found.append(f"{path.name}: the (k, j) rule's message")
    assert not found, f"level rule, (k, j) rule or TestChannel outside spectra: {found}"
    spectra = next(p for p in SRC if p.name == "spectra.py")
    text = spectra.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(spectra))
    assert list(_level_rule_comparisons(tree)), "the guard no longer matches spectra's own rule"
    assert text.count(PAIR_MESSAGE) == 1, "spectra must write the (k, j) rule's message once"


def _model_reads(module, readers):
    """Each read of model.x, model.z or model.s in a library module, outside
    the top-level definitions named in readers, as "name:line reads ..."."""
    path = next(p for p in SRC if p.name == f"{module}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        if name in readers:
            continue
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in {"x", "z", "s"}
                and isinstance(node.value, ast.Name)
                and node.value.id == "model"
            ):
                yield f"{name}:{node.lineno} reads model.{node.attr}"


def test_forms_on_a_level_read_no_model():
    # a form that takes a level (first parameter lv) works on it alone: it
    # never reads a level itself, so a command that reads its level once
    # reads it once in all.  The converse program, the certificate at a
    # given lambda_q and the oracle read no model at all.  The helpers they
    # replaced do not come back.
    on_level, found = set(), []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or not fn.args.args or fn.args.args[0].arg != "lv":
                continue
            on_level.add(fn.name)
            found += [
                f"{path.name}:{node.lineno} {fn.name} calls {ast.unparse(node.func)}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "level"
            ]
            if fn.name in {"_program", "verify_at_lambda", "solve_numeric"}:
                found += [
                    f"{path.name}:{node.lineno} {fn.name} reads model"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Name) and node.id == "model"
                ]
    removed = {"_lw", "_distortion_lhs", "objective_eta", "select_case", "_pair_rule"}
    for path in SRC:
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name} names {n}" for n in sorted(removed) if re.search(rf"\b{n}\b", text)]
    assert not found, f"a form on a level reads a level or the model: {found}"
    want = {"solve_lambda_q", "frontier_step", "_program", "verify_at_lambda", "solve_numeric"}
    assert want <= on_level, f"the guard no longer sees {sorted(want - on_level)}"
    import ceord

    assert not hasattr(ceord, "_program") and not hasattr(ceord, "select_case")


def test_boundary_closed_forms_are_test_oracles():
    # the frontier at rho_s = 1 and rho_s = -1/(ell-1) comes from the one
    # general solve; the paper's closed forms live in tests/oracles.py
    import ceord
    from ceord import rdcore

    names = {n for mod in (ceord, rdcore) for n in vars(mod) if n.startswith("degenerate_")}
    assert not names
    assert not {"PSD_SLACK", "check_pair"} & set(vars(rdcore))


def test_spectrum_is_read_only_through_level():
    # spectra.level is the one reader of a level's spectrum: every lambda-form
    # takes its result, and no module outside spectra calls lambda1 or
    # lambda2 or reads model.x, model.z or model.s (cli._model_dict only
    # echoes the parameters).  No module reaches into rdcore's or
    # bergertung's private names, the readers and cores the level replaced
    # are gone, and sweep calls level once, before its loop.
    from ceord import rdcore, spectra

    found = []
    for path in SRC:
        if path.name == "spectra.py":
            continue
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _model_reads(module, {"_model_dict"} if module == "cli" else set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in {"lambda1", "lambda2"}:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in {"rdcore", "bergertung"} - {module}
            ):
                found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in {"rdcore", "bergertung"}:
                found += [
                    f"{path.name}:{node.lineno} imports {node.module}.{a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    gone = {"_level", "_Level", "_rate", "_profile", "_ratio", "_conditions", "_regime"}
    found += [f"rdcore.{n} is defined" for n in sorted(gone) if hasattr(rdcore, n)]
    if hasattr(spectra, "check_level"):
        found.append("spectra.check_level is defined")
    assert not found, f"the spectrum is read outside spectra.level: {found}"
    path = next(p for p in SRC if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    sweep = next(top for top in tree.body if getattr(top, "name", None) == "cmd_sweep")
    loops = [node for node in ast.walk(sweep) if isinstance(node, ast.For)]
    reads = [
        node
        for node in ast.walk(sweep)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in {"spectra.level", "level"}
    ]
    in_loop = [node for loop in loops for node in ast.walk(loop) if node in reads]
    assert len(reads) == 1 and not in_loop, "cmd_sweep must read the level once, before its loop"
