"""Rules on the package's source and the test settings that no behaviour
test sees."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "belieffit").glob("*.py"))


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


def test_imports_are_stdlib_numpy_or_the_package():
    # pyproject declares numpy as the only dependency, so an import of any
    # other installed package (scipy, say) works here and fails for a user
    allowed = sys.stdlib_module_names | {"numpy", "belieffit"}
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert len(SOURCES) > 1 and not foreign, foreign


def test_no_module_imports_another_modules_private_names():
    # an underscore name belongs to its module: `experiments._row`, for
    # one, stays the only maker of the metric rows whose values it checks
    private = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").partition(".")[0] == "belieffit"
            ):
                private += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert len(SOURCES) > 1 and not private, private


def csv_uses_outside(function: str, names: tuple) -> list:
    """Each use of `csv.<name>`, or import of it from csv, for `names`,
    outside the package's function `function`."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for f in ast.walk(tree)
                   if isinstance(f, ast.FunctionDef) and f.name == function
                   for node in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "csv") or (
                    isinstance(node, ast.ImportFrom) and node.module == "csv"
                    and any(alias.name in names for alias in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_csv_files_are_written_only_by_write_csv():
    # every CSV goes through `runfiles.write_csv`, the one formatter, whose
    # bytes tests/test_cli.py pins to csv.writer's
    found = csv_uses_outside("write_csv", ("writer", "DictWriter"))
    assert len(SOURCES) > 1 and not found, found


def test_csv_files_are_read_only_by_read_table():
    # every CSV goes through `runfiles.read_table`, the one reader, which
    # reads a file or a pipe once and names the first bad line
    found = csv_uses_outside("read_table", ("reader", "DictReader"))
    assert len(SOURCES) > 1 and not found, found


FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
JSON_IO = {"load", "loads", "dump", "dumps"}


def test_only_runfiles_opens_reads_or_writes_a_file():
    # a run's files are written and read in one module, so what a run
    # directory holds is decided there; `mkdir` stays with the commands
    found = set()
    for path in SOURCES:
        if path.name == "runfiles.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                        isinstance(func, ast.Attribute) and (
                            func.attr in FILE_METHODS or func.attr in JSON_IO
                            and isinstance(func.value, ast.Name) and func.value.id == "json")):
                    found.add(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                    alias.name in JSON_IO for alias in node.names):
                found.add(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 1 and not found, sorted(found)


def test_only_training_reads_a_records_row_or_a_datasets_block():
    # records become a block only through `Dataset(records)`, which checks
    # them; a module that read `._row` or `._rows` itself would open a
    # second, unchecked door
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in SOURCES if path.name != "training.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_row", "_rows")
    ]
    assert len(SOURCES) > 1 and not found, found


def test_constructors_freeze_arrays_through_frozen_array():
    # `beliefs.frozen_array` is the one rule for a checked array: shape,
    # finite entries and a read-only copy; no constructor writes its own
    found = [
        f"{path.name}:{cls.name}"
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
        and any(isinstance(node, ast.Attribute) and node.attr == "setflags"
                for node in ast.walk(method))
    ]
    assert len(SOURCES) > 1 and not found, found


def test_every_private_function_and_class_has_a_caller_in_the_package():
    # an underscore name is the package's own: one that nothing in `src/`
    # references outside its definition is dead code, or a helper that only
    # tests use and that belongs beside them
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {}  # each node's id: the names of the definitions that hold it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((f"{path.name}:{node.lineno} {node.name}", node.name))
                for child in ast.walk(node):
                    inside.setdefault(id(child), set()).add(node.name)
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name not in inside.get(id(node), ()):
                used.add(name)
    unused = [where for where, name in defined if name not in used]
    assert len(defined) > 1 and not unused, unused


FAILING_TESTS = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property(x):
    assert x < 0


def test_plain():
    assert False


def test_other_deprecation():
    warnings.warn("something else is deprecated", DeprecationWarning)
"""


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis's failure report warns through libcst; under the settings'
    # `error` filter that warning once raised inside pytest's report hook,
    # so the session ended in an INTERNALERROR and the later tests never
    # ran.  Every other warning still fails its test.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert "3 failed" in done.stdout, done.stdout
