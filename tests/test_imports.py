import ast
import importlib.metadata
import re
import sys
import tomllib
from pathlib import Path

import pytest

import hypermono

# the package, and every test module (the oracles included)
MODULES = sorted(p for p in Path(hypermono.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(Path(__file__).parent.glob("*.py"))
PROJECT = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # no linter runs on the repo, so an unused import would survive unseen
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def third_party_imports(paths):
    """The top-level modules the files import absolutely, function-level imports included,
    less the stdlib's."""
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names)


def declared(requirements):
    """The distribution names of requirement strings (a distribution named unlike its
    module would need a map here)."""
    return {re.match(r"[\w.-]+", d).group(0) for d in requirements}


def test_declared_dependencies_are_the_imported_ones():
    # every third-party module the package imports is a name in [project] dependencies,
    # and every such name is imported
    imported = third_party_imports(Path(hypermono.__file__).parent.glob("*.py"))
    assert imported == declared(PROJECT["dependencies"])


def test_declared_test_dependencies_are_the_imported_ones():
    # every third-party module a test module imports, other than the package, the test
    # modules themselves and the runtime dependencies, is a name in the test extra, and
    # every such name is imported by some test module
    tests = sorted(Path(__file__).parent.glob("*.py"))
    imported = third_party_imports(tests) - {"hypermono"} - {p.stem for p in tests}
    runtime = declared(PROJECT["dependencies"])
    assert imported - runtime == declared(PROJECT["optional-dependencies"]["test"])


def scoped_imports(path):
    """(module, scope) of each import in the file: the module as imported absolutely, and
    the dotted path of the functions around the import, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            elif isinstance(child, ast.Import):
                found.extend((a.name, scope) for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.module, scope))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return found


def test_one_thread_pool_imported_where_it_runs():
    # the package's one thread pool is the standard library's: no module imports
    # threading, and concurrent.futures is imported only inside singular_gaps, so
    # a run that streams no SVD chunk pays for no import of it
    imports = [(path.stem, module, scope)
               for path in Path(hypermono.__file__).parent.glob("*.py")
               for module, scope in scoped_imports(path)]
    assert [i for i in imports if i[1].split(".")[0] == "threading"] == []
    pools = {i for i in imports if i[1].split(".")[0] == "concurrent"}
    assert pools == {("_linalg", "concurrent.futures", "singular_gaps")}


def python_floor(spec):
    """The version a ``>=X.Y`` requirement names, as a tuple of ints."""
    assert spec.startswith(">="), spec
    return tuple(map(int, spec[2:].split(".")))


def test_declared_python_floor_covers_numpy():
    # an install that follows requires-python must also find a numpy it may run
    numpy_floor = python_floor(importlib.metadata.metadata("numpy")["Requires-Python"])
    assert python_floor(PROJECT["requires-python"]) >= numpy_floor
