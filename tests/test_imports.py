import ast
import re
import sys
from pathlib import Path

import pytest

import hypermono

# the package, and every test module (the oracles included)
MODULES = sorted(p for p in Path(hypermono.__file__).parent.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(Path(__file__).parent.glob("*.py"))


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


def test_declared_dependencies_are_the_imported_ones():
    # every top-level module the package imports absolutely, function-level imports
    # included, is the stdlib or a name in [project] dependencies, and every such name
    # is imported (a distribution named unlike its module would need a map here)
    imported = set()
    for path in Path(hypermono.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    # tomllib is 3.11+, and requires-python is 3.10: read the one list by hand
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    declared = {re.match(r"[\w.-]+", d).group(0) for d in re.findall(r'"([^"]+)"', listed)}
    assert imported - set(sys.stdlib_module_names) == declared
