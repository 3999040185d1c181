import ast
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
