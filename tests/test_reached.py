import ast
from pathlib import Path

import hypermono

PACKAGE = Path(hypermono.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# names defined in the package that no command or benchmark reaches, kept on purpose
KEEP = {
    "veronese": "test oracle: Sym^3 attracting points lie on the twisted cubic",
    "hyp_distance": "test oracle for frobenius_distance",
    "frobenius_distance": "test oracle for the certificate's vectorised distances",
    **dict.fromkeys(
        ["CartanData", "kak", "alpha1_gap"],
        "test oracle: the per-matrix Cartan projection for the certificate's batched gaps",
    ),
    "enumerate_good_families": "the paper's family table, to become a command",
    **dict.fromkeys(
        ["q_value", "reduced_exterior_square", "transformed", "pluecker"],
        "exterior.py, the wedge/Pluecker path to be given a caller",
    ),
    # dataclass fields, as "Class.field"
    "CuspWitness.unipotent": "evidence: the witness's matrix, checked by the tests exactly",
    "LyapunovResult.per_trajectory": "test oracle: rows matched bit for bit against the per-event loop",
    **dict.fromkeys(
        ["CartanData.k_minus", "CartanData.k_plus"],
        "test oracle: the KAK factors that reconstruct each matrix from its Cartan projection",
    ),
}


class _Uses(ast.NodeVisitor):
    """Names read in each def or class body, keyed by its name (None: module level).

    A name is read as a bare name, an attribute, or a dotted name spelled in a
    string, since perfbench reaches the functions it times by name
    ("MonodromyRep.standardized").
    """

    def __init__(self):
        self.scope = [None]
        self.uses = {}

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _read(self, *names):
        self.uses.setdefault(self.scope[-1], set()).update(names)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._read(*(part for part in node.value.split(".") if part.isidentifier()))


def _closure(names, uses):
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(uses.get(name, ()))
    return seen


def test_every_definition_is_reached():
    # a def or class that only tests reach is code no command runs; the package's
    # module-level code (the CLI entry point) and all of perfbench are the roots
    package, bench = _Uses(), _Uses()
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        package.visit(tree)
        defined |= {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        }
    for path in sorted(PERFBENCH.rglob("*.py")):
        bench.visit(ast.parse(path.read_text()))
    roots = package.uses.pop(None).union(*bench.uses.values())
    kept = {name for name in KEEP if "." not in name}
    assert kept <= defined
    assert sorted(kept & _closure(roots, package.uses)) == []
    assert sorted(defined - _closure(roots | kept, package.uses)) == []


def _attributes(paths, ctx):
    """Attribute names used in ``ctx`` (ast.Load or ast.Store) in the files, except off ``args``."""
    return {
        node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def _fields(paths):
    """"Class.field" of every field of every @dataclass in the files."""
    return {
        f"{cls.name}.{stmt.target.id}" for path in paths
        for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
    }


def test_every_dataclass_field_is_read():
    # a field no command or benchmark reads is a record nobody consults.  A read
    # is an attribute read of the field's name in the package or in perfbench,
    # except reads off the CLI's parsed options (``args.x``) and, in perfbench,
    # reads of names that perfbench's own objects carry (``Span.name``).
    modules = sorted(PACKAGE.glob("*.py"))
    bench = sorted(PERFBENCH.rglob("*.py"))
    bench_own = {f.split(".")[1] for f in _fields(bench)} | _attributes(bench, ast.Store)
    read = _attributes(modules, ast.Load) | (_attributes(bench, ast.Load) - bench_own)
    fields = _fields(modules)
    unread = {f for f in fields if f.split(".")[1] not in read}
    kept = {name for name in KEEP if "." in name}
    assert kept <= fields
    assert sorted(kept - unread) == []
    assert sorted(unread - kept) == []
