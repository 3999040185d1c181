import ast
from pathlib import Path

import hypermono

PACKAGE = Path(hypermono.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# names defined in the package that no command or benchmark reaches, kept on purpose
KEEP = {
    "enumerate_good_families": "the paper's family table, to become a command",
    # dataclass fields, as "Class.field"
    "CuspWitness.unipotent": "evidence: the witness's matrix, checked by the tests exactly",
    "LyapunovResult.per_batch": "test oracle: rows matched bit for bit against the per-event loop",
}


class _Uses(ast.NodeVisitor):
    """Names read in each def or class body or module-level constant's value, keyed by its
    name (None: the rest of the module level).

    A name is read as a bare name, an attribute, or a dotted name spelled in a
    string, since perfbench reaches the functions it times by name
    ("MonodromyRep.standardized").  ``loads`` and ``stores`` hold, per body,
    the attribute names loaded and stored, except off the CLI's parsed
    options (``args.x``); ``defined`` holds the names of the defs and classes,
    and ``constants`` the names assigned at module level.
    """

    def __init__(self):
        self.scope = [None]
        self.uses, self.loads, self.stores = {}, {}, {}
        self.defined, self.constants = set(), set()

    def _enter(self, node):
        self.defined.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def visit_Assign(self, node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if self.scope != [None] or len(names) != 1:
            return self.generic_visit(node)
        self.constants.add(names[0])
        self.scope.append(names[0])
        self.generic_visit(node)
        self.scope.pop()

    visit_AnnAssign = visit_Assign

    def _read(self, *names):
        self.uses.setdefault(self.scope[-1], set()).update(names)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        if not (isinstance(node.value, ast.Name) and node.value.id == "args"):
            kind = self.loads if isinstance(node.ctx, ast.Load) else self.stores
            kind.setdefault(self.scope[-1], set()).add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._read(*(part for part in node.value.split(".") if part.isidentifier()))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _closure(names, uses):
    seen, todo = set(), list(names)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(uses.get(name, ()))
    return seen


def _scan(paths):
    uses = _Uses()
    for path in paths:
        uses.visit(ast.parse(path.read_text()))
    return uses


MODULES = sorted(PACKAGE.glob("*.py"))
BENCH = sorted(PERFBENCH.rglob("*.py"))


def _roots(package, bench):
    """Names read in the package's module-level code (the CLI entry point) and in perfbench."""
    return package.uses.get(None, set()).union(*bench.uses.values())


def _reached(package, bench):
    """The names reached from the roots through the package's defs (``KEEP`` is no root)."""
    return _closure(_roots(package, bench), package.uses)


def test_every_definition_is_reached():
    # a def, class or module-level constant that only tests reach is code no command
    # runs; the package's module-level code (the CLI entry point) and all of perfbench
    # are the roots.  A kept def is exempt itself, but what it reads must be reached
    # on its own.
    package, bench = _scan(MODULES), _scan(BENCH)
    defined = {name for name in package.defined | package.constants if not _dunder(name)}
    kept = {name for name in KEEP if "." not in name}
    reached = _reached(package, bench)
    assert kept <= defined
    assert sorted(kept & reached) == []
    assert sorted(defined - reached - kept) == []


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
    # is an attribute load of the field's name, in the package from module-level
    # code, a reached def (not a kept one), or a dunder method (``__repr__``, ``__len__``),
    # and anywhere in perfbench except of names that perfbench's own objects
    # carry: its fields, stored attributes, defs and classes (``tracer.span``).
    package, bench = _scan(MODULES), _scan(BENCH)
    reached = _reached(package, bench)
    read = set().union(*(names for scope, names in package.loads.items()
                         if scope is None or scope in reached or _dunder(scope)))
    bench_own = ({f.split(".")[1] for f in _fields(BENCH)} | bench.defined
                 | set().union(*bench.stores.values()))
    read |= set().union(*bench.loads.values()) - bench_own
    fields = _fields(MODULES)
    unread = {f for f in fields if f.split(".")[1] not in read}
    kept = {name for name in KEEP if "." in name}
    assert kept <= fields
    assert sorted(kept - unread) == []
    assert sorted(unread - kept) == []
