import ast
from pathlib import Path

import hypermono

PACKAGE = Path(hypermono.__file__).parent
# the commands and the benchmark; a default that only tests vary is an option nothing runs
CALLERS = [PACKAGE.parents[1] / d for d in ("src", "perfbench")]

# perfbench/spans.py reads this argument by name off every enumerate_ball call
EXEMPT = {("enumerate_ball", "alphabet")}


def _key(fn, cls):
    return cls if fn.name == "__init__" else fn.name


def _defaulted(fn, is_method):
    """{name: call position or None} of the parameters of ``fn`` that have defaults."""
    args = fn.args
    pos = args.posonlyargs + args.args
    shift = 1 if is_method else 0
    out = {a.arg: i - shift for i, a in enumerate(pos) if i >= len(pos) - len(args.defaults)}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _field_defaults(tree):
    """{(class, field): call position} of the defaulted fields of each @dataclass."""
    out = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            "dataclass" in ast.unparse(d) for d in cls.decorator_list
        ):
            fields = [stmt for stmt in cls.body if isinstance(stmt, ast.AnnAssign)]
            out.update({
                (cls.name, f.target.id): i for i, f in enumerate(fields) if f.value is not None
            })
    return out


def _package_defaults():
    """{(function or class key, parameter or field): call position} over the package."""
    out = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        out.update(_field_defaults(tree))
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                cls = methods.get(id(fn))
                for name, at in _defaulted(fn, cls is not None).items():
                    out[(_key(fn, cls), name)] = at
    return out


class _Calls(ast.NodeVisitor):
    """Each call: (callee, [(parameter or position, forwarded parameter or None), ...]).

    An argument is forwarded when it is a bare name of a defaulted parameter of the
    enclosing def, which passes on that parameter's value rather than choosing one.
    """

    def __init__(self):
        self.scope = [set()]
        self.calls = []

    def visit_FunctionDef(self, fn):
        cls = getattr(fn, "cls", None)
        self.scope.append({(_key(fn, cls), n) for n in _defaulted(fn, cls is not None)})
        self.generic_visit(fn)
        self.scope.pop()

    def visit_ClassDef(self, node):
        for f in node.body:
            if isinstance(f, ast.FunctionDef):
                f.cls = node.name
        self.generic_visit(node)

    def visit_Call(self, call):
        f = call.func
        callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        args = [("*" if isinstance(arg, ast.Starred) else i, self._forward(arg))
                for i, arg in enumerate(call.args)]
        args += [(kw.arg or "**", self._forward(kw.value)) for kw in call.keywords]
        self.calls.append((callee, args))
        self.generic_visit(call)

    def _forward(self, node):
        if isinstance(node, ast.Name):
            return next((k for k in self.scope[-1] if k[1] == node.id), None)
        return None


def _caller_calls():
    calls = _Calls()
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            calls.visit(ast.parse(path.read_text()))
    return calls.calls


def test_every_defaulted_parameter_is_passed():
    # a default that no command or workload overrides is a setting nothing runs; a
    # dataclass field default counts as varied when a construction passes the field
    defaults = _package_defaults()
    assert EXEMPT <= defaults.keys()
    passed = [(c, slot, fwd) for c, args in _caller_calls() for slot, fwd in args]
    varied = set(EXEMPT)
    while True:
        new = {
            (callee, name)
            for (callee, name), at in defaults.items()
            for c, slot, fwd in passed
            if c == callee and slot in (name, at, "*", "**") and (fwd is None or fwd in varied)
        } - varied
        if not new:
            break
        varied |= new
    assert sorted(defaults.keys() - varied) == []


def test_no_default_is_passed_by_every_call():
    # the mirror: a default that every command and workload call overrides is never
    # taken, so the parameter is required; a call that passes *args or **kwargs may
    # leave it out, so only a parameter it names counts
    defaults = _package_defaults()
    calls = _caller_calls()
    always = []
    for (callee, name), at in defaults.items():
        slots = [{slot for slot, _ in args} for c, args in calls if c == callee]
        if slots and all(name in s or at in s for s in slots):
            always.append((callee, name))
    assert sorted(always) == []
