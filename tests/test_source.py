"""Rules on the package source that no installed linter enforces."""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "godex"


def test_library_checks_are_not_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; library checks raise a godex error instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), SRC
    assert not found, found


def _imported_modules(filename):
    """The last part of every module that src/godex/`filename` imports or
    imports from, and of every name it imports."""
    modules = set()
    for node in ast.walk(ast.parse((SRC / filename).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[-1])
            modules |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[-1] for alias in node.names}
    return modules


def test_godement_imports_nothing_from_oracle():
    # the Godement route shares no construction with the independent oracle
    modules = _imported_modules("godement.py")
    assert modules, "godement.py imports nothing at all"
    assert "oracle" not in modules, modules


def test_oracle_imports_nothing_from_godement_or_cosimplicial():
    # the other half of the independence: the oracle computes RΓ with no
    # Godement construction and no simple functor, so that a fault there
    # cannot hide in both routes at once
    modules = _imported_modules("oracle.py")
    assert modules, "oracle.py imports nothing at all"
    assert not modules & {"godement", "cosimplicial"}, modules


def test_site_imports_nothing_from_godement_cosimplicial_or_oracle():
    # the chain route of `sections` is chosen by the sheaf's own marker
    # (`LabelledSheaf`), so the site layer knows no Godement construction
    modules = _imported_modules("site.py")
    assert modules, "site.py imports nothing at all"
    assert not modules & {"godement", "cosimplicial", "oracle"}, modules


def _names_in(node):
    """Every name that `node` reads or imports: Name ids, Attribute
    attributes and the names of `from` imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_function_has_a_caller_in_src():
    # a private helper that nothing else in the package names is dead code:
    # a route deleted around it (such as a rank route) leaves it behind, and
    # so does a private module-level name (`_NAME = ...`, such as the
    # threshold of a deleted route) that nothing in the package reads.
    # A helper's references inside its own body (recursion) and a name's own
    # assignment do not count.  Names are matched by spelling, so a method
    # and a free function of one name, or a helper and an attribute of its
    # name, share their callers.
    defs, names, used, own = [], [], Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names_in(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defs.append((node.name, f"{path.name}:{node.lineno}"))
                own[node.name] += sum(1 for name in _names_in(node) if name == node.name)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name) and target.id.startswith("_") and \
                        not target.id.endswith("__"):
                    names.append((target.id, f"{path.name}:{node.lineno}"))
                    own[target.id] += 1
    assert defs and names, SRC
    assert not [(name, where) for name, where in defs + names if used[name] == own[name]]


def test_every_public_function_has_a_caller():
    # as options do, a public function or class needs a reader in the package
    # (an import into __init__ counts) or the benchmark; one that only tests
    # call is test code in the library, and belongs in the tests.  Its
    # references inside its own body do not count, and names are matched by
    # spelling, as for private helpers.
    bench = SRC.parent.parent / "bench"
    defs, used, own = [], Counter(), Counter()
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names_in(tree))
        if path.parent == SRC:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                        not node.name.startswith("_"):
                    defs.append((node.name, f"{path.name}:{node.lineno}"))
                    own[node.name] += sum(1 for name in _names_in(node) if name == node.name)
    assert "Matrix" in {name for name, _ in defs} and used
    assert [(name, where) for name, where in defs if used[name] == own[name]] == []


def _attributes_in(node):
    """Every attribute name that `node` reads: the `name` of each `.name`."""
    return (sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_method_has_a_caller():
    # a public method of a public class, __init__ and the other dunders
    # aside, needs a `.name` reference in the package or the benchmark
    # outside its own body.  Only attribute references count: a bare name
    # is a local function or variable (many a block builder is a local
    # function named `block`), never a method.  Methods are matched by
    # spelling, so an override shares the callers of the method it overrides.
    bench = SRC.parent.parent / "bench"
    methods, attrs, own = [], Counter(), Counter()
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        attrs.update(_attributes_in(tree))
        if path.parent == SRC:
            for fn, _ in _public_methods(tree):
                methods.append((fn.name, f"{path.name}:{fn.lineno}"))
                own[fn.name] += sum(1 for name in _attributes_in(fn) if name == fn.name)
    assert methods and attrs
    assert [(name, where) for name, where in methods if attrs[name] == own[name]] == []


# Defaulted parameters of public functions that no call in src/ or bench/
# passes, each kept for the reason given.
UNCALLED_OPTIONS = {
    # the README's independent reference for N H_X F stalks
    ("replacement_complex", "within"),
    # public API, and tests check the extra degeneracy on both sides
    ("collapse_by_extra_degeneracy", "side"),
    # public API: filtrations of truncated totals agree only through the
    # certified degree, and the filtered acceptance tests compare them there
    ("filtrations_equal", "up_to"),
    # public API: one-block sheaves keep the reference tests over Q fast
    ("random_sheaf", "blocks"),
    # the CLI entry point reads sys.argv by default; tests run it in process
    ("main", "argv"),
}


def _defaulted_parameters(fn):
    """(position or None, name) of every parameter of `fn` with a default;
    keyword-only parameters have no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    yield from ((i, p.arg) for i, p in enumerate(positional) if i >= first)
    yield from ((None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def _passes(call, position, name) -> bool:
    """Does `call` pass the parameter at `position` named `name`?  A starred
    argument or a ** mapping counts as passing everything it could reach."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(x, ast.Starred) for x in call.args)


def _public_methods(tree):
    """(name, offset) of every public method of a top-level class but
    `__init__`: offset 1 for the bound self or cls of a call `obj.m(...)`,
    0 for a static method."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    yield fn, 0 if static else 1


def _options(tree):
    """(name, position in a call, parameter) of every defaulted parameter of
    a public function or public method of `tree`."""
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
            yield from ((fn.name, pos, param) for pos, param in _defaulted_parameters(fn))
    for fn, offset in _public_methods(tree):
        yield from ((fn.name, None if pos is None else pos - offset, param)
                    for pos, param in _defaulted_parameters(fn))


def test_every_public_option_has_a_caller():
    # an option needs a caller in the package, the benchmark or the CLI
    # (which is in the package); one that only tests set is dead weight.
    # That holds for the methods of public classes too, __init__ aside.
    # Calls are matched to functions by name, as `f(...)`, `module.f(...)`
    # or `obj.f(...)`.
    options, calls = [], {}
    bench = SRC.parent.parent / "bench"
    for path in sorted(SRC.glob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
        if path.parent == SRC:
            options += list(_options(tree))
    assert options and calls
    uncalled = {(fn, param) for fn, position, param in options
                if not any(_passes(c, position, param) for c in calls.get(fn, ()))}
    assert uncalled == UNCALLED_OPTIONS


def test_package_imports_only_the_standard_library_and_its_dependencies():
    # installed packages that pyproject.toml does not list (scipy, say) are
    # not there for a user of godex, so the package must not import them
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text())["project"]
    allowed = set(sys.stdlib_module_names) | {"godex"} | {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in project["dependencies"]}
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - allowed == set()
