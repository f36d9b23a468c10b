"""Rules on the package source that no installed linter enforces."""

import ast
from collections import Counter
from pathlib import Path

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


def test_godement_imports_nothing_from_oracle():
    # the Godement route shares no construction with the independent oracle
    tree = ast.parse((SRC / "godement.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "oracle":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {"module oracle" for alias in node.names
                         if alias.name.split(".")[-1] == "oracle"}
    assert imported == set()


def test_site_imports_nothing_from_godement_cosimplicial_or_oracle():
    # the chain route of `sections` is chosen by the sheaf's own marker
    # (`LabelledSheaf`), so the site layer knows no Godement construction
    tree = ast.parse((SRC / "site.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.add((node.module or "").split(".")[-1])
            modules |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[-1] for alias in node.names}
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
    # a route deleted around it (such as a rank route) leaves it behind.
    # A helper's references inside its own body (recursion) do not count.
    # Names are matched by spelling, so a method and a free function of one
    # name, or a helper and an attribute of its name, share their callers.
    defs, used, own = [], Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(_names_in(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name.startswith("_") and not node.name.endswith("__"):
                defs.append((node.name, f"{path.name}:{node.lineno}"))
                own[node.name] += sum(1 for name in _names_in(node) if name == node.name)
    assert defs, SRC
    assert not [(name, where) for name, where in defs if used[name] == own[name]]
