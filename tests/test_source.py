"""Rules on the package source that no installed linter enforces."""

import ast
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
