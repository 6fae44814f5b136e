"""The package's export list against the names its __init__ binds, so that a
deleted or added function cannot leave a dangling or a missing export."""

import ast
from pathlib import Path

import vpal

INIT = Path(vpal.__file__)


def _public_names_bound() -> set[str]:
    names = set()
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def test_all_is_exactly_the_public_names_bound():
    assert len(vpal.__all__) == len(set(vpal.__all__))
    assert set(vpal.__all__) == _public_names_bound()


def test_every_export_resolves():
    for name in vpal.__all__:
        assert hasattr(vpal, name), name
