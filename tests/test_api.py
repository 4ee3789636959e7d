"""The public API, and one home for the tests' reference code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import polebracket

REFERENCE = Path(__file__).with_name("reference.py")


def _defined_names(path: Path) -> set:
    """The names a module file binds at its top level: functions, classes
    and assigned names (imports excluded)."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_one_home_per_name():
    # `__all__` is sorted, has no repeats, and every name in it resolves
    names = polebracket.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(polebracket, n)] == []
    # no module of the package has a name that tests/reference.py defines,
    # so a second copy of a reference cannot come back as a library path
    reference = _defined_names(REFERENCE)
    assert {"reduce", "canonical_key", "confluence_oracle", "equivalent",
            "assemble_from_table", "curve_poles", "geometry"} <= reference
    assert sorted(reference & set(vars(polebracket))) == []
    for info in pkgutil.iter_modules(polebracket.__path__):
        # importing `__main__` would run the command line; it binds only
        # `sys` and `main`
        if info.name != "__main__":
            module = importlib.import_module(f"polebracket.{info.name}")
            assert sorted(reference & set(vars(module))) == [], module.__name__
