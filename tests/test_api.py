"""The public API, and one home for the tests' reference code."""

import ast
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import polebracket
from polebracket import BAR, Bar, MoveSpec, Visit, parse_code, realize
from polebracket.states import classify_state, splice_curves
from polebracket.surfaces import cut_complex, regions
from reference import geometry

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


# what `import polebracket.cli` must not load: the process pool, which only a
# sum on workers > 1 opens, and the dataclass machinery
NOT_AT_START = ("concurrent.futures.process", "dataclasses", "inspect", "multiprocessing")


def test_cli_import_loads_no_pool_no_dataclasses_and_no_r3_table():
    # in a fresh interpreter, since this one has loaded them all by now
    probe = (
        "import sys; before = set(sys.modules); import polebracket.cli; "
        "from polebracket import moves; new = set(sys.modules) - before; "
        f"print(sorted(new & set({NOT_AT_START!r}))); "
        "print(moves._r3_table.cache_info().currsize)"
    )
    src = str(Path(polebracket.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=env, timeout=60, check=True)
    assert fresh.stdout == "[]\n0\n", fresh.stdout
    # and no module imports `dataclasses`, not even inside a function
    for path in Path(polebracket.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {a.name for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def _records():
    """One value of each public record type, made by the code that makes it."""
    code = parse_code("O1- O2+ U1- U2+\nB")
    F = realize(code)
    state = splice_curves(F, 0)
    curves = [geometry(F, c) for c in state.curves]
    return {
        "TwistedGaussCode": code,
        "MoveSpec": MoveSpec("T2", "rewrite"),
        "RibbonComplex": F.ribbon,
        "PieceReport": F.pieces[0],
        "EmbeddedCurve": curves[0],
        "CutComplex": cut_complex(F, {}, 0),
        "Region": regions(F, curves)[0],
        "PoleCurve": state.curves[0],
        "PoleState": state,
        "CurveClassification": classify_state(F, state)[0],
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_are_named_tuples_with_the_frozen_dataclass_contract(name):
    x = _records()[name]
    assert type(x).__name__ == name and isinstance(x, tuple)
    fields = type(x)._fields
    if name == "CutComplex":
        # it holds a dict, so, as before, it has no hash
        with pytest.raises(TypeError):
            hash(x)
    else:
        # the frozen dataclass's hash, so sets and dicts keep their order
        assert hash(x) == hash(tuple(x)) == hash(tuple(getattr(x, f) for f in fields))
    if name == "TwistedGaussCode":
        assert repr(x) == "TwistedGaussCode<O1- O2+ U1- U2+ / B>"
    else:
        assert repr(x) == f"{name}({', '.join(f'{f}={getattr(x, f)!r}' for f in fields)})"
    with pytest.raises(AttributeError):
        setattr(x, fields[0], getattr(x, fields[0]))
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is type(x)
    if name == "CutComplex":
        # a polygon complex compares by identity
        assert back.chord_faces == x.chord_faces and back.complex.faces == x.complex.faces
    else:
        assert back == x


def test_move_spec_keeps_its_defaults():
    assert MoveSpec("T2", "rewrite") == MoveSpec("T2", "rewrite", (), 0)


def test_bar_is_one_immutable_value_and_not_a_tuple():
    assert Bar() == BAR and not Bar() != BAR and BAR != Visit(1, True, 1)
    assert hash(BAR) == hash(()) and repr(BAR) == "B"
    assert not isinstance(BAR, tuple) and BAR != ()
    with pytest.raises(AttributeError):
        BAR.twist = 1
    back = pickle.loads(pickle.dumps(BAR))
    assert type(back) is Bar and back == BAR and hash(back) == hash(BAR)
