"""The state engine's splice tables, built from two sign templates, against
the per-dart construction of `reference.splice_tables`; the walker's step
table, made only when something walks; and the classical oracle's own test
for a union of spheres."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets, oracle, verify
from polebracket.codes import Bar, parse_code, random_diagram, serialize
from polebracket.moves import apply_move, insert_sites
from polebracket.states import _Engine, splice_curves
from polebracket.surfaces import realize
from reference import splice_tables
from test_bigons import bigons


def assert_tables_match(code):
    """Every table the engine builds equals the per-dart reference's, and
    each chord bit names the reference's chord of that index.  Returns the
    number of kinks and bigons found."""
    F = realize(code)
    eng = _Engine(F)
    ref = splice_tables(F)
    where = serialize(code)
    assert (eng.items, eng.loops) == ref["items"], where
    # the walker's step rows carry the pole's side and kind at each dart
    step = tuple([row + (s, k) for row, s, k in zip(*rows)] for rows in zip(ref["step"], ref["side"], ref["kind"]))
    assert eng.step == step, where
    chords = ref["chords"]
    assert eng.n_chords == len(chords), where
    assert [eng.chords_of(1 << j) for j in range(len(chords))] == [(ch,) for ch in chords], where
    assert eng.chords_of((1 << len(chords)) - 1) == tuple(chords), where
    assert eng.kinks == ref["kinks"], where
    assert bigons(eng) == ref["bigons"], where
    return len(eng.kinks), len(bigons(eng))


def with_inserts(code, seed):
    """`code` with one R1 and one R2 inserted at seeded sites, so that the
    comparison sees kinks and bigons."""
    rng = random.Random(seed)
    for kind in ("R1", "R2"):
        site = next((s for s in insert_sites(code, rng) if s.kind.startswith(kind)), None)
        if site is not None:
            code = apply_move(code, site)
    return code


FIXTURES = ["EMPTY", "B", "B B", "O1+ U1+", "O1- U1-", "O1+ O2+ U1+ U2+", "B O1+ B U1+",
            "O1- O2+ U1- U2+\nB", "O1+ U1+\nEMPTY", "U1+ U2- O2- O1+", "U1+ U2- O1+ O2-",
            "O1+ O2+ B U1+ U2+", "O1+ B B U1+ O2+ U2+ B B", "O1- U2- O3- U1- O2- U3-"]


@pytest.mark.parametrize("text", FIXTURES)
def test_tables_match_reference_on_fixtures(text):
    assert_tables_match(parse_code(text))


def test_tables_match_reference_on_corpora():
    codes = [code for s in range(1, 6) for code in verify.corpus_twisted(s, 200)]
    codes += [code for s in range(1, 3) for code in verify.corpus_classical(s)]
    codes += [code for _n, code in verify.twisted_fixtures() + verify.classical_fixtures()]
    codes += [with_inserts(code, i) for i, code in enumerate(verify.corpus_twisted(4, 200, 6))]
    kinks = bigons = 0
    for code in codes:
        k, b = assert_tables_match(code)
        kinks += k
        bigons += b
    # the corpora reach both signs, bare loops, kinks and bigons
    loops = sum(1 for code in codes if realize(code).ribbon.total_darts > 4 * len(code.crossing_ids))
    assert len(codes) > 1300 and loops > 50 and kinks > 1000 and bigons > 200, (len(codes), loops, kinks, bigons)


@st.composite
def diagrams(draw):
    """c <= 9, bars <= 4, 1-3 components, sometimes one of them a bare loop,
    barred or not."""
    c = draw(st.integers(min_value=0, max_value=9))
    b = draw(st.integers(min_value=0, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    loop = draw(st.sampled_from(("", "EMPTY", "B"))) if k > 1 else ""
    main = random_diagram(seed, c, b, min(k - bool(loop), max(1, 2 * c + b)))
    return parse_code(serialize(main) + loop)


@given(diagrams(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_tables_match_reference_random(code, seed):
    assert_tables_match(code)
    assert_tables_match(with_inserts(code, seed))


def _no_step(_eng):
    raise RuntimeError("built the walker's step table")


def test_sums_build_no_step_table(monkeypatch):
    # only the walker reads `step`: the check battery and the normalized
    # invariant sum without it, and give the same results
    codes = verify.corpus_twisted(5, 20)
    expect = [brackets.normalized(code) for code in codes]
    battery = verify.run_battery(2, 3)
    monkeypatch.setattr(_Engine, "step", property(_no_step))
    assert [brackets.normalized(code) for code in codes] == expect
    assert verify.run_battery(2, 3) == battery
    assert all(bad == [] for _label, _n, bad in battery)
    # the walker does build it
    with pytest.raises(RuntimeError, match="step table"):
        splice_curves(realize(parse_code("O1+ U1+")), 0)


def test_step_table_is_made_on_first_walk():
    F = realize(parse_code("O1- O2+ U1- U2+\nB"))
    eng = _Engine(F)
    F._state_engine = eng
    assert "step" not in vars(eng)
    splice_curves(F, 0)
    assert "step" in vars(eng)


def test_oracle_refuses_exactly_the_non_spheres():
    # the oracle decides "union of spheres" on its own port pairing; it
    # must refuse a code just where the realization has a piece that is
    # not a sphere
    codes = [code for s in range(1, 6) for code in verify.corpus_twisted(s, 200, 7)]
    codes = [code for code in codes if not any(isinstance(t, Bar) for comp in code.components for t in comp)]
    codes += [code for s in range(1, 6) for code in verify.corpus_classical(s)]
    codes += [code for _n, code in verify.classical_fixtures()]
    codes += [parse_code(t) for t in ("EMPTY", "O1+ U1+\nEMPTY", "O1+ O2+ U1+ U2+", "U1+ U2- O1+ O2-")]
    refused = 0
    for code in codes:
        spheres = all(p.euler == 2 for p in realize(code).pieces)
        if spheres:
            oracle.classical_kauffman_oracle(code)
        else:
            refused += 1
            with pytest.raises(ValueError, match="not a union of spheres"):
                oracle.classical_kauffman_oracle(code)
    assert refused > 100 and len(codes) - refused > 300, refused
    with pytest.raises(ValueError, match="bar-free"):
        oracle.classical_kauffman_oracle(parse_code("B O1+ B U1+"))


def test_oracle_shares_no_surface_code():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    assert not {m for m in modules if m and m.split(".")[-1] in ("states", "surfaces", "brackets", "cells")}
