"""The engine's surface pole bracket against the surface-free oracle in
`arrow.py`, through the arrow specialization.

The oracle checks the state trace, the index composition, the kink fold,
the bigon fold, the trie and count table, the folds and the worker merge.  It does not
check the disk test or the homology classes, which the specialization
forgets; `test_moves.py` compares the bracket itself under moves for those.
"""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets
from polebracket.brackets import surface_pole_bracket
from polebracket.codes import parse_code, serialize
from polebracket.laurent import MultiLaurent, delta
from polebracket.moves import MoveSpec, apply_move, insert_sites
from polebracket.states import _engine
from polebracket.surfaces import realize
from polebracket.verify import classical_fixtures, corpus_twisted, twisted_fixtures

from arrow import arrow_bracket
from test_reference_engine import FIXTURES, diagrams, pickling_pool

A, M, d = MultiLaurent.A, MultiLaurent.M, MultiLaurent.d


def engine_arrow(code, workers=1) -> MultiLaurent:
    """Each signature's coefficient times delta per essential curve, M per
    one-sided curve and d_i per curve of index i >= 1."""
    out = MultiLaurent()
    for sig, coeff in surface_pole_bracket(code, workers).classes.items():
        for idx, mob, _sep, _hom in sig:
            coeff = coeff * delta()
            if mob:
                coeff = coeff * M()
            if idx:
                coeff = coeff * d(idx)
        out = out + coeff
    return out


def test_the_oracle_shares_no_surface_code():
    tree = ast.parse(Path(__file__).with_name("arrow.py").read_text(encoding="utf-8"))
    modules = {node.module for node in tree.body if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in tree.body if isinstance(node, ast.Import) for alias in node.names}
    assert "reference" in modules
    assert not {m for m in modules if m.split(".")[-1] in ("states", "surfaces", "brackets")}


def test_virtual_trefoil_by_hand():
    # O1+ O2+ U1+ U2+: ports 0-3 and 4-7, arcs 2-4, 6-1, 3-5 and 7-0, none
    # flipped.  A positive crossing's A-splice joins an in-port to an
    # out-port, so only B-splices make poles.  AA is one curve with no
    # poles; AB and BA are one curve each with word (1, 0) or (0, 1), index
    # 1; BB has (0, 0), which cancels, and (0, 1), index 1.  So
    # A^2 delta + 2 delta d_1 + A^-2 delta^2 d_1
    # = -A^4 - 1 + (A^-6 - A^2) d_1.
    code = parse_code("O1+ O2+ U1+ U2+")
    expect = -A(4) - 1 + (A(-6) - A(2)) * d(1)
    assert arrow_bracket(code) == expect
    assert engine_arrow(code) == expect


def test_fixtures_and_corpora_match_the_oracle():
    codes = [parse_code(text) for text in FIXTURES]
    codes += [code for _n, code in twisted_fixtures() + classical_fixtures()]
    codes += [code for s in range(1, 6) for code in corpus_twisted(s, 60)]
    carries = {"M": 0, "d": 0}
    for code in codes:
        got = arrow_bracket(code)
        assert engine_arrow(code) == got, serialize(code)
        carries["M"] += any(m for _a, m, _d in got.terms)
        carries["d"] += any(ds for _a, _m, ds in got.terms)
    # most of them carry both kinds of label the specialization keeps
    assert min(carries.values()) > 150, carries


def test_inserted_codes_match_the_oracle():
    # R1 kinks are folded in closed form, R2 pokes on their through pair,
    # and T1 bars are traced: a seeded sample of inserts on the corpus, c <= 9
    rng = random.Random(1)
    checked = 0
    for code in corpus_twisted(6, 60, 7):
        for spec in rng.sample(insert_sites(code, rng)[:-1], 2):
            moved = apply_move(code, spec)
            assert engine_arrow(moved) == arrow_bracket(moved), (serialize(code), spec)
            checked += 1
    assert checked == 120


def test_poke_codes_match_the_oracle():
    # one or two R2 pokes, in all four variants, on the corpus, c <= 10:
    # the engine traces each folded bigon's through pair alone, and a kink
    # inside it is not spread; the oracle sums every state
    rng = random.Random(34)
    folded = 0
    for code in corpus_twisted(7, 60, 6):
        for _ in range(rng.randrange(1, 3)):
            gaps = [(ci, g) for ci, comp in enumerate(code.components) for g in range(len(comp) + 1)]
            code = apply_move(code, MoveSpec("R2", "insert", rng.choice(gaps), rng.randrange(4)))
        plan = _engine(realize(code)).plan
        folded += len(plan.r2) + len(plan.alternating)
        assert engine_arrow(code) == arrow_bracket(code), serialize(code)
    assert folded >= 60, folded


@given(diagrams(max_crossings=8), st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_random_diagrams_match_the_oracle(code, workers):
    # the workers' tables come back through pickle, as from worker processes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("concurrent.futures.ProcessPoolExecutor", pickling_pool([]))
        assert engine_arrow(code, workers) == arrow_bracket(code), (serialize(code), workers)
