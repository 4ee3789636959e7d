import random

import pytest
from hypothesis import given, settings, strategies as st

from polebracket.codes import (
    CodeError,
    Visit,
    parse_code,
    random_diagram,
    serialize,
    writhe,
)
from polebracket.verify import corpus_twisted


def test_parse_basic():
    code = parse_code("O1+ U2- B O2- U1+")
    assert len(code.components) == 1
    assert code.crossing_ids == (1, 2)
    assert code.signs() == {1: 1, 2: -1}


def test_parse_empty_and_multiline():
    code = parse_code("EMPTY\nO1+ U1+\n# trailing comment only\n")
    assert len(code.components) == 2
    assert code.components[0] == ()


def test_parse_rejects_garbage():
    for bad in ("O1", "Q1+", "O1+ U1+ O1+", "O1+ O1- U1+ U1-", "EMPTY O1+"):
        with pytest.raises(CodeError):
            parse_code(bad)


def test_parse_rejects_sign_mismatch():
    with pytest.raises(CodeError):
        parse_code("O1+ U1-")


def test_serialize_round_trip_literal():
    text = "O1+ U2- O2- U1+\nB B\nEMPTY\n"
    assert serialize(parse_code(text)) == text


def test_writhe_counts_each_crossing_once():
    assert writhe(parse_code("O1+ U1+")) == 1
    assert writhe(parse_code("O1+ U2- O2- U1+")) == 0
    assert writhe(parse_code("EMPTY")) == 0


@st.composite
def _codes(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    bars = draw(st.integers(min_value=0, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    comps = draw(st.integers(min_value=1, max_value=2))
    if comps > max(1, 2 * n + bars):
        comps = 1
    return random_diagram(seed, n, bars, components=comps)


# direct scans of the tokens, the references for `crossing_ids` and
# `writhe`, which read `signs()`


def ref_crossing_ids(code):
    seen = set()
    for comp in code.components:
        for tok in comp:
            if isinstance(tok, Visit):
                seen.add(tok.crossing)
    return tuple(sorted(seen))


def ref_writhe(code):
    return sum(
        tok.sign
        for comp in code.components
        for tok in comp
        if isinstance(tok, Visit) and tok.over
    )


def _assert_scans_match_reference(code):
    assert code.crossing_ids == ref_crossing_ids(code)
    assert writhe(code) == ref_writhe(code)


@given(_codes())
@settings(max_examples=60, deadline=None)
def test_token_scans_match_reference(code):
    _assert_scans_match_reference(code)


def test_token_scans_match_reference_on_corpus():
    for code in corpus_twisted(3, 60):
        _assert_scans_match_reference(code)


@given(_codes())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(code):
    assert parse_code(serialize(code)) == code


def test_random_diagram_deterministic():
    a = random_diagram(42, 5, 2)
    b = random_diagram(42, 5, 2)
    assert a == b and serialize(a) == serialize(b)


def test_random_diagram_infeasible():
    with pytest.raises(ValueError):
        random_diagram(1, 0, 0, components=2)
    with pytest.raises(ValueError):
        random_diagram(1, -1, 0)


def test_random_diagram_counts():
    rng = random.Random(0)
    for _ in range(20):
        c, b = rng.randrange(5), rng.randrange(4)
        code = random_diagram(rng.randrange(10**6), c, b)
        assert len(code.crossing_ids) == c
        assert sum(1 for comp in code.components for t in comp if not isinstance(t, Visit)) == b
