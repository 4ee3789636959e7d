import pickle
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import reference
from polebracket.codes import (
    BAR,
    CodeError,
    TwistedGaussCode,
    Visit,
    make_code,
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


# the parser and the validator against the regular-expression parser and
# the ordered validator of `tests/reference.py`: equal codes, or CodeErrors
# with equal text

_FRAGMENTS = [
    "O", "U", "o", "u", "B", "b", "0", "1", "2", "7", "01", "12", "+", "-", "\u2212",
    "\u0661", "\u00b2", "\uff10", " ", "  ", "\t", "\n", "#", "EMPTY", "O+", "O01+", "o1+",
    "O1+", "U1+", "O1-", "U1-", "O2+", "U2+", "U\u0661+", "O\u00b2-", "U\uff10+", "O\u0967+",
]


def _outcome(parse, text):
    try:
        return parse(text)
    except CodeError as e:
        return f"CodeError: {e}"


def _assert_parses_like_reference(text):
    got = _outcome(parse_code, text)
    assert got == _outcome(reference.parse_code_regex, text), repr(text)
    return got


@st.composite
def _texts(draw):
    """Text made of fragments: on its own, or spliced into a valid code."""
    frags = draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=12))
    if draw(st.booleans()):
        return "".join(frags)
    words = serialize(draw(_codes())).split(" ")
    for frag in frags:
        words.insert(draw(st.integers(min_value=0, max_value=len(words))), frag)
    return " ".join(words)


@given(_texts())
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_regex_parser(text):
    _assert_parses_like_reference(text)


@pytest.mark.parametrize("text", [
    "O1+ U1+", "O1\u2212 U1\u2212", "O1+ U\u0661+", "O\u0661+ U\u0661+", "O\u00b2+ U\u00b2+",
    "O\uff10+ U\uff10+", "O+ U+", "O01+ U1+", "o1+ u1+", "O1+ U1+ # a comment", "# only\n",
    "EMPTY", "EMPTY\nEMPTY", "EMPTY B", "O1+ U1+\nB B\nEMPTY\n", "O1+U1+", "O1++ U1+",
    "O0+ U0+", "O1+ U1+ O1+", "O1+ O1- U1+ U1-", "O1+ U1-", "", "B\u00a0B",
])
def test_parser_matches_the_regex_parser_on_edge_cases(text):
    _assert_parses_like_reference(text)


def test_parser_reads_only_ascii_digits():
    # int() reads an Arabic-Indic one or a fullwidth zero, the old pattern
    # [0-9] did not, and neither does the parser
    for digit in ("\u0661", "\u00b2", "\uff10", "\u0967"):
        with pytest.raises(CodeError, match="token 2: bad token"):
            parse_code(f"O1+ U{digit}+")
    assert _assert_parses_like_reference("O01+ U1+") == parse_code("O1+ U1+")


_VISITS = st.builds(
    Visit,
    st.integers(min_value=-1, max_value=4),
    st.booleans(),
    st.sampled_from((1, -1, 0, 2)),
)


@given(st.lists(st.lists(st.one_of(_VISITS, st.just(BAR)), max_size=8), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None)
def test_validator_matches_the_ordered_validator(components):
    def ref(comps):
        reference.validate(comps)
        return TwistedGaussCode(tuple(tuple(c) for c in comps))

    assert _outcome(make_code, components) == _outcome(ref, components)


def test_validator_matches_the_ordered_validator_on_corpus():
    # valid codes, and each with one visit's sign, side or id changed
    rng = random.Random(37)
    for code in corpus_twisted(4, 80, 9):
        comps = [list(c) for c in code.components]
        assert make_code(comps) == code
        if not code.signs():
            continue
        ci = next(i for i, c in enumerate(comps) if any(isinstance(t, Visit) for t in c))
        i = next(i for i, t in enumerate(comps[ci]) if isinstance(t, Visit))
        t = comps[ci][i]
        for bad in (t._replace(sign=-t.sign), t._replace(over=not t.over),
                    t._replace(crossing=rng.choice((0, t.crossing + 1)))):
            comps[ci][i] = bad
            got = _outcome(make_code, comps)
            assert got.startswith("CodeError")
            assert got == _outcome(lambda x: reference.validate(x), comps)
        comps[ci][i] = t


@dataclass(frozen=True)
class _FrozenVisit:
    crossing: int
    over: bool
    sign: int


def test_visit_is_an_immutable_tuple_with_the_dataclass_hash():
    v = Visit(12, True, -1)
    assert hash(v) == hash((12, True, -1)) == hash(_FrozenVisit(12, True, -1))
    assert (v.crossing, v.over, v.sign) == (12, True, -1)
    assert repr(v) == "O12-" and repr(Visit(3, False, 1)) == "U3+"
    with pytest.raises(AttributeError):
        v.sign = 1
    assert not isinstance(BAR, Visit)
    assert v != BAR and BAR != v
    back = pickle.loads(pickle.dumps(v))
    assert back == v and type(back) is Visit
    code = parse_code("O1+ U2- B O2- U1+\nEMPTY")
    assert pickle.loads(pickle.dumps(code)) == code
    # a set of visits iterates in the order it did when they were dataclasses
    visits = [t for c in corpus_twisted(2, 30) for comp in c.components for t in comp
              if isinstance(t, Visit)]
    frozen = [_FrozenVisit(*t) for t in visits]
    assert [tuple(t) for t in set(visits)] == [
        (t.crossing, t.over, t.sign) for t in set(frozen)
    ]
