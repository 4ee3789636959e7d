"""Metamorphic identities of the double bracket.

Any correct state sum satisfies these, and checking them shares no code with
curve classification: each identity compares two full evaluations of
`double_bracket` on codes related by a rewrite of the code text.

- mirror (swap O/U and negate every sign): every state of the mirror is a
  state of the original with A- and B-splices exchanged, so <<D*>> is <<D>>
  with each A exponent negated, and M and d_i unchanged;
- disjoint union, the second code's crossings relabelled past the first's:
  the surface is the disjoint union and so is every state, so
  <<D1 u D2>> = <<D1>> * <<D2>>;
- reversing every component leaves <<D>> unchanged.
"""

from hypothesis import given, settings, strategies as st

from polebracket.brackets import double_bracket
from polebracket.codes import Visit, make_code, random_diagram
from polebracket.laurent import MultiLaurent


@st.composite
def diagrams(draw):
    """c <= 6, bars <= 3, 1-2 components."""
    c = draw(st.integers(min_value=0, max_value=6))
    b = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_diagram(seed, c, b, min(k, max(1, 2 * c + b)))


def _map_visits(code, f):
    return make_code(
        [f(t) if isinstance(t, Visit) else t for t in comp] for comp in code.components
    )


def mirror(code):
    return _map_visits(code, lambda t: Visit(t.crossing, not t.over, -t.sign))


def disjoint_union(code1, code2):
    shift = max(code1.crossing_ids, default=0)
    code2 = _map_visits(code2, lambda t: Visit(t.crossing + shift, t.over, t.sign))
    return make_code(code1.components + code2.components)


def reverse(code):
    return make_code(tuple(reversed(comp)) for comp in code.components)


def negate_a(p: MultiLaurent) -> MultiLaurent:
    return MultiLaurent({(-a, m, d): coeff for (a, m, d), coeff in p.terms.items()})


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_mirror_negates_a_exponents(code):
    assert double_bracket(mirror(code)) == negate_a(double_bracket(code))


@given(diagrams(), diagrams())
@settings(max_examples=50, deadline=None)
def test_disjoint_union_multiplies(code1, code2):
    union = disjoint_union(code1, code2)
    assert double_bracket(union) == double_bracket(code1) * double_bracket(code2)


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_reversal_leaves_the_bracket_unchanged(code):
    assert double_bracket(reverse(code)) == double_bracket(code)
