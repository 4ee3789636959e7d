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

Relabelling crossings and reordering components are checked on the bytes
that `polebracket invariant` and `polebracket bracket` print.  The
invariant's bytes never change.  The bracket names each curve's homology
class by coordinates in a basis built from the disks and bands in crossing
order and component order, so its bytes are checked unchanged under a
relabelling that keeps the order of the crossing ids, and with the
coordinates left out under any relabelling and any component order.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from polebracket import cli
from polebracket.brackets import double_bracket
from polebracket.codes import Visit, make_code, random_diagram, serialize
from polebracket.laurent import MultiLaurent


@st.composite
def diagrams(draw, max_components=2):
    """c <= 6, bars <= 3, 1 to max_components components."""
    c = draw(st.integers(min_value=0, max_value=6))
    b = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=1, max_value=max_components))
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


def relabel(code, new_id):
    return _map_visits(code, lambda t: Visit(new_id[t.crossing], t.over, t.sign))


def cli_output(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def bracket_without_coordinates(code):
    """The `bracket --json` classes with each curve's "hom" dropped, as a
    sorted list of (curves, coefficient) texts; classes that then coincide
    stay separate entries."""
    classes = json.loads(cli_output("bracket", "--json", "-i", serialize(code)))
    for cls in classes:
        for curve in cls["curves"]:
            del curve["hom"]
    return sorted(json.dumps(cls, sort_keys=True) for cls in classes)


@st.composite
def relabelled(draw):
    """A diagram with 1-3 components, and a map of its crossing ids onto
    distinct new ids in 1..40."""
    code = draw(diagrams(3))
    ids = code.crossing_ids
    new = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=len(ids),
                        max_size=len(ids), unique=True))
    return code, dict(zip(ids, new))


@given(relabelled())
@settings(max_examples=60, deadline=None)
def test_relabelling_crossings_leaves_the_output_bytes_unchanged(case):
    code, new_id = case
    text = serialize(code)
    shuffled = serialize(relabel(code, new_id))
    in_order = serialize(relabel(code, dict(zip(code.crossing_ids, sorted(new_id.values())))))
    assert cli_output("invariant", "-i", shuffled) == cli_output("invariant", "-i", text)
    assert cli_output("bracket", "-i", in_order) == cli_output("bracket", "-i", text)
    assert bracket_without_coordinates(relabel(code, new_id)) == bracket_without_coordinates(code)


@given(diagrams(3), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_reordering_components_leaves_the_output_bytes_unchanged(code, rng):
    comps = list(code.components)
    rng.shuffle(comps)
    reordered = make_code(comps)
    text = serialize(code)
    assert cli_output("invariant", "-i", serialize(reordered)) == cli_output("invariant", "-i", text)
    assert bracket_without_coordinates(reordered) == bracket_without_coordinates(code)
