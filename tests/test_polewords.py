import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from polebracket.polewords import L, MARK, R, arc, closed_index, index, make_word
from reference import canonical_key, confluence_oracle, equivalent, join_arcs, reduce, reverse_arc


# the three moves that keep a word in its equivalence class, and a random
# walk over them: generators of equivalent words for the invariance tests


def rotate(word, r: int):
    w = make_word(word)
    if not w:
        return w
    r %= len(w)
    return w[r:] + w[:r]


def reverse_swap(word):
    return tuple((1 - x) if x != MARK else MARK for x in reversed(make_word(word)))


def slide_mark(word, i: int):
    """Move the mark at position i forward past the next item; passing a
    pole toggles that pole's side."""
    w = make_word(word)
    if w[i] != MARK:
        raise ValueError("no mark at position")
    if len(w) == 1:
        return w
    j = (i + 1) % len(w)
    if w[j] == MARK:
        return w
    out = list(w)
    out[i] = 1 - w[j]
    out[j] = MARK
    return tuple(out)


def random_equivalent(word, rng, steps: int = 12):
    """A word in the same equivalence class, reached by random legal moves."""
    w = make_word(word)
    for _ in range(steps):
        choice = rng.randrange(3)
        if choice == 0 and w:
            w = rotate(w, rng.randrange(len(w)))
        elif choice == 1:
            w = reverse_swap(w)
        else:
            marks = [i for i, x in enumerate(w) if x == MARK]
            if marks:
                w = slide_mark(w, rng.choice(marks))
    return w


def test_reduce_equal_sides_cancel():
    # adjacent pair with equal sides and no marks between cancels
    assert reduce((L, L)) == ()
    assert reduce((R, R)) == ()
    assert index((L, L)) == 0


def test_reduce_opposite_sides_block():
    assert reduce((L, R)) == (L, R)
    assert index((L, R)) == 1


def test_mark_parity_flips_cancellation():
    # a mark between opposite sides enables the cancellation...
    assert reduce((L, MARK, R)) == (MARK,)
    # ...and between equal sides disables the direct arc, but the wrap
    # arc has no mark, so the pair still cancels the other way around
    assert reduce((L, L, MARK)) == (MARK,)
    # marks on both arcs block both routes
    assert reduce((MARK, L, MARK, L)) == (MARK, L, MARK, L)
    assert index((MARK, L, MARK, L)) == 1


def test_fully_reducible_chain():
    # nested cancellations: poles vanish two at a time
    w = (L, R, R, L)
    assert reduce(w) == ()
    assert index(w) == 0


def test_alternating_word_irreducible():
    w = (L, R, L, R)
    assert reduce(w) == w
    assert index(w) == 2
    assert index((L, R)) == 1


def test_canonical_key_invariances():
    w = (L, MARK, R, L, R)
    assert canonical_key(w) == canonical_key(rotate(w, 2))
    assert canonical_key(w) == canonical_key(reverse_swap(w))
    marks = [i for i, x in enumerate(w) if x == MARK]
    assert canonical_key(w) == canonical_key(slide_mark(w, marks[0]))


def test_equivalent_distinguishes():
    assert equivalent((L, R), (R, L))          # rotation
    assert equivalent((L, L), (R, R))          # reversal swaps sides
    assert not equivalent((L, R), (L, L))
    assert not equivalent((L, R, L, R), (L, R))


def test_slide_mark_toggles_side():
    w = (MARK, L, R)
    assert slide_mark(w, 0) == (R, MARK, R)


_items = st.lists(st.sampled_from([L, R, MARK]), max_size=12)


@given(_items)
@settings(max_examples=120, deadline=None)
def test_reduce_idempotent(items):
    w = make_word(items)
    assert reduce(reduce(w)) == reduce(w)


@given(_items, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=120, deadline=None)
def test_index_is_class_invariant(items, seed):
    w = make_word(items)
    rng = random.Random(seed)
    w2 = random_equivalent(w, rng)
    assert equivalent(w, w2)
    assert index(w) == index(w2)


@given(_items)
@settings(max_examples=100, deadline=None)
def test_confluence_on_small_words(items):
    assert confluence_oracle(make_word(items))


def _reduced_index(word):
    return sum(x != MARK for x in reduce(word)) // 2


def test_index_matches_reduction_on_all_short_words():
    # every word of at most 10 items: 88,573 words, odd pole counts included
    count = 0
    for n in range(11):
        for w in itertools.product((L, R, MARK), repeat=n):
            assert index(w) == _reduced_index(w), w
            count += 1
    assert count == (3**11 - 1) // 2


def test_arc_values_compose_on_all_short_words():
    # cut every word of at most 10 items at every point into arcs u and v:
    # u's value, read from its other end with sides swapped and turned back,
    # joined with v's gives the index of the word, and so do v's value
    # joined with u's (the word rotated), as a state sum closes a curve at
    # any chord
    words = [w for n in range(11) for w in itertools.product((L, R, MARK), repeat=n)]
    value = {w: arc(w) for w in words}
    turned = {w: reverse_arc(value[reverse_swap(w)]) for w in words}
    splits = 0
    for w in words:
        want = index(w)
        assert closed_index(value[w]) == want
        for i in range(len(w) + 1):
            u, v = w[:i], w[i:]
            assert closed_index(join_arcs(turned[u], value[v])) == want, (w, i)
            assert closed_index(join_arcs(value[v], value[u])) == want, (w, i)
            splits += 1
    assert splits == sum((n + 1) * 3**n for n in range(11))


def test_index_matches_reduction_on_random_words():
    rng = random.Random(20141)
    for _ in range(2000):
        w = [rng.choice((L, R)) for _ in range(rng.randrange(13))]
        for _ in range(rng.randrange(5)):
            w.insert(rng.randrange(len(w) + 1), MARK)
        assert index(tuple(w)) == _reduced_index(tuple(w)), w


def test_index_rejects_bad_items():
    with pytest.raises(ValueError):
        index((L, 3, R))
    assert index([L, MARK, L, MARK]) == 1


def test_confluence_guard():
    with pytest.raises(ValueError):
        confluence_oracle((L,) * 20, max_poles=12)
