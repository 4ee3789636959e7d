"""Cyclic pole words, their index, and the arcs a state sum builds it from.

A state curve carries a cyclic word recording, in traversal order, the poles
it passes (each with a side bit) and a flip mark for every orientation
reversing band it runs through.  Pole kinds (sink or source) alternate along
the curve and are therefore not stored.

Items are small ints: 0 a left-side pole, 1 a right-side pole, 2 a flip
mark.  An adjacent pair of poles (no pole strictly between them on one of
the two cyclic arcs) cancels exactly when their side bits agree after
accounting for the parity of flip marks on that arc; the marks survive the
cancellation.  The index of a curve is half the number of poles left when no
pair cancels.  Reduction is confluent, so the index does not depend on the
order of cancellations.  `index` computes it in closed form without
cancelling anything, and a state sum composes it from the values of the
open arcs it joins (`arc`, `closed_index`).  The join and the reversal of
arcs, which the sum inlines, the step-by-step rewriting, the search over
every cancellation order and word equivalence are the tests' reference,
in `tests/reference.py`.
"""

from __future__ import annotations

from typing import Iterable

L, R, MARK = 0, 1, 2
Word = tuple[int, ...]


def make_word(items: Iterable[int]) -> Word:
    w = tuple(items)
    for x in w:
        if x not in (L, R, MARK):
            raise ValueError(f"bad word item {x!r}")
    return w


def index(word: Word) -> int:
    """Half the pole count of the reduced word, in closed form.

    XOR each pole's side with the parity p of the marks before it: two
    neighbouring poles then cancel exactly when the new bits are equal, so
    reduction along the word is free reduction in Z/2 * Z/2, whose reduced
    words alternate.  XOR the bit once more with the parity of the count k
    of poles before it, and cancelling pairs become unequal neighbours, so
    the reduced length is m = |#ones - #zeros|.  p ^ (k & 1) is just the
    parity of the pole's position in the word, since every item before it
    is a mark or a pole.  On the alternating reduced word the wrap-around
    pair cancels either always or never: it cancels, and with it every
    pole down to at most one, exactly when the total mark parity T differs
    from the pole-count parity, that is when the word has odd length.
    So the index is `closed_index(arc(word))`.
    """
    return closed_index(arc(word))


# ---------------------------------------------------------------------------
# arcs: the index of a word assembled from its pieces
#
# An arc is an open stretch of a curve's word.  Its value is 2 S + (its
# length mod 2), where the signed sum S counts +1 for every pole whose side
# is R XOR whose position in the arc is odd and -1 for every other pole
# (#ones - #zeros in `index`).  A value is all a state sum carries along an
# open path: it composes under concatenation, S(uv) = S(u) + (-1)^|u| S(v),
# and reading an arc from its other end, reversed with sides swapped, gives
# S = (-1)^|u| S(u); a closed word's index reads off its value.


def arc(word: Word) -> int:
    """The value 2 S + (len & 1) of an arc."""
    w = tuple(word)
    poles = len(w) - w.count(MARK)
    if w.count(L) + w.count(R) != poles:
        make_word(w)  # raises on the bad item
    ones = w[0::2].count(R) + w[1::2].count(L)
    return 2 * (2 * ones - poles) + (len(w) & 1)


def closed_index(x: int) -> int:
    """The index of the cyclic word whose arc, cut anywhere, has value x:
    0 for odd length, else |S| / 2."""
    return 0 if x & 1 else abs(x) >> 2
