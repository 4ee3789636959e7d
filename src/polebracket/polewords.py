"""Cyclic pole words and their reduction calculus.

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
order of cancellations, and `index` computes it in closed form without
cancelling anything; `reduce` is the step-by-step rewriting it agrees with.

Words are compared up to rotation, reversal with both side bits swapped,
and sliding a mark past a pole (which toggles that pole's side).  Carrying
one mark all the way around toggles every side, so a global side swap is
available exactly when at least one mark is present.
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


def _pole_positions(word: Word) -> list[int]:
    return [i for i, x in enumerate(word) if x != MARK]


def _redexes(word: Word):
    """Cancellable adjacent pole pairs, as (pos_p, pos_q), leftmost first.
    Pairs are scanned linearly with the wrap-around pair last."""
    ps = _pole_positions(word)
    m = len(ps)
    if m < 2:
        return
    for k in range(m):
        i = ps[k]
        j = ps[(k + 1) % m]
        if k + 1 < m:
            gap = word[i + 1 : j]
        else:
            gap = word[ps[-1] + 1 :] + word[: ps[0]]
        marks = sum(1 for x in gap if x == MARK) % 2
        if word[i] == word[j] ^ marks:
            yield (i, j)


def _cancel(word: Word, i: int, j: int) -> Word:
    return tuple(x for p, x in enumerate(word) if p != i and p != j)


def reduce(word: Word) -> Word:
    """Cancel adjacent pole pairs until none remains, leftmost redex first."""
    w = make_word(word)
    while True:
        redex = next(_redexes(w), None)
        if redex is None:
            return w
        w = _cancel(w, *redex)


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


def join_arcs(x: int, y: int) -> int:
    """The value of arc u followed by arc v, from the values x of u and y of v."""
    return x - y if x & 1 else x + y


def reverse_arc(x: int) -> int:
    """The value of an arc read from its other end, with sides swapped."""
    return 2 - x if x & 1 else x


def closed_index(x: int) -> int:
    """The index of the cyclic word whose arc, cut anywhere, has value x:
    0 for odd length, else |S| / 2."""
    return 0 if x & 1 else abs(x) >> 2


def confluence_oracle(word: Word, max_poles: int = 12) -> bool:
    """Explore every reduction order and compare all terminal words up to
    equivalence.  Exponential; guarded by a pole-count bound."""
    w = make_word(word)
    if len(_pole_positions(w)) > max_poles:
        raise ValueError("word too large for exhaustive reduction search")
    memo: dict[Word, frozenset] = {}

    def terminals(u: Word) -> frozenset:
        hit = memo.get(u)
        if hit is not None:
            return hit
        reds = list(_redexes(u))
        if not reds:
            out = frozenset([canonical_key(u)])
        else:
            acc = set()
            for (i, j) in reds:
                acc |= terminals(_cancel(u, i, j))
            out = frozenset(acc)
        memo[u] = out
        return out

    return len(terminals(w)) == 1


# ---------------------------------------------------------------------------
# equivalence


def _sides_and_gaps(word: Word) -> tuple[list[int], list[int], int]:
    """Side bits in order, mark-count parity of the gap before each pole
    (gap 0 wraps), and the total mark count."""
    total = sum(1 for x in word if x == MARK)
    ps = _pole_positions(word)
    sides = [word[i] for i in ps]
    gaps = []
    for k, i in enumerate(ps):
        if k == 0:
            seg = word[ps[-1] + 1 :] + word[:i] if len(ps) > 0 else word
        else:
            seg = word[ps[k - 1] + 1 : i]
        gaps.append(sum(1 for x in seg if x == MARK) % 2)
    return sides, gaps, total


def canonical_key(word: Word):
    """Orbit invariant of a word under rotation, reversal with side swap,
    and mark slides.  Marks are pushed into a single gap; what remains is
    the side string up to rotation, reversal and, when a mark exists, a
    global side toggle, together with the pole count and total mark parity."""
    w = make_word(word)
    sides, gaps, total = _sides_and_gaps(w)
    parity = total % 2
    n = len(sides)
    if n == 0:
        return (0, parity, ())
    rev_sides = [1 - sides[n - 1 - j] for j in range(n)]
    rev_gaps = [gaps[(n - j) % n] for j in range(n)]
    best = None
    for ss, gg in ((sides, gaps), (rev_sides, rev_gaps)):
        for r in range(n):
            s2 = ss[r:] + ss[:r]
            g2 = gg[r:] + gg[:r]
            acc = 0
            pushed = []
            for j in range(n):
                if j > 0:
                    acc ^= g2[j]
                pushed.append(s2[j] ^ acc)
            cands = [tuple(pushed)]
            if total > 0:
                cands.append(tuple(1 - x for x in pushed))
            for c in cands:
                if best is None or c < best:
                    best = c
    return (n, parity, best)


def equivalent(w1: Word, w2: Word) -> bool:
    return canonical_key(w1) == canonical_key(w2)
