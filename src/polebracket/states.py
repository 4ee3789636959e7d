"""Surface pole states: splice enumeration, curve tracing, classification.

A state picks an A- or B-splice at every classical crossing (bitmask bit set
= B).  Inside each crossing disk the four band ends are rejoined in adjacent
pairs; joining two in-ends creates a sink pole (I), two out-ends a source
pole (O).  The resulting closed curves are traced through the bands,
collecting pole side bits and flip marks into cyclic pole words, then
classified against the capped surface: bounds-disk, separating, one-sided,
and the reduction index of the word.

A curve is its key, the union of its chord and band bits, and its pole
word.  Of its four classes only the disk test needs the curve's chords,
and it reads them off the key.  One-sidedness (the flip parity, w1) and
the Z/2 homology class are XORs over its bands, and the index comes from
its word.  A curve that is one-sided or has a nonzero class bounds no
disk, so its class is a function of (index, class, parity): an int id in
one small per-surface class table, and 0 for a disk.  Only a two-sided
curve of class 0 is keyed by its chord set, in a cache of disk tests;
`sum_counts` folds each state into one count table, under one of two
labellings of its essential curves: by signature, which the surface pole
bracket needs, or by (M, d) part, all that the double bracket and R need;
or under both, from one trace.  Only the walker path builds
`CurveClassification`s.

Every chord a splice can draw has one bit, so a chord set is an int: the
bits of crossing disk k's four chords are 4k .. 4k+3, and bare loop i's is
4c+i (see `_Engine`).
`sum_counts` never traces a state from scratch and never walks a curve.
It grows the curves of a block of states at once: the bands start as
open paths, a chord that joins the two ends of one path closes a curve,
and any other chord joins two paths.  One pass draws, for good, the
chords every state of the block shares, then the block descends over the
crossings above 0 it chooses, as deep as the traced bits, undoing their
joins on the way back.  Crossing 0 comes last: its four darts end the
two paths left, so each of its choices closes both by reading their
ends, with no write and no undo.  A curve closed at a node is classified
once, for every state below it.
Each open path keeps one record at each of its ends, with all a closing
needs: the other end; its homology class and flip parity, the XOR of
per-band values; its chord and band bits, the curve's key; the
`polewords.arc` value of its word read from that end, which gives the
index by the composition law of arcs; and the kind of the pole nearest
that end, so that each pole pair is checked to alternate when a join or
a closing chord makes it adjacent.  A join writes two records.  Every
closing also checks that the curve has as many chords as bands.
`splice_curves` walks each curve of one state with `_Engine.walk`, which
makes the same alternation check and returns the same key, so `lookup`
reads the cache `block` fills.

R1 kinks are summed in closed form (Kauffman, "State models and the Jones
polynomial", Topology 26, 1987).  A kink is an unflipped band from an
out-dart to the other strand's in-dart on its own crossing disk.  One
splice of that crossing, the loop-off, draws the chord that closes the band
into a circle bounding a disk, and its other chord joins the two curve
ends that the through splice reaches across the band.  The through curve's
two extra poles are adjacent across an unflipped band with equal sides, so
they cancel: a loop-off state has the through state's curves, plus one
inessential circle, with the B-count moved by one.  `block` traces only the
through splice of a kink bit it is free to choose and counts the loop-off
states from the traced ones, which it spreads over the loop-off states at
its end; `_Engine.__init__` finds the kinks, one per crossing, and checks
this premise once.  The count table is the same for every range.

Bigons are folded too, when a sum's caller asks (Kauffman, same paper;
the source paper's R2 invariance).  A bigon is two unflipped bands that
join crossing disks x != y and bound one cap with exactly two corners.  The
two crossing disks, the two bands and the cap form a disk in F.  Of the
four splice pairs at x and y, the through pair lets both strands pass; the
other three turn them back, agree outside that disk, and inside it one of
them has one more circle, around the cap, which bounds a disk: so the three
share one signature, with k, k and k + 1 disk circles.  Whether an R2
deletion would keep the surface is a question about moves, and the sum
never asks it, so the torus look-alike U1+ U2- O1+ O2- folds too.
- An R2 bigon has one band over at both ends and one under at both, at
  crossings of opposite signs.  Its three turned-back states have naturals
  n and n - 4 with k disk circles and n - 2 with k + 1, so they add up to
  A^(n-2) delta^k (A^2 + A^-2 + delta) = 0.  `block` traces only the
  through pair of an R2 bigon whose two bits it is free to choose, and
  counts nothing for the other three.  A kink on its crossing has the
  bigon's through choice as its own, and the bigon takes precedence: the
  kink is not spread in such a block.
- An alternating bigon has bands from over to under, at crossings of equal
  signs, and equal through bits (around a two-corner cap the over-and-under
  test and the sign test agree).  Say the through pair is AA (mirror it
  all when it is BB): AB and BA have natural n - 2 and k disk circles, BB
  n - 4 and k + 1, and the weights do not cancel.  `block` traces x's
  through choice and both of y's, and spreads y's turned-back state as a
  kink's loop-off is spread: count 2 at its own key, and 1 at one more disk
  circle and one more B-splice, one fewer when the through bits are 1.
  Half of the four states are traced.  A kink on an alternating bigon's
  crossing folds as a kink, and that bigon is traced as it stands.
The search takes the R2 bigons first, as they fold two bits each, and the
pairs are disjoint.  A bigon with a fixed bit is traced as it stands, and a
kink on it folds as a kink.  `_Engine.__init__` makes these decisions once,
in the engine's fold plan (`_Plan`): each block takes its folds from it,
and the command line prices a sum by its traced bits.  An R2 fold leaves
fewer states in the table, but every polynomial read off it is the same,
so `sum_counts` folds bigons only where its caller asks; `check`, which
counts the states it checks and reads each entry, does not.

The sum counts with ints.  Each class of essential curve has a small int
id, and the essential curves closed so far are one node of a trie of
such ids: closing a curve moves to a child node by one dict lookup.  A
state is counted under one int leaf key that packs its node, its
inessential-curve count and its B-splice count.  At the end a labelling
gives each node a label: its bag of class ranks, which unpacks to its
signature (`_Engine.signatures`), or its (M, d) part packed as an int, its
parent's plus its own curve's (`_Engine.parts`), so that R builds no
signature.  One pass (`_Engine.table`) turns the leaf counts into the count
table (`CountTable`), one row of counts per distinct label: each node gets
its label's row, nodes that hold one label merge by exact addition, and
each label is unpacked once.  The writhe, which R reads off the table, is
read off the ribbon.

The two structure results of the paper are checked without a state walk.
A curve of positive index never separates: `_Engine.classify` refuses a
two-sided curve of class 0 and positive index, which separates whether or
not it bounds a disk, as each curve of each sum or walk is classified, and
`check_nonseparation` reads the essential curves off a count table.  Every
complementary region of a state sees as many I-poles as O-poles:
`pole_regions` finds a full state's regions as the caps joined at each
crossing disk's middle, O(c) per state, and reads each pole's kind off the
dart layout, not off the engine's tables.  The walker (`splice_curves`,
`classify_state`, `lookup`) serves the `states` command, which prints each
curve's pole count and classes, so it keeps only a curve's key and word.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import islice
from math import comb
from typing import Callable, Iterator, NamedTuple

from . import polewords
from .polewords import MARK
from .surfaces import ClosedSurface, EmbeddedCurve


class PoleCurve(NamedTuple):
    """One state curve: its key (chord bits | band bits << n_chords, as
    `_Engine` numbers them) and its cyclic pole word.  The key is where the
    curve runs: its chords, bands and flip parity read back off it."""

    key: int
    word: tuple[int, ...]


class PoleState(NamedTuple):
    choice: int
    natural: int
    curves: tuple[PoleCurve, ...]


class CurveClassification(NamedTuple):
    inessential: bool
    separating: bool
    mobius: bool
    index: int
    hom_class: tuple[int, ...]


_ID_BITS = 20
_ID_LIMIT = 1 << _ID_BITS
# the `polewords.arc` of a band's word, by its flip (no mark, one mark), and
# of a one-pole word, by its side bit
_BAND_ARC = (polewords.arc(()), polewords.arc((MARK,)))
_POLE_ARC = (polewords.arc((0,)), polewords.arc((1,)))
# the bits of a byte, low bit first: a homology class is unpacked 8 bits at a time
_BYTE_BITS = tuple(tuple((b >> i) & 1 for i in range(8)) for b in range(256))


# The splice templates of crossing disk 0, whose darts (oi, ui, oo, uo) are
# 0..3, by sign and then by splice bit; disk k's are these shifted by 4k.
# Sign 0 is a positive disk, rotation (oi, ui, oo, uo), and sign 1 a
# negative one, (oi, uo, oo, ui): bit 1 of the disk's second dart.  Bit 0
# of rotation (r0, r1, r2, r3) draws the chords (r1, r2) and (r3, r0), bit 1
# (r0, r1) and (r2, r3).  So both signs draw the four chords of
# `_CHORD_DARTS`, whose chord bits are 0..3 in that order: the bit that
# differs from the sign joins in-in (0, 1) and out-out (2, 3), an I and an
# O pole, and the other joins each in-dart to an out-dart.  `_TAU` is the
# far dart of the chord from each dart, and `_CHORDS` a bit's two chords as
# (a, b, chord bit), a < b, in order of a.  `_ITEMS` is a bit's row of
# `_Engine.items`, (bit, a1, b1, 1 << chord bit, arc, kind, a2, ...), by
# sign and bit: a pole's kind is 1 for a sink (I, in-darts 0 and 1) and 2
# for a source (O), and its arc is the `polewords.arc` of its side read
# from a, side 0 when b is the next dart after a counterclockwise.
_CHORD_DARTS = ((0, 1), (0, 3), (1, 2), (2, 3))
_TAU = (((3, 2, 1, 0), (1, 0, 3, 2)), ((1, 0, 3, 2), (3, 2, 1, 0)))
_CHORDS = ((((0, 3, 1), (1, 2, 2)), ((0, 1, 0), (2, 3, 3))),
           (((0, 1, 0), (2, 3, 3)), ((0, 3, 1), (1, 2, 2))))


def _item(sign: int, bit: int) -> tuple:
    row = (bit,)
    for a, b, j in _CHORDS[sign][bit]:
        # the next dart after a is a + 1 on a positive disk, a - 1 on a negative one
        pole = (_POLE_ARC[b != (a + 1 - 2 * sign) & 3], 1 + (a > 1)) if (a > 1) == (b > 1) else (0, 0)
        row += (a, b, 1 << j) + pole
    return row


_ITEMS = tuple(tuple(_item(sign, bit) for bit in (0, 1)) for sign in (0, 1))


class _Trie(dict):
    """Signature prefixes as int nodes.  Node 0 is the empty prefix, and
    self[node << _ID_BITS | sid] is the node that adds the essential curve
    with shared-pair id sid to it; looking up a missing child makes one.
    `up[n]` is the key that made node n, so it holds n's parent and id."""

    __slots__ = ("up",)

    def __init__(self):
        super().__init__()
        self.up = [0]

    def __missing__(self, key: int) -> int:
        n = self[key] = len(self.up)
        self.up.append(key)
        return n


class _Classes(dict):
    """Essential curve classes by int key idx << (h1_dim + 1) | hom << 1 |
    flip, of a curve's index, homology class and flip parity, each mapped to
    a small int id made on first use; `by_id[id]` is the key.  Id 0 stands
    for a curve that bounds a disk, which has no class key and no entry.
    Only the signature labelling reads `entries[id]`, the class's signature
    entry (index, mobius, separating, hom_class), made on first read for the
    ids made since, so a sum that prints only R builds none."""

    __slots__ = ("h1_dim", "by_id", "_entries")

    def __init__(self, h1_dim: int):
        super().__init__()
        self.h1_dim = h1_dim
        self.by_id: list = [None]
        self._entries: list = [None]

    def __missing__(self, key: int) -> int:
        sid = len(self.by_id)
        if sid >= _ID_LIMIT:
            raise AssertionError("too many curve classes for a trie key")
        self.by_id.append(key)
        self[key] = sid
        return sid

    @property
    def entries(self) -> list:
        h1 = self.h1_dim
        for key in islice(self.by_id, len(self._entries), None):
            idx, hom, flip = key >> (h1 + 1), key >> 1 & ((1 << h1) - 1), key & 1
            bits = ()
            for shift in range(0, h1, 8):
                bits += _BYTE_BITS[hom >> shift & 255]
            self._entries.append((idx, bool(flip), hom == 0, bits[:h1]))
        return self._entries


class CountTable:
    """The states of a splice range, counted by one labelling of their
    essential curves, one row of counts per label.

    `labels[s]` is a label, each distinct label once: a signature, the
    sorted per-essential-curve tuple (index, mobius, separating, hom_class)
    that the surface pole bracket keeps (`_Engine.signatures`), or the (M,
    d) part that the double bracket and R keep of it, (M's exponent, ((i,
    d_i's exponent), ...)) over i >= 1 (`_Engine.parts`).  `rows[s]` maps
    iness << pc_bits | B-splices to the number of states with label
    `labels[s]`, `iness` curves that bound disks and that many B-splices;
    such a state's natural is c - 2 B-splices.  `writhe` is the diagram's
    writhe, read off its ribbon."""

    __slots__ = ("c", "pc_bits", "writhe", "labels", "rows")

    def __init__(self, c: int, pc_bits: int, writhe: int):
        self.c = c
        self.pc_bits = pc_bits
        self.writhe = writhe
        self.labels: list = []
        self.rows: list = []

    def add(self, other: CountTable) -> None:
        """Add the counts of `other`, a table of the same diagram under the
        same labelling, label by label, by exact addition."""
        rows = dict(zip(self.labels, self.rows))
        for label, row in zip(other.labels, other.rows):
            mine = rows.get(label)
            if mine is None:
                self.labels.append(label)
                self.rows.append(mine := {})
            for key, n in row.items():
                mine[key] = mine.get(key, 0) + n


class _Plan(NamedTuple):
    """The folds of a folded sum over every state: `kinks`, crossing to
    loop-off bit, of the kinks on no R2 bigon; `r2` and `alternating`, the
    bigons of each kind as (x, through bit, y, through bit); and `bits`, the
    splice bits it traces, c - kinks - 2 R2 - alternating."""

    kinks: dict
    r2: list
    alternating: list
    bits: int


class _Engine:
    """Splice tables for one surface, its curve classes and its cache of
    disk tests.

    Every chord a splice can draw has one bit, by formula: crossing disk
    k's four chords, `_CHORD_DARTS` shifted by 4k for either sign, have
    bits 4k .. 4k+3, and bare loop i's chord, between its darts 4c+2i and
    4c+2i+1, has bit 4c+i.  That is sorted (a, b) order, so the set bits of
    a curve's chord mask, in increasing order, are its sorted chord tuple
    (`chords_of`).  Band i has bit n_chords + i above them.  A curve's key
    is the union of its chord and band bits, one-to-one with its chord set.

    The splice table is `items` and `loops`, made once per engine.
    `items[k]` holds crossing k's two choices of its splice bit, each as
    (bit, a1, b1, cb1, arc1, kind1, a2, b2, cb2, arc2, kind2): the bit and
    the two chords it draws, (a, b) with a < b, with their chord bits, the
    `polewords.arc` of the chord's pole read from a to b, and its kind, 1
    for a sink (I, two in-darts) and 2 for a source (O, two out-darts);
    arc and kind are 0 where the chord makes no pole.  They are the sign
    templates `_ITEMS` shifted by 4k.  `loops` holds every bare-loop chord
    as (a, b, cb, 0, 0).  `block` reads both, and the kink premise reads
    the loop-off row.  `step`, made from them on first use, which only the
    walker reads, holds per (splice bit, dart) the same chord and pole
    seen from that dart, with the rest of a step past it.

    `paths[d]` is the band at dart d as an open path, in the end record that
    `block` keeps per path end: (the dart at its far end, its class and flip
    as band_class << 1 | flip, its band bit, the arc of its word read from d
    (one mark when it is flipped), the kind of the pole nearest d, 0 as a
    band has none).  `classes` maps a class key to its id (see
    `_Classes`), and `cache` a curve key to its id; `block` keys only the
    two-sided class-0 curves that reach the disk test, the walker path
    (`lookup`, which alone builds classification records) every curve, by
    the key `walk` returns.
    `block` carries the essential curves closed so far as a node of `trie`
    and counts states under int leaf keys; `table` turns those into a count
    table, under a labelling of the trie's nodes by `signatures` or by
    `parts`.  `kinks` maps each crossing that has an R1 kink to its
    loop-off bit, and `plan` holds the folds made of them and of the
    disjoint bigons (`_Plan`).  `writhe` is the sum of the crossing signs.
    """

    def __init__(self, F: ClosedSurface):
        self.F = F
        rs = F.ribbon
        n = rs.total_darts
        c4 = 4 * rs.n_crossings
        negative = [rot[1] >> 1 & 1 for rot in rs.rotations[:rs.n_crossings]]
        self.items = tuple(
            tuple((bit, a1 + d, b1 + d, cb1 << d, v1, k1, a2 + d, b2 + d, cb2 << d, v2, k2)
                  for bit, a1, b1, cb1, v1, k1, a2, b2, cb2, v2, k2 in _ITEMS[neg])
            for d, neg in zip(range(0, c4, 4), negative))
        # a bare-loop chord makes no pole
        self.loops = tuple((d, d + 1, 1 << (c4 + d) // 2, 0, 0) for d in range(c4, n, 2))
        self.n_chords = c4 + len(self.loops)
        band_class = F.band_class
        self.paths = [(o, band_class[bi] << 1 | flip, 1 << (self.n_chords + bi), _BAND_ARC[flip], 0)
                      for o, flip, bi in rs.band_at]
        self.cache: dict = {}
        self.classes = _Classes(F.h1_dim)
        # the writhe: disk k is positive iff bit 1 of its second dart is 0
        self.writhe = rs.n_crossings - 2 * sum(negative)
        succ, pred = F._succ, F._pred
        band_at = rs.band_at
        # R1 kinks, one per crossing disk at most: an unflipped band from an
        # out-dart to the other strand's in-dart on its own disk.  The
        # loop-off bit draws the chord that closes that band into a circle;
        # the fold's premise is checked here, in O(1) per kink
        self.kinks: dict[int, int] = {}
        for u, v, flip in rs.bands:
            x = u >> 2
            if flip or x != v >> 2 or u >= c4 or not (u ^ v) & 1 or x in self.kinks:
                continue
            tau = _TAU[negative[x]]
            off = int(tau[1][u & 3] == v & 3)
            if self.items[x][off][5] or self.items[x][off][10]:
                raise AssertionError("a kink's loop-off chords carry a pole")
            if self.paths[u][1]:
                raise AssertionError("a kink's loop band has a class or flip")
            # the loop-off chord joins u and v; when they are rotation
            # adjacent it cuts off the corner between them, u when pred
            # v = u and v when pred u = v.  The unflipped band's side from
            # that corner (u ~ pred v, or pred u ~ v) returns to it, so
            # the circle runs beside a one-corner cap and bounds a disk
            if tau[off][u & 3] != v & 3 or not (pred[v] == u or pred[u] == v):
                raise AssertionError("a kink's loop-off circle bounds no disk")
            self.kinks[x] = off
        # Bigons, on disjoint pairs of crossing disks x != y.  An unflipped
        # band (u, v) and an unflipped band from a dart w beside u join x and y
        # and bound one cap with exactly two corners: the corner at x lies
        # between d and e = succ d, {d, e} = {u, w}, and its sides run along
        # the bands at d and e to the corners pred(other d) and other e, so
        # the cap closes after two corners iff those are one.  The tests of
        # each kind are the module docstring's; an R2 bigon is found at its
        # over band, and an alternating one has no kink on its crossings.  A
        # disk's through bit is the one whose chords leave its bigon corner
        # whole.  R2 bigons come first, which fold two bits each
        found: tuple[list, list] = ([], [])
        taken: set[int] = set()
        joins: tuple[list, list] = ([], [])
        for u, v, flip in rs.bands:
            if not flip and u >> 2 != v >> 2:
                joins[(u ^ v) & 1].append((u, v))
        for alternating, bands in enumerate(joins):
            for u, v in bands:
                x, y = u >> 2, v >> 2
                if (x in taken or y in taken
                        or (x in self.kinks or y in self.kinks if alternating else u & 1)
                        or (negative[x] != negative[y]) == alternating):
                    continue
                for d, e in ((u, succ[u]), (pred[u], u)):
                    w2, wflip, _b = band_at[e if d == u else d]
                    d2, e2 = band_at[d][0], band_at[e][0]
                    if wflip or w2 >> 2 != y or succ[e2] != d2:
                        continue
                    tx = int(_TAU[negative[x]][1][d & 3] != e & 3)
                    ty = int(_TAU[negative[y]][1][e2 & 3] != d2 & 3)
                    if alternating and tx != ty:
                        continue
                    found[alternating].append((x, tx, y, ty))
                    taken.update((x, y))
                    break
        r2, alternating = found
        # the fold plan: a kink on an R2 bigon folds with it
        on_r2 = {i for x, _tx, y, _ty in r2 for i in (x, y)}
        kinks = {i: off for i, off in self.kinks.items() if i not in on_r2}
        self.plan = _Plan(kinks, r2, alternating, rs.n_crossings - len(kinks) - 2 * len(r2) - len(alternating))
        # a leaf key packs (trie node, inessential count, B-splice count):
        # node << node_shift | iness << pc_bits | B-splices.  A state has at
        # most one curve per band and one B-splice per crossing.  An engine
        # with alternating bigons keeps two more fields below the node, which
        # `block` fills while it traces: per through bit, the number of them
        # whose turned-back choice a state took
        self.pc_bits = rs.n_crossings.bit_length()
        self.part_width = len(rs.bands).bit_length()
        self.mark_shift = self.pc_bits + self.part_width
        ones = sum(t for _x, t, _y, _t in alternating)
        self.mark_bits = (len(alternating) - ones).bit_length()
        self.node_shift = self.mark_shift + self.mark_bits + ones.bit_length()
        self.trie = _Trie()

    @cached_property
    def step(self) -> tuple[list, list]:
        """Per (splice bit, dart), the chord from that dart and the rest of
        a step past it: (far dart, chord bit, next dart, band flip, band
        bit, pole side, pole kind), side -1 and kind 0 where the chord
        makes no pole.  Made on first use, from `items` and `loops`: only
        the walker reads it."""
        band_at, paths = self.F.ribbon.band_at, self.paths
        step = ([None] * len(band_at), [None] * len(band_at))
        for bit, row in enumerate(step):
            chords = [ch for item in self.items for ch in (item[bit][1:6], item[bit][6:11])]
            for a, b, cb, v, k in chords + list(self.loops):
                # the pole's side at a is the one whose arc it has, at b the other
                s = _POLE_ARC.index(v) if k else -1
                row[a] = (b, cb, *band_at[b][:2], paths[b][2], s, k)
                row[b] = (a, cb, *band_at[a][:2], paths[a][2], 1 - s if k else -1, k)
        return step

    def walk(self, mask: int, start: int, visited: bytearray):
        """Walk the curve of splice choice `mask` that enters its disk at
        dart `start`, marking its darts in `visited`.  Returns its key (chord
        bits | band bits << n_chords, the key `block` and `classify` use) and
        pole word, and checks that its pole kinds alternate."""
        step = self.step
        word: list[int] = []
        key = 0
        first = last = 0
        cur = start
        while True:
            # bare-loop darts lie past every mask bit, so their bit reads 0
            x, cb, nxt, flip, bb, s, k = step[(mask >> (cur >> 2)) & 1][cur]
            visited[cur] = 1
            visited[x] = 1
            key |= cb | bb
            if k:
                if k == last:
                    raise AssertionError("pole kinds fail to alternate")
                if not last:
                    first = k
                last = k
                word.append(s)
            if flip:
                word.append(MARK)
            cur = nxt
            if cur == start:
                break
        if last and first == last:
            # the wrap-around pair; it also rules out an odd pole count
            raise AssertionError("pole kinds fail to alternate")
        return key, tuple(word)

    def chords_of(self, key: int) -> tuple[tuple[int, int], ...]:
        """The sorted chord tuple of a chord mask or curve key, each chord
        read off its bit by the formula of the class docstring."""
        cm = key & ((1 << self.n_chords) - 1)
        c4 = 4 * self.F.ribbon.n_crossings
        out = []
        while cm:
            low = cm & -cm
            j = low.bit_length() - 1
            if j < c4:
                a, b = _CHORD_DARTS[j & 3]
                out.append(((j & -4) + a, (j & -4) + b))
            else:
                out.append((2 * j - c4, 2 * j - c4 + 1))
            cm ^= low
        return tuple(out)

    def classify(self, key: int, idx: int) -> int:
        """Cache and return the class id of the uncached curve with this key
        and pole-word index.  Its class and flip are read off its band mask
        (`ClosedSurface._cycle_class` and `flip_mask`), and only a two-sided
        curve of class 0 takes the disk test.  Such a curve separates,
        whether or not it bounds a disk, so it must have index 0: one of
        positive index raises AssertionError before the disk test.  Every
        curve of every sum and walk passes here once per key, so this checks
        that no curve of positive index separates."""
        F = self.F
        cm = key & ((1 << self.n_chords) - 1)
        bmask = key >> self.n_chords
        # a closed curve alternates chord, band, chord, ...
        if cm.bit_count() != bmask.bit_count():
            raise AssertionError("path chord mask disagrees with its walk")
        h = F._cycle_class(bmask) << 1 | (bmask & F.flip_mask).bit_count() & 1
        if not h and idx:
            # a two-sided curve of class 0 separates, disk or not, and a
            # curve of positive index never does
            raise AssertionError("a curve of positive index separates")
        if not h and F.bounds_disk(EmbeddedCurve(self.chords_of(cm), bmask, 0)):
            sid = 0
        else:
            sid = self.classes[idx << (F.h1_dim + 1) | h]
        self.cache[key] = sid
        return sid

    def lookup(self, curve: PoleCurve) -> CurveClassification:
        """The classification of a walked curve, by its key: its class entry,
        or, for a curve that bounds a disk, its own index and the zero class."""
        sid = self.cache.get(curve.key)
        if not sid:
            idx = polewords.index(curve.word)
            if sid is None:
                sid = self.classify(curve.key, idx)
        if sid:
            idx, mobius, separating, hom = self.classes.entries[sid]
            return CurveClassification(False, separating, mobius, idx, hom)
        return CurveClassification(True, True, False, idx, (0,) * self.F.h1_dim)

    def block(self, base: int, k: int, fold: bool) -> dict:
        """The 2^k states from `base` (a multiple of 2^k), counted under
        leaf keys.

        The bands start as open paths, in a copy P of `paths`: P[d] is the
        record of the path with an end at d, as in the class docstring.
        The block makes each fold of `plan` whose bits are all free, and
        folds a free kink on an R2 bigon with a fixed bit as a kink; without
        `fold` it folds every free kink and no bigon (see the module
        docstring).  A crossing above 0 that the block does not choose (a
        fixed bit k .. c-1, a folded kink's through splice, an R2 bigon's
        through pair, an alternating bigon's x) has one choice: one pass
        draws its chords and every bare-loop chord, once for all the block's
        states, and adds its B-splice.  Then `descend` decides the crossings
        above 0 with two choices, from the top, depth first, and crossing 0
        last, so it recurses as deep as the traced bits.

        A chord (a, b) whose darts end one path closes a curve, once for
        every state below.  The closing (`entry`, given the values in the
        records at a and b) checks the two pole pairs the chord makes
        adjacent, which closes the check of every pole pair of the curve,
        and that the curve's key, the path's key | bit, has as many chords
        as bands; the index of its word is that of the arc read from b + the
        chord's pole: no curve is walked.  A curve whose class << 1 | flip
        is nonzero is one-sided or has a nonzero class, so it bounds no
        disk, and its class is read from `classes` by index, class and flip
        alone.  Any other curve is looked up in the cache by its key, and a
        miss takes the disk test (`classify`).  Any other chord joins the
        paths a..e and b..f into e..f.  It reads the four end records,
        checks the pole pairs it makes adjacent, then writes new records at
        e and f: the XOR of the classes, the union key, the arcs (arc read
        from e) + chord + (arc read from b) and its reverse (`join_arcs` and
        `reverse_arc` in `tests/reference.py`, inlined), and the kind
        nearest each end, the chord's or the other path's where the old path
        had no pole.  a and b are never ends again, so their records are
        not read until a join of the descent is undone, which puts back the
        two records it replaced; at its end the block checks that P is as
        the pass left it (`start`).

        Crossing 0 is the last depth, and there its four darts end the two
        open paths left.  Each choice closes both without writing: if its
        first chord closes a path, its second must close the other; if the
        first joins a1..e1 and b1..f1, the second must join e1 and f1, and
        the joined path's key, class, arc and end kinds are read off the
        two records as a write would have made them.  Both closings make the
        checks above, the join its kind check, and a choice that would
        leave a path open raises AssertionError.

        The essential curves closed so far are a node of `trie`, and
        closing one moves to the child for its id; a curve that bounds a
        disk (id 0) adds one to the inessential count instead.  Each traced
        state adds 1 to the block's own table `leaves` under its leaf key,
        node << node_shift | marks << mark_shift | iness << pc_bits |
        B-splices; `table` reads these keys back.  With no folded kink or
        alternating bigon `leaves` is the block's table; otherwise the block
        spreads it into a new one at its end.  Taking the loop-off choice at
        j of the p folded kinks whose loop-off bit is 1 and at l of the q
        whose loop-off bit is 0 adds j + l disk circles and j - l B-splices
        to a traced state's key, and C(p, j) C(q, l) states share that key.
        A key with m0 and m1 marks of alternating bigons, by through bit,
        counts C(m0, j) 2^(m0-j) C(m1, l) 2^(m1-l) at j + l more disk
        circles and j - l more B-splices, and its marks are cleared."""
        c = self.F.ribbon.n_crossings
        cache, classify, classes, trie = self.cache, self.classify, self.classes, self.trie
        items = self.items
        choices = [pair if i < k else (pair[base >> i & 1],) for i, pair in enumerate(items)]
        kinks, plan = self.kinks, self.plan
        folded = {i: off for i, off in (plan.kinks if fold else kinks).items() if i < k}
        marks = 0
        if fold:
            for x, tx, y, ty in plan.r2:
                if x < k and y < k:
                    choices[x] = (items[x][tx],)
                    choices[y] = (items[y][ty],)
                else:
                    folded.update((i, kinks[i]) for i in (x, y) if i < k and i in kinks)
            mark = (1 << self.mark_shift, 1 << self.mark_shift + self.mark_bits)
            for x, tx, y, ty in plan.alternating:
                if x < k and y < k:
                    back = items[y][1 - ty]
                    choices[x] = (items[x][tx],)
                    choices[y] = (items[y][ty], (back[0] + mark[ty],) + back[1:])
                    marks = 1
        for i, off in folded.items():
            choices[i] = (items[i][1 - off],)
        leaves: dict = {}
        P = self.paths[:]
        sh = self.node_shift
        one = 1 << self.pc_bits
        nc = self.n_chords
        hc_shift = self.F.h1_dim + 1
        hc_mask = (1 << hc_shift) - 1
        class_keys = classes.by_id

        # kinds are 1 and 2, so ka & kb is nonzero just when the poles at
        # two ends are of one kind, and (ka | kb) & kc when either is kc's.
        # A closing chord of pole kind kc and arc v joins the ends a and b
        # of one path: ka and kb are the kinds nearest them, key is the
        # path's key with the chord's bit, x the arc of its word read from
        # b, and h its class and flip
        def entry(ka: int, kb: int, kc: int, key: int, x: int, v: int, h: int):
            if ((ka | kb) & kc or not ka) if kc else ka & kb:
                raise AssertionError("pole kinds fail to alternate")
            # a closed curve alternates chord, band, chord, ...
            if key.bit_count() != (key >> nc).bit_count() << 1:
                raise AssertionError("path chord mask disagrees with its walk")
            # `join_arcs` (in `tests/reference.py`) and `closed_index`, inlined
            x = x - v if x & 1 else x + v
            idx = 0 if x & 1 else abs(x) >> 2
            if h:
                return classes[idx << hc_shift | h]
            hit = cache.get(key)
            if hit is None:
                hit = classify(key, idx)
                # it carried class 0 and no flip: two-sided and separating
                if hit and class_keys[hit] & hc_mask:
                    raise AssertionError("carried class disagrees with the band mask")
            return hit

        # the pass: the chords every state shares, closed or joined for good
        node = 0
        fixed = [pair[0] for pair in choices[:0:-1] if len(pair) == 1]
        t = sum(item[0] for item in fixed)
        for a, b, cb, v, kc in self.loops + tuple(ch for item in fixed for ch in (item[1:6], item[6:11])):
            e, h, m, _x, ka = P[a]
            f, g, n, y, kb = P[b]
            if e == b:
                if sid := entry(ka, kb, kc, m | cb, y, v, h):
                    node = trie[node << _ID_BITS | sid]
                else:
                    t += one
                continue
            if (ka | kb) & kc if kc else ka & kb:
                raise AssertionError("pole kinds fail to alternate")
            re, rf = P[e], P[f]
            x = re[3]
            x = x - v if x & 1 else x + v
            x = x - y if x & 1 else x + y
            h, m = h ^ g, m | n | cb
            P[e] = (f, h, m, x, re[4] if ka else kc or kb)
            P[f] = (e, h, m, 2 - x if x & 1 else x, rf[4] if kb else kc or ka)
        start = P[:]
        free = [i for i in range(c - 1, 0, -1) if len(choices[i]) > 1] + [0]

        # both chords' joins are written out: one loop over the two chords
        # with an undo list measured about 30% slower per state
        def descend(j: int, node: int, t: int) -> None:
            i = free[j]
            if not i:
                # crossing 0: its four darts end the two open paths left, so
                # each choice closes both, reading the records and writing
                # nothing
                for bit, a1, b1, cb1, v1, k1, a2, b2, cb2, v2, k2 in choices[0]:
                    nd = node
                    u = t + bit
                    e1, h1, m1, _x, ka1 = P[a1]
                    f1, g1, n1, y1, kb1 = P[b1]
                    if e1 == b1:
                        e2, h2, m2, _x, ka2 = P[a2]
                        if e2 != b2:
                            raise AssertionError("the last splice leaves a path open")
                        sid = entry(ka1, kb1, k1, m1 | cb1, y1, v1, h1)
                        if sid:
                            nd = trie[nd << _ID_BITS | sid]
                        else:
                            u += one
                        _a, _h, _m, y2, kb2 = P[b2]
                        sid = entry(ka2, kb2, k2, m2 | cb2, y2, v2, h2)
                    else:
                        # the first chord joins a1..e1 and b1..f1 into e1..f1,
                        # which the second must close: x is the joined word's
                        # arc read from e1, ke and kf the kinds nearest e1 and f1
                        if (ka1 | kb1) & k1 if k1 else ka1 & kb1:
                            raise AssertionError("pole kinds fail to alternate")
                        re1 = P[e1]
                        x = re1[3]
                        x = x - v1 if x & 1 else x + v1
                        x = x - y1 if x & 1 else x + y1
                        ke = re1[4] if ka1 else k1 or kb1
                        kf = P[f1][4] if kb1 else k1 or ka1
                        key = m1 | n1 | cb1 | cb2
                        if a2 == f1 and b2 == e1:
                            sid = entry(kf, ke, k2, key, x, v2, h1 ^ g1)
                        elif a2 == e1 and b2 == f1:
                            sid = entry(ke, kf, k2, key, 2 - x if x & 1 else x, v2, h1 ^ g1)
                        else:
                            raise AssertionError("the last splice leaves a path open")
                    if sid:
                        nd = trie[nd << _ID_BITS | sid]
                    else:
                        u += one
                    key = nd << sh | u
                    leaves[key] = leaves.get(key, 0) + 1
                return
            for bit, a1, b1, cb1, v1, k1, a2, b2, cb2, v2, k2 in choices[i]:
                nd = node
                u = t + bit
                e1, h1, m1, _x, ka1 = P[a1]
                f1, g1, n1, y1, kb1 = P[b1]
                if e1 == b1:
                    sid = entry(ka1, kb1, k1, m1 | cb1, y1, v1, h1)
                    if sid:
                        nd = trie[nd << _ID_BITS | sid]
                    else:
                        u += one
                else:
                    if (ka1 | kb1) & k1 if k1 else ka1 & kb1:
                        raise AssertionError("pole kinds fail to alternate")
                    re1 = P[e1]
                    rf1 = P[f1]
                    x = re1[3]
                    x = x - v1 if x & 1 else x + v1
                    x = x - y1 if x & 1 else x + y1
                    h1 ^= g1
                    m1 |= n1 | cb1
                    P[e1] = (f1, h1, m1, x, re1[4] if ka1 else k1 or kb1)
                    P[f1] = (e1, h1, m1, 2 - x if x & 1 else x, rf1[4] if kb1 else k1 or ka1)
                e2, h2, m2, _x, ka2 = P[a2]
                f2, g2, n2, y2, kb2 = P[b2]
                if e2 == b2:
                    sid = entry(ka2, kb2, k2, m2 | cb2, y2, v2, h2)
                    if sid:
                        nd = trie[nd << _ID_BITS | sid]
                    else:
                        u += one
                else:
                    if (ka2 | kb2) & k2 if k2 else ka2 & kb2:
                        raise AssertionError("pole kinds fail to alternate")
                    re2 = P[e2]
                    rf2 = P[f2]
                    x = re2[3]
                    x = x - v2 if x & 1 else x + v2
                    x = x - y2 if x & 1 else x + y2
                    h2 ^= g2
                    m2 |= n2 | cb2
                    P[e2] = (f2, h2, m2, x, re2[4] if ka2 else k2 or kb2)
                    P[f2] = (e2, h2, m2, 2 - x if x & 1 else x, rf2[4] if kb2 else k2 or ka2)
                descend(j + 1, nd, u)
                if e2 != b2:
                    P[e2] = re2
                    P[f2] = rf2
                if e1 != b1:
                    P[e1] = re1
                    P[f1] = rf1

        if c:
            descend(0, node, t)
            if P != start:
                raise AssertionError("undo left the open paths changed")
        else:
            leaves[node << sh | t] = 1
        if not folded and not marks:
            return leaves
        # a loop-off adds one inessential circle and shifts the B-count by
        # b_off - b_through, +1 where the loop-off bit is 1, -1 where it is 0
        up = sum(folded.values())
        kinked = _spread(up, len(folded) - up, one, 1)
        ms, mb = self.mark_shift, self.mark_bits
        spreads = {0: kinked}
        counts: dict = {}
        for key, n in leaves.items():
            m = key >> ms & ((1 << sh - ms) - 1)
            spread = spreads.get(m)
            if spread is None:
                # each shift also clears the marks
                spread = spreads[m] = [(s1 + s2 - (m << ms), w1 * w2) for s1, w1 in kinked
                                       for s2, w2 in _spread(m & ((1 << mb) - 1), m >> mb, one, 2)]
            for shift, w in spread:
                counts[key + shift] = counts.get(key + shift, 0) + n * w
        return counts

    def table(self, raw: dict, labels: list, unpack: Callable) -> CountTable:
        """The count table of `block`'s leaf-key counts under one labelling
        of the trie they refer to: `labels[node]` is the label of a node's
        multiset of curves, in a form quick to hash, and `unpack` turns it
        into the table's label.  Each leaf key's node gets its label's row,
        made the first time a key reads that label, so nodes that hold one
        label, reached in different orders or by different curves, merge
        here, by exact addition, and each distinct label is unpacked once."""
        sh = self.node_shift
        low = (1 << sh) - 1
        table = CountTable(self.F.ribbon.n_crossings, self.pc_bits, self.writhe)
        # per node, and per label in order of first use, its row; None until read
        node_row = [None] * len(labels)
        rows: dict = {}
        for key, n in raw.items():
            node = key >> sh
            row = node_row[node]
            if row is None:
                row = node_row[node] = rows.setdefault(labels[node], {})
            key &= low
            row[key] = row.get(key, 0) + n
        table.labels = list(map(unpack, rows))
        table.rows = list(rows.values())
        return table

    def signatures(self, up: list) -> tuple[list, Callable]:
        """The signature labelling of the trie whose `up` list is `up`.  The
        classes are ranked as their entries sort, the order a signature's
        entries take.  A node is made after its parent, so in id order each
        node's sorted tuple of class ranks, its bag, is its parent's with its
        own rank put in place; a bag unpacks to its signature, the bag's
        entries in order."""
        entries = self.classes.entries
        id_mask = (1 << _ID_BITS) - 1
        by_rank = sorted(range(1, len(entries)), key=entries.__getitem__)
        rank = [0] * len(entries)
        for r, cid in enumerate(by_rank):
            rank[cid] = r
        ranked = [entries[cid] for cid in by_rank]
        bags = [()]
        for key in islice(up, 1, None):
            bag = bags[key >> _ID_BITS]
            r = rank[key & id_mask]
            i = bisect_right(bag, r)
            bags.append(bag[:i] + (r,) + bag[i:])
        return bags, lambda bag: tuple(map(ranked.__getitem__, bag))

    def parts(self, up: list) -> tuple[list, Callable]:
        """The (M, d) labelling of the trie whose `up` list is `up`, which
        builds no signature: a node's label is an int of `part_width`-bit
        fields (a state has at most one curve per band), its parent's plus
        its own curve's, one more in field 0 for a one-sided curve (M's
        exponent) and in field idx for a curve of index idx >= 1."""
        width, hc_shift = self.part_width, self.F.h1_dim + 1
        id_mask = (1 << _ID_BITS) - 1
        part = [0] + [(key & 1) + (1 << width * (key >> hc_shift) if key >> hc_shift else 0)
                      for key in islice(self.classes.by_id, 1, None)]
        labels = [0]
        for key in islice(up, 1, None):
            labels.append(labels[key >> _ID_BITS] + part[key & id_mask])
        return labels, self._unpack_part

    def _unpack_part(self, label: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(M's exponent, ((i, d_i's exponent), ...)) of a packed part."""
        width = self.part_width
        field = (1 << width) - 1
        d, i, rest = [], 1, label >> width
        while rest:
            if rest & field:
                d.append((i, rest & field))
            rest >>= width
            i += 1
        return label & field, tuple(d)


def _spread(up: int, down: int, one: int, stay: int) -> list:
    """(leaf-key shift, weight) of each way to move j of `up` states and l
    of `down` states: j + l more disk circles (`one` each) and j - l more
    B-splices, with weight C(up, j) C(down, l) stay^(up - j + down - l)."""
    return [((j + l) * one + j - l, comb(up, j) * comb(down, l) * stay ** (up - j + down - l))
            for j in range(up + 1) for l in range(down + 1)]


def _engine(F: ClosedSurface) -> _Engine:
    eng = getattr(F, "_state_engine", None)
    if eng is None:
        eng = _Engine(F)
        F._state_engine = eng
    return eng


def splice_curves(F: ClosedSurface, choice: int) -> PoleState:
    """The curves of splice choice `choice` on `F`, in order of their lowest darts."""
    c = F.ribbon.n_crossings
    if not 0 <= choice < (1 << c):
        raise ValueError("splice choice out of range")
    eng = _engine(F)
    visited = bytearray(F.ribbon.total_darts)
    curves = []
    start = visited.find(0)
    while start >= 0:
        curves.append(PoleCurve(*eng.walk(choice, start, visited)))
        start = visited.find(0, start + 1)
    natural = c - 2 * bin(choice).count("1")
    return PoleState(choice, natural, tuple(curves))


def enumerate_states(F: ClosedSurface) -> Iterator[PoleState]:
    for mask in range(1 << F.ribbon.n_crossings):
        yield splice_curves(F, mask)


def classify_state(F: ClosedSurface, s: PoleState) -> tuple[CurveClassification, ...]:
    """The classification of each curve of `s`, in curve order."""
    lookup = _engine(F).lookup
    return tuple(lookup(c) for c in s.curves)


def check_nonseparation(table: CountTable) -> int:
    """The number of (state, curve) pairs of a signature-labelled
    `sum_counts` table that break "positive index forces non-separating":
    each signature entry with index > 0 that separates, times its row's
    total.  The table holds only essential curves; a curve that bounds a
    disk has no entry, and `_Engine.classify` refuses every separating curve
    of positive index, disk or not, as it sums."""
    bad = (sum(1 for idx, _mob, sep, _hom in sig if idx > 0 and sep) for sig in table.labels)
    return sum(b * sum(row.values()) for b, row in zip(bad, table.rows) if b)


# a pole load packs a region's I-pole count and O-pole count into one int
_O_POLE = 1 << 32


def pole_regions(F: ClosedSurface) -> Iterator[list[tuple[int, int]]]:
    """Per state, in mask order, the (I poles, O poles) of each complementary
    region of its curves, in no particular order.

    In a full state every band is split and every crossing disk carries two
    chords, each cutting one corner off as a lune, so each fragment of the
    cut holds corners and each lane runs beside a band side.  The regions
    are then the caps, joined at each crossing disk by its middle fragment,
    which holds the two corners that no chord cuts off; a bare-loop disk's
    two fragments hold one corner each and join nothing.  A pole counts once
    on its lune's region and once on the middle's region, as
    `surfaces.regions` counts it.  Its kind is read off the dart layout
    (in-in is I, out-out is O), not off the state sum's tables, so the
    check shares nothing with the sum it checks.  Bit b of a
    crossing with rotation (r0, r1, r2, r3) draws the chords from corners
    r(b+1) and r(b+3), and its middle joins the caps of r(b) and r(b+2).
    The caps are unioned per state, O(c) each, by their positions in
    `_cap_corner`, which the surface's `_corner_cap` gives per corner."""
    rs = F.ribbon
    cap = F._corner_cap
    n_caps = len(F._cap_corner)
    table = []
    for rot in rs.rotations[:rs.n_crossings]:
        row = []
        for b in (0, 1):
            loads = []
            mid = 0
            for j in (b + 1, b + 3):
                x, y = rot[j % 4], rot[(j + 1) % 4]
                if (x % 4 < 2) == (y % 4 < 2):
                    w = 1 if x % 4 < 2 else _O_POLE
                    loads.append((cap[x], w))
                    mid += w
            loads.append((cap[rot[b]], mid))
            row.append((cap[rot[b]], cap[rot[b + 2]], loads))
        table.append(row)
    low = _O_POLE - 1
    caps = range(n_caps)
    for choice in range(1 << rs.n_crossings):
        parent = list(caps)
        load = [0] * n_caps
        for i, row in enumerate(table):
            m1, m2, loads = row[choice >> i & 1]
            while parent[m1] != m1:
                parent[m1] = m1 = parent[parent[m1]]
            while parent[m2] != m2:
                parent[m2] = m2 = parent[parent[m2]]
            parent[m2] = m1
            for k, w in loads:
                load[k] += w
        # each cap's load goes to its region's root, which no cap leaves
        for k in caps:
            r = parent[k]
            if r != k:
                while parent[r] != r:
                    r = parent[r]
                load[r] += load[k]
        yield [(x & low, x >> 32) for k, x in enumerate(load) if parent[k] == k]


def check_pole_balance(F: ClosedSurface) -> list:
    """Violations of: every complementary region of every state sees as
    many I-poles as O-poles (counted with multiplicity over region-chord
    incidences), as (state, I poles, O poles) per unbalanced region; see
    `pole_regions`."""
    return [
        (choice, i, o)
        for choice, regs in enumerate(pole_regions(F))
        for i, o in regs
        if i != o
    ]


def state_report(F: ClosedSurface, s: PoleState) -> dict:
    return {
        "mask": s.choice,
        "natural": s.natural,
        "curves": [
            {
                "poles": sum(1 for x in c.word if x != MARK),
                "index": cl.index,
                "inessential": cl.inessential,
                "separating": cl.separating,
                "mobius": cl.mobius,
                "hom": list(cl.hom_class),
            }
            for c, cl in zip(s.curves, classify_state(F, s))
        ],
    }


def sum_counts(F: ClosedSurface, lo: int, hi: int, fold: bool, want: str = "table"):
    """Count the states of a bitmask range by everything the brackets need,
    in a `CountTable` per label, natural and number of curves that bound
    disks.  With `want` "table" the label is a signature (the sorted
    per-essential-curve tuple (index, mobius, separating, hom_class)); with
    "double" it is the (M, d) part, and no signature is built; with "both"
    the result is the pair of those two tables, from one trace.

    `[lo, hi)` is cut into aligned blocks of 2^k masks that share their high
    bits; `_Engine.block` draws the chords a block's states share once and
    sums the rest depth first over the bits it traces, so a splice prefix's
    work is shared by every state below it, and a fold of the engine's plan
    is made in a block that leaves all its bits free.  Without `fold` only
    the kinks fold, and every state of the range is counted once (see the
    module docstring).
    The blocks count under int leaf keys, which `_Engine.table` reads once
    per labelling, at the end."""
    eng = _engine(F)
    c = F.ribbon.n_crossings
    if lo < 0 or hi > 1 << c:
        raise ValueError("splice choice out of range")
    raw: dict = {}
    while lo < hi:
        k = (lo & -lo).bit_length() - 1 if lo else c
        while lo + (1 << k) > hi:
            k -= 1
        part = eng.block(lo, k, fold)
        if raw:
            for key, n in part.items():
                raw[key] = raw.get(key, 0) + n
        else:
            raw = part
        lo += 1 << k
    # the labellings read the trie's `up` list; a fresh trie serves the next sum
    up = eng.trie.up
    eng.trie = _Trie()
    if want == "both":
        return eng.table(raw, *eng.signatures(up)), eng.table(raw, *eng.parts(up))
    return eng.table(raw, *(eng.parts(up) if want == "double" else eng.signatures(up)))
