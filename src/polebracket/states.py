"""Surface pole states: splice enumeration, curve tracing, classification.

A state picks an A- or B-splice at every classical crossing (bitmask bit set
= B).  Inside each crossing disk the four band ends are rejoined in adjacent
pairs; joining two in-ends creates a sink pole (I), two out-ends a source
pole (O).  The resulting closed curves are traced through the bands,
collecting pole side bits and flip marks into cyclic pole words, then
classified against the capped surface: bounds-disk, separating, one-sided,
and the reduction index of the word.

A curve is its chord set, band mask, flip parity and pole word; its poles
are read back off the chords (`curve_poles`).  Classification depends only
on the chord set, which lets a per-surface cache absorb the cost across all
2^c states, and `sum_counts` folds each state into one count table keyed by
what the surface pole bracket needs; the double bracket is collapsed from
that same table.

Every chord a splice can draw has one bit, so a chord set is an int.
`sum_counts` never traces a state from scratch.  It grows the curves of
all states at once, depth first over the splice bits: the bands start as
open paths, each decided crossing adds its two chords, a chord that joins
the two ends of one path closes a curve, and any other chord joins two
paths and is undone on the way back.  A curve closed at a node is looked
up in the cache by its chord mask once, for every state below that node.
Only a miss walks the curve (`_Engine.walk`) for its pole word, band mask,
flip parity and homology class, the XOR of the surface's per-band
classes; the walker also checks that pole kinds alternate, which it does
for every distinct chord set.  `splice_curves` walks each curve of one
state with the same walker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import polewords
from .codes import TwistedGaussCode
from .polewords import MARK
from .surfaces import ClosedSurface, EmbeddedCurve
from .surfaces import regions as surface_regions


@dataclass(frozen=True)
class PoleCurve:
    """One state curve: where it runs, and its cyclic pole word.  Its poles
    depend only on the chords and are read off them by `curve_poles`."""

    geometry: EmbeddedCurve
    word: tuple[int, ...]


@dataclass(frozen=True)
class PoleState:
    choice: int
    natural: int
    curves: tuple[PoleCurve, ...]


@dataclass(frozen=True)
class CurveClassification:
    inessential: bool
    separating: bool
    mobius: bool
    index: int
    hom_class: tuple[int, ...]


class _Engine:
    """Splice tables for one surface, and its curve-class cache.

    Every chord a splice can draw has one bit: four per crossing disk (two
    per splice bit) and one per bare loop, numbered in sorted (a, b) order,
    so the set bits of a curve's chord mask, in increasing order, are its
    sorted chord tuple.  `splice[bit][i]` holds the two chords crossing i
    draws for that splice bit, as (a1, b1, bit1, a2, b2, bit2), and `loops`
    the (a, b, bit) of every bare-loop chord; `band_other[d]` is the dart
    at the far end of d's band.  These are all `block` reads.  For the
    walker, per (splice bit, dart): `side` is the side bit of the chord's
    pole (-1 where the chord joins an in-dart to an out-dart and makes no
    pole), and `step` the rest of a step past the chord: (far dart, chord
    bit, next dart, band flip, band bit, band class).

    A chord set fixes the whole curve, so the cache is keyed by the chord
    mask.  Each value is a shared pair (classification, signature entry),
    the entry being None for a curve that bounds a disk.
    """

    def __init__(self, F: ClosedSurface):
        self.F = F
        rs = F.ribbon
        n = rs.total_darts
        tau = ([-1] * n, [-1] * n)
        side = ([-1] * n, [-1] * n)
        for rot in rs.rotations:
            if len(rot) == 2:
                d0, d1 = rot
                for bit in (0, 1):
                    tau[bit][d0] = d1
                    tau[bit][d1] = d0
                continue
            r0, r1, r2, r3 = rot
            succ = {r0: r1, r1: r2, r2: r3, r3: r0}
            for bit, pairs in ((0, ((r1, r2), (r3, r0))), (1, ((r0, r1), (r2, r3)))):
                for a, b in pairs:
                    tau[bit][a] = b
                    tau[bit][b] = a
                    if (a % 4 < 2) == (b % 4 < 2):
                        side[bit][a] = 0 if succ[a] == b else 1
                        side[bit][b] = 0 if succ[b] == a else 1
        self.chords = tuple(sorted({(d, t[d]) for t in tau for d in range(n) if d < t[d]}))
        self.chord_bit = {ch: 1 << i for i, ch in enumerate(self.chords)}
        cbit = tuple(
            [self.chord_bit[(d, t[d]) if d < t[d] else (t[d], d)] for d in range(n)]
            for t in tau
        )
        self.side = side
        self.band_other = [b[0] for b in rs.band_at]
        c4 = 4 * rs.n_crossings
        self.loops = tuple((a, b, self.chord_bit[(a, b)]) for (a, b) in self.chords if a >= c4)
        self.splice = tuple(
            tuple(
                tuple(x for d in range(4 * i, 4 * i + 4) if d < t[d] for x in (d, t[d], cb[d]))
                for i in range(rs.n_crossings)
            )
            for t, cb in zip(tau, cbit)
        )
        step = []
        for t, cb in zip(tau, cbit):
            row = []
            for d in range(n):
                nxt, flip, bi = rs.band_at[t[d]]
                row.append((t[d], cb[d], nxt, flip, 1 << bi, F.band_class[bi]))
            step.append(row)
        self.step = tuple(step)
        self.cache: dict = {}
        self._shared: dict = {}

    def walk(self, mask: int, start: int, visited: bytearray):
        """Walk the curve of splice choice `mask` that enters its disk at
        dart `start`, marking its darts in `visited`.  Returns its chord
        mask, pole word, band mask, flip parity and homology class (as in
        `ClosedSurface._cycle_class`), and checks that its pole kinds
        alternate."""
        step, side = self.step, self.side
        word: list[int] = []
        cm = bmask = fpar = hom = 0
        # a pole's kind is cur & 2: 0 at in-darts (I), 2 at out-darts (O);
        # bare-loop darts lie past every mask bit, so their bit reads 0
        first = last = -1
        cur = start
        while True:
            bit = (mask >> (cur >> 2)) & 1
            x, cb, nxt, flip, bb, hc = step[bit][cur]
            visited[cur] = 1
            visited[x] = 1
            cm |= cb
            s = side[bit][cur]
            if s >= 0:
                k = cur & 2
                if k == last:
                    raise AssertionError("pole kinds fail to alternate")
                if last < 0:
                    first = k
                last = k
                word.append(s)
            if flip:
                word.append(MARK)
                fpar ^= 1
            bmask |= bb
            hom ^= hc
            cur = nxt
            if cur == start:
                break
        if last >= 0 and first == last:
            # the wrap-around pair; it also rules out an odd pole count
            raise AssertionError("pole kinds fail to alternate")
        return cm, tuple(word), bmask, fpar, hom

    def chords_of(self, cm: int) -> tuple[tuple[int, int], ...]:
        """The sorted chord tuple of a chord mask."""
        out = []
        while cm:
            low = cm & -cm
            out.append(self.chords[low.bit_length() - 1])
            cm ^= low
        return tuple(out)

    def classify(self, cm: int, word, bmask: int, fpar: int, hom: int):
        """Classify a curve missing from the cache, and cache it."""
        F = self.F
        mob = fpar == 1
        sep = hom == 0
        idx = polewords.index(word)
        iness = (not mob) and sep and F.bounds_disk(
            EmbeddedCurve(self.chords_of(cm), bmask, fpar))
        shared = self._shared.get((iness, mob, idx, hom))
        if shared is None:
            cl = CurveClassification(
                iness, sep, mob, idx, tuple((hom >> i) & 1 for i in range(F.h1_dim)))
            shared = (cl, None if iness else (idx, mob, sep, cl.hom_class))
            self._shared[(iness, mob, idx, hom)] = shared
        self.cache[cm] = shared
        return shared

    def lookup(self, curve: PoleCurve):
        """The cached pair of a traced curve."""
        g = curve.geometry
        cm = 0
        for ch in g.chords:
            cm |= self.chord_bit[ch]
        hit = self.cache.get(cm)
        if hit is None:
            hit = self.classify(cm, curve.word, g.band_mask, g.flip_parity,
                                self.F._cycle_class(g.band_mask))
        return hit

    def block(self, base: int, k: int, counts: dict) -> None:
        """Add the 2^k states from `base` (a multiple of 2^k) to `counts`.

        The bands start as open paths: `end[d]` is the other end of the path
        ending at dart d, and `pm[d]` its chord mask.  The bare-loop chords
        and the chords of the fixed bits k .. c-1 are added once, then bits
        k-1 .. 0 are decided depth first, 0 before 1, so the states come in
        increasing order.  A chord whose darts end one path closes a curve;
        its cache entry is looked up there, once for every state below, and
        only a miss walks it (`walk`, from its lowest dart, as
        `splice_curves` does).  Any other chord (a, b) joins the paths a..e
        and b..f into e..f, writing end[e], end[f], pm[e] and pm[f]; a and
        b are never ends again, so undoing the join needs no saved state:
        end[e] = a, end[f] = b, pm[e] = pm[a], pm[f] = pm[b].  At its end
        the block checks that the undos restored the paths the fixed bits
        left."""
        c = self.F.ribbon.n_crossings
        chords, cache, splice = self.chords, self.cache, self.splice
        end = self.band_other[:]
        pm = [0] * len(end)
        scratch = bytearray(len(end))
        sig: list = []

        def entry(mask: int, cm: int):
            hit = cache.get(cm)
            if hit is None:
                curve = self.walk(mask, chords[(cm & -cm).bit_length() - 1][0], scratch)
                if curve[0] != cm:
                    raise AssertionError("path chord mask disagrees with its walk")
                hit = self.classify(*curve)
            return hit[1]

        iness = 0
        fixed = list(self.loops)
        for i in range(c - 1, k - 1, -1):
            sp = splice[(base >> i) & 1][i]
            fixed += (sp[:3], sp[3:])
        for a, b, cb in fixed:
            if end[a] == b:
                hit = entry(base, pm[a] | cb)
                if hit is None:
                    iness += 1
                else:
                    sig.append(hit)
            else:
                e, f = end[a], end[b]
                end[e], end[f] = f, e
                pm[e] = pm[f] = pm[a] | pm[b] | cb

        def descend(i: int, mask: int, nat: int, iness: int) -> None:
            i -= 1
            for bit in (0, 1):
                if bit:
                    mask |= 1 << i
                    nat -= 2
                a1, b1, cb1, a2, b2, cb2 = splice[bit][i]
                top = len(sig)
                inc = iness
                e1 = end[a1]
                if e1 == b1:
                    hit = entry(mask, pm[a1] | cb1)
                    if hit is None:
                        inc += 1
                    else:
                        sig.append(hit)
                else:
                    f1 = end[b1]
                    end[e1] = f1
                    end[f1] = e1
                    pm[e1] = pm[f1] = pm[a1] | pm[b1] | cb1
                e2 = end[a2]
                if e2 == b2:
                    hit = entry(mask, pm[a2] | cb2)
                    if hit is None:
                        inc += 1
                    else:
                        sig.append(hit)
                else:
                    f2 = end[b2]
                    end[e2] = f2
                    end[f2] = e2
                    pm[e2] = pm[f2] = pm[a2] | pm[b2] | cb2
                if i:
                    descend(i, mask, nat, inc)
                else:
                    key = (tuple(sorted(sig)), nat, inc)
                    counts[key] = counts.get(key, 0) + 1
                if e2 != b2:
                    end[e2] = a2
                    end[f2] = b2
                    pm[e2] = pm[a2]
                    pm[f2] = pm[b2]
                if e1 != b1:
                    end[e1] = a1
                    end[f1] = b1
                    pm[e1] = pm[a1]
                    pm[f1] = pm[b1]
                del sig[top:]

        nat = c - 2 * bin(base).count("1")
        if k:
            paths = (end[:], pm[:])
            descend(k, base, nat, iness)
            if (end, pm) != paths:
                raise AssertionError("undo left the open paths changed")
        else:
            key = (tuple(sorted(sig)), nat, iness)
            counts[key] = counts.get(key, 0) + 1


def _engine(F: ClosedSurface) -> _Engine:
    eng = getattr(F, "_state_engine", None)
    if eng is None:
        eng = _Engine(F)
        F._state_engine = eng
    return eng


def splice_curves(code: TwistedGaussCode, F: ClosedSurface, choice: int) -> PoleState:
    if code != F.ribbon.code:
        raise ValueError("surface was built from a different code")
    c = F.ribbon.n_crossings
    if not 0 <= choice < (1 << c):
        raise ValueError("splice choice out of range")
    eng = _engine(F)
    visited = bytearray(F.ribbon.total_darts)
    curves = []
    start = visited.find(0)
    while start >= 0:
        cm, word, bmask, fpar, _hom = eng.walk(choice, start, visited)
        curves.append(PoleCurve(EmbeddedCurve(eng.chords_of(cm), bmask, fpar), word))
        start = visited.find(0, start + 1)
    natural = c - 2 * bin(choice).count("1")
    return PoleState(choice, natural, tuple(curves))


def enumerate_states(code: TwistedGaussCode, F: ClosedSurface) -> Iterator[PoleState]:
    for mask in range(1 << F.ribbon.n_crossings):
        yield splice_curves(code, F, mask)


def curve_poles(F: ClosedSurface, curve: PoleCurve) -> list:
    """The curve's poles as (disk, chord, kind), in chord order.  A chord at
    a crossing disk joining two in-darts is an I pole, two out-darts an O
    pole; bare-loop chords carry none."""
    rs = F.ribbon
    c4 = 4 * rs.n_crossings
    return [
        (rs.disk_of[a], (a, b), "I" if a % 4 < 2 else "O")
        for (a, b) in curve.geometry.chords
        if a < c4 and (a % 4 < 2) == (b % 4 < 2)
    ]


def classify_state(F: ClosedSurface, s: PoleState):
    """Per-curve classifications plus (inessential count, one-sided count)."""
    eng = _engine(F)
    cls = tuple(eng.lookup(c)[0] for c in s.curves)
    iness = sum(1 for x in cls if x.inessential)
    nonori = sum(1 for x in cls if x.mobius)
    return cls, iness, nonori


def check_nonseparation(F: ClosedSurface, s: PoleState) -> list:
    """Violations of: positive index forces non-separating."""
    cls, _, _ = classify_state(F, s)
    out = []
    for curve, cl in zip(s.curves, cls):
        if cl.index > 0 and cl.separating:
            out.append((s.choice, curve.geometry.chords, cl))
    return out


def check_pole_balance(F: ClosedSurface, s: PoleState) -> list:
    """Violations of: every complementary region sees as many I-poles as
    O-poles (counted with multiplicity over region-chord incidences)."""
    if not s.curves:
        return []
    poles = [p for c in s.curves for p in curve_poles(F, c)]
    regs = surface_regions(F, [c.geometry for c in s.curves], poles)
    return [(s.choice, r) for r in regs if r.i_poles != r.o_poles]


def state_report(F: ClosedSurface, s: PoleState) -> dict:
    cls, _, _ = classify_state(F, s)
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
            for c, cl in zip(s.curves, cls)
        ],
    }


def sum_counts(F: ClosedSurface, lo: int, hi: int) -> dict:
    """Count the states of a bitmask range by everything the brackets need:
        counts[(signature, natural, iness)] = count
    where signature is the sorted per-essential-curve tuple
    (index, mobius, separating, hom_class) and iness counts the curves that
    bound disks.

    `[lo, hi)` is cut into aligned blocks of 2^k masks that share their high
    bits; `_Engine.block` sums each one depth first over its k low bits, so
    the work of a splice prefix is shared by every state below it."""
    eng = _engine(F)
    c = F.ribbon.n_crossings
    if lo < 0 or hi > 1 << c:
        raise ValueError("splice choice out of range")
    counts: dict = {}
    while lo < hi:
        k = (lo & -lo).bit_length() - 1 if lo else c
        while lo + (1 << k) > hi:
            k -= 1
        eng.block(lo, k, counts)
        lo += 1 << k
    return counts
