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

Every chord a splice can draw has one bit, so a chord set is an int.  The
state loop of `sum_counts` traces each curve for its chord mask alone and
looks that up in the cache.  Only a miss walks the curve again
(`_Engine.walk`) for its pole word, band mask, flip parity and homology
class, the XOR of the surface's per-band classes; the walker also checks
that pole kinds alternate, which it does for every distinct chord set.
`splice_curves` walks each curve once with the same walker.
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
    sorted chord tuple.  Per (splice bit, dart): `tau` is the dart the chord
    joins it to, `cbit` the chord's bit and `side` its pole's side bit (-1
    where the chord joins an in-dart to an out-dart and makes no pole).
    `band_other[d]` is the dart at the far end of d's band.  The walker's
    `step` holds the rest of a step past a chord: (far dart, chord bit,
    next dart, band flip, band bit, band class).

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
        self.cbit = tuple(
            [self.chord_bit[(d, t[d]) if d < t[d] else (t[d], d)] for d in range(n)]
            for t in tau
        )
        self.tau = tau
        self.side = side
        self.band_other = [b[0] for b in rs.band_at]
        step = []
        for t, cb in zip(tau, self.cbit):
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

    Per dart the loop only marks darts visited, crosses the disk, ORs in the
    chord's bit and crosses the band; the chord mask then looks the curve up
    in the cache, and only a miss walks the curve again (`_Engine.walk`)."""
    eng = _engine(F)
    tau, cbit, band_other, cache = eng.tau, eng.cbit, eng.band_other, eng.cache
    n = F.ribbon.total_darts
    c = F.ribbon.n_crossings
    counts: dict = {}
    for mask in range(lo, hi):
        visited = bytearray(n)
        iness = 0
        sig = []
        start = visited.find(0)
        while start >= 0:
            cm = 0
            cur = start
            while True:
                visited[cur] = 1
                bit = (mask >> (cur >> 2)) & 1
                x = tau[bit][cur]
                visited[x] = 1
                cm |= cbit[bit][cur]
                cur = band_other[x]
                if cur == start:
                    break
            hit = cache.get(cm)
            if hit is None:
                hit = eng.classify(*eng.walk(mask, start, visited))
            if hit[1] is None:
                iness += 1
            else:
                sig.append(hit[1])
            start = visited.find(0, start + 1)
        key = (tuple(sorted(sig)), c - 2 * bin(mask).count("1"), iness)
        counts[key] = counts.get(key, 0) + 1
    return counts
