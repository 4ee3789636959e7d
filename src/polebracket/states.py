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
    """Static splice tables for one surface, plus the classification cache."""

    def __init__(self, F: ClosedSurface):
        self.F = F
        rs = F.ribbon
        self.rs = rs
        n = rs.total_darts
        c4 = 4 * rs.n_crossings
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
        self.tau = tau
        self.side = side
        self.c4 = c4
        self.cls_cache: dict = {}

    def trace(self, mask: int):
        """Curve data for one splice choice: per curve
        (chords, band_mask, flip_parity, word)."""
        rs = self.rs
        tau, side, c4 = self.tau, self.side, self.c4
        band_at = rs.band_at
        visited = bytearray(rs.total_darts)
        out = []
        for start in range(rs.total_darts):
            if visited[start]:
                continue
            word: list[int] = []
            chords: list[tuple[int, int]] = []
            bmask = 0
            fpar = 0
            # a pole's kind is cur & 2: 0 at in-darts (I), 2 at out-darts (O)
            first = last = -1
            cur = start
            while True:
                visited[cur] = 1
                bit = (mask >> (cur >> 2)) & 1 if cur < c4 else 0
                x = tau[bit][cur]
                visited[x] = 1
                s = side[bit][cur]
                if s >= 0:
                    k = cur & 2
                    if k == last:
                        raise AssertionError("pole kinds fail to alternate")
                    if last < 0:
                        first = k
                    last = k
                    word.append(s)
                chords.append((cur, x) if cur < x else (x, cur))
                nxt, flip, bi = band_at[x]
                if flip:
                    word.append(MARK)
                    fpar ^= 1
                bmask |= 1 << bi
                cur = nxt
                if cur == start:
                    break
            if last >= 0 and first == last:
                # the wrap-around pair; it also rules out an odd pole count
                raise AssertionError("pole kinds fail to alternate")
            out.append((tuple(sorted(chords)), bmask, fpar, tuple(word)))
        return out

    def classify(self, chords, bmask, fpar, word) -> CurveClassification:
        hit = self.cls_cache.get(chords)
        if hit is not None:
            return hit
        F = self.F
        mob = fpar == 1
        hom = F.homology_class(bmask)
        sep = not any(hom)
        idx = polewords.index(word)
        iness = (not mob) and sep and F.bounds_disk(EmbeddedCurve(chords, bmask, fpar))
        cls = CurveClassification(iness, sep, mob, idx, hom)
        self.cls_cache[chords] = cls
        return cls


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
    curves = tuple(
        PoleCurve(EmbeddedCurve(chords, bmask, fpar), word)
        for (chords, bmask, fpar, word) in eng.trace(choice)
    )
    natural = c - 2 * bin(choice).count("1")
    return PoleState(choice, natural, curves)


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
    cls = tuple(
        eng.classify(c.geometry.chords, c.geometry.band_mask, c.geometry.flip_parity, c.word)
        for c in s.curves
    )
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
    bound disks."""
    eng = _engine(F)
    c = F.ribbon.n_crossings
    counts: dict = {}
    for mask in range(lo, hi):
        iness = 0
        sig = []
        for (chords, bmask, fpar, word) in eng.trace(mask):
            cl = eng.classify(chords, bmask, fpar, word)
            if cl.inessential:
                iness += 1
            else:
                sig.append((cl.index, cl.mobius, cl.separating, cl.hom_class))
        key = (tuple(sorted(sig)), c - 2 * bin(mask).count("1"), iness)
        counts[key] = counts.get(key, 0) + 1
    return counts
