"""Ribbon realizations of twisted Gauss codes and their capped surfaces.

A diagram with c crossings and f bare loops is realized as a band surface:
one square disk per crossing (and a small disk per bare loop), connected by
bands, one band per diagram arc.  A band is flipped once for every bar on
its arc (mod 2).  Capping every boundary circle of the band surface with a
disk yields the closed carrier surface; state curves drawn on the band
surface are classified against that closed surface (null-homologous,
separating, disk-bounding, Mobius-core).  The caps, pieces, Euler
characteristic and orientability of the closed surface are read off the
ribbon graph by face tracing (`ClosedSurface`); see Mohar and Thomassen,
*Graphs on Surfaces* (2001), ch. 3-4.  Z/2 homology is read in the
coordinates of a spanning forest's fundamental cycles, the tree-cotree
idea of Eppstein (SODA 2003): a cycle's coordinates are its non-tree
bands, and the caps, reduced in those coordinates, are the relations.
`realize` caps a code's ribbon: it is the one place where a code becomes
a surface.

Cutting along curves works on the handle decomposition (crossing disks,
bands, caps) with plain int tables, in one cutter, `ClosedSurface._cut`:
chords split the touched disks into fragments, the bands the curves run
along split into two lanes each, a union-find over fragments finds the
regions, and each region's Euler characteristic is fragments - lanes + caps.
The disk test cuts along one curve and asks whether the side of the curve,
or the other one, is a disk.  `regions` cuts along all curves of a state
and reads boundary circles and pole incidences off the chords; no program
path calls it, and the tests check the pole-balance check's cap count
(`states.pole_regions`) against it.  `cut_complex` builds the same cut as
a full polygon complex.

Dart layout at crossing k (darts are band endpoints on disk boundaries):
    4k   over-in    4k+1 under-in    4k+2 over-out    4k+3 under-out
Counterclockwise boundary order is (oi, ui, oo, uo) at a positive crossing
and (oi, uo, oo, ui) at a negative one; the sign convention is the
determinant of (over direction, under direction), so the closure of a
positive braid generator has all-positive crossings.

`ribbon_faces` and `cut_complex` present the band surface and its cut as
polygon complexes (`cells.PolygonComplex`).  No program path builds one:
they are kept as the reference that the tests and the bench tracer use.
Their edge ids (the first entry keeps sorting well defined):
    ("A", d)        boundary arc of a disk across dart d, oriented with the
                    counterclockwise disk walk
    ("C", disk, i)  disk boundary corner between consecutive darts
    ("S", b, 0|1)   the two sides of band b
    cut complexes additionally use AL/AR (split dart arcs), CORE (split band
    cores), and CH (chord copies).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple

from .cells import PolygonComplex
from .codes import TwistedGaussCode, Visit


# ---------------------------------------------------------------------------
# ribbon construction


class RibbonComplex(NamedTuple):
    """Band-surface presentation of a twisted Gauss code.  It keeps what
    the capped surface and its splice states read, not the code itself: disk
    k realizes the k-th smallest crossing id, and the ids are not kept."""

    n_crossings: int
    total_darts: int
    rotations: tuple[tuple[int, ...], ...]  # counterclockwise darts per disk
    bands: tuple[tuple[int, int, int], ...]  # (u, v, flip); core oriented u -> v
    disk_of: tuple[int, ...]               # dart -> disk
    band_at: tuple[tuple[int, int, int], ...]  # dart -> (other dart, flip, band index)


def build_ribbon(code: TwistedGaussCode) -> RibbonComplex:
    """The band surface of a code, in one pass per component.

    Crossing id cid is disk k, the k-th smallest id, and its darts are 4k
    onward.  Each visit closes the band from the previous visit's out-dart
    to its own in-dart, flipped once per bar between them; the bars before
    a component's first visit join its last band, which closes the cycle.
    A component with no visit is a bare loop: a two-dart disk numbered
    after the crossings, with one band back to itself.  Bands are numbered
    in that order, component by component."""
    signs = code.signs()
    ids = sorted(signs)
    c = len(ids)
    kidx = dict(zip(ids, range(0, 4 * c, 4)))
    rotations: list[tuple[int, ...]] = [
        (d, d + 1, d + 2, d + 3) if signs[cid] > 0 else (d, d + 3, d + 2, d + 1)
        for cid, d in kidx.items()
    ]
    disk_of = [d >> 2 for d in range(4 * c)]

    bands: list[tuple[int, int, int]] = []
    total = 4 * c
    for comp in code.components:
        prev = first = -1
        flip = lead = 0
        for tok in comp:
            if isinstance(tok, Visit):
                d = kidx[tok.crossing] if tok.over else kidx[tok.crossing] + 1
                if prev < 0:
                    first, lead = d, flip
                else:
                    bands.append((prev, d, flip))
                prev, flip = d + 2, 0
            else:
                flip ^= 1
        if prev >= 0:
            bands.append((prev, first, flip ^ lead))
        else:
            # bare loop: a small disk with two darts and one band back to itself
            rotations.append((total, total + 1))
            disk_of += (len(rotations) - 1,) * 2
            bands.append((total + 1, total, flip))
            total += 2

    band_at: list = [None] * total
    for bi, (u, v, flip) in enumerate(bands):
        band_at[u] = (v, flip, bi)
        band_at[v] = (u, flip, bi)
    if None in band_at:
        raise AssertionError("dart without band")

    return RibbonComplex(
        n_crossings=c,
        total_darts=total,
        rotations=tuple(rotations),
        bands=tuple(bands),
        disk_of=tuple(disk_of),
        band_at=tuple(band_at),
    )


# ---------------------------------------------------------------------------
# polygon presentation of the band surface


def _disk_face(disk: int, rot: tuple[int, ...]) -> list[tuple]:
    face = []
    for i, d in enumerate(rot):
        face.append((("A", d), 1))
        face.append((("C", disk, i), 1))
    return face


def _band_face(bi: int, band: tuple[int, int, int]) -> list[tuple]:
    u, v, flip = band
    if flip == 0:
        return [(("A", u), -1), (("S", bi, 1), 1), (("A", v), -1), (("S", bi, 0), -1)]
    return [(("A", u), -1), (("S", bi, 1), 1), (("A", v), 1), (("S", bi, 0), -1)]


def ribbon_faces(rs: RibbonComplex) -> list[list[tuple]]:
    faces = [_disk_face(disk, rot) for disk, rot in enumerate(rs.rotations)]
    faces += [_band_face(bi, b) for bi, b in enumerate(rs.bands)]
    return faces


# ---------------------------------------------------------------------------
# closed surface


class PieceReport(NamedTuple):
    euler: int
    orientable: bool
    genus: int        # handles if orientable, else 0
    crosscaps: int    # 0 if orientable


class EmbeddedCurve(NamedTuple):
    """A closed curve on the band surface running through whole bands and
    crossing each touched disk along straight chords between darts."""

    chords: tuple[tuple[int, int], ...]   # (dart, dart) with dart < dart, sorted
    band_mask: int                        # bit per band index
    flip_parity: int                      # 1 when the curve core is orientation reversing


def _classify_piece(euler: int, orientable: bool) -> PieceReport:
    if orientable:
        return PieceReport(euler, True, (2 - euler) // 2, 0)
    return PieceReport(euler, False, 0, 2 - euler)


class ClosedSurface:
    """Band surface with all boundary circles capped by disks.

    Exposes the closed-surface classification, a band-mask model of first
    homology with Z/2 coefficients, and the two curve predicates the state
    sum needs: the homology class and `bounds_disk`.  The class is linear
    in the bands, so a curve's class is the XOR of the per-band table
    `band_class` over its bands; `homology_class` takes any band mask,
    rejects one that is not a cycle and reads the same table.  Instances
    are immutable after construction, except that `states` attaches its
    per-surface engine (splice tables, curve-class table and cache of disk
    tests) and that `band_class`, which the state sum and the curve
    predicates read, is made on first use.  Construction makes what `info`
    prints: the pieces, Euler characteristic, orientability and the rank
    of H1, which it checks against 2 x pieces - chi.

    Everything is read off the ribbon graph with int tables.  A corner of a
    disk is named by the dart it follows, and a band side joins two corners:
    u ~ pred v and pred u ~ v on an unflipped band (u, v), u ~ v and
    pred u ~ pred v on a flipped one.  The caps are the boundary circles,
    each walked once by face tracing (Gross and Tucker, 1987): forward,
    corner d leaves by a side of band(succ d), backward by one of band(d),
    and a flipped band turns the walk round.  The caps are listed by least
    corner (`_cap_corner`, ascending) with the mask of the bands each runs
    along once, and `_corner_cap[d]` is the position of corner d's cap.
    The pieces are the trees of a spanning forest, chi = disks - bands +
    caps; a piece is one-sided iff w1, the flip parity, is odd on one of
    its fundamental cycles, read off each disk's tree path (0 on a tree band).
    Pieces are ordered by their largest disk, as `info` has always printed.

    Homology: every cycle is the sum of the fundamental cycles of its
    non-tree bands, so those bits are its coordinates, and the caps'
    non-tree bits span the boundaries.  Construction puts them in echelon
    form with the highest bit as pivot, which fixes the rank; `band_class`
    reduces the rows fully.  The fundamental cycles of the other non-tree
    bands, in band order, are the basis; a pivot band's cycle is homologous
    to the sum of the rest of its reduced row, so its class is the basis
    positions of those bits.  This is the basis, and so every
    printed class, that a band-space echelon of the caps followed by the
    fundamental cycles in band order gives (`tests/reference.py`).
    """

    def __init__(self, rs: RibbonComplex):
        self.ribbon = rs
        n = rs.total_darts
        self._succ = succ = [0] * n
        self._pred = pred = [0] * n
        for rot in rs.rotations:
            a = rot[-1]
            for b in rot:
                succ[a] = b
                pred[b] = a
                a = b
        # the caps: each boundary circle walked once from its least corner
        band_at = rs.band_at
        self._corner_cap = cap = [-1] * n
        self._cap_corner = caps = []
        self._cap_masks = masks = []
        flip_mask = 0
        for first in range(n):
            if cap[first] >= 0:
                continue
            mask, d, forward, k = 0, first, 1, len(caps)
            while cap[d] < 0:
                cap[d] = k
                o, flip, bi = band_at[succ[d] if forward else d]
                mask ^= 1 << bi
                if flip:
                    forward ^= 1
                    flip_mask |= 1 << bi
                d = o if forward else pred[o]
            caps.append(first)
            masks.append(mask)
        self.flip_mask = flip_mask
        self._build_homology()

    # -- homology --------------------------------------------------------

    def _build_homology(self):
        """Pieces, orientability and the caps' echelon rows, which fix the
        rank of Z/2 homology (see the class docstring)."""
        rs = self.ribbon
        n_disks = len(rs.rotations)
        # spanning forest: roots ascending, depth first, bands in index order;
        # the homology basis, and so every printed class, follows this order
        bands, disk_of = rs.bands, rs.disk_of
        tree = [-1] * n_disks        # disk -> the root of its tree
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n_disks)]
        for bi, (u, v, _f) in enumerate(bands):
            x, y = disk_of[u], disk_of[v]
            adj[x].append((y, bi))
            adj[y].append((x, bi))
        tree_mask = 0
        parity = [0] * n_disks       # flip parity of the tree path to the root
        for root in range(n_disks):
            if tree[root] >= 0:
                continue
            tree[root] = root
            queue = [root]
            while queue:
                x = queue.pop()
                for y, bi in adj[x]:
                    if tree[y] < 0:
                        tree[y] = root
                        tree_mask |= 1 << bi
                        parity[y] = parity[x] ^ bands[bi][2]
                        queue.append(y)

        largest = {r: x for x, r in enumerate(tree)}
        index = {r: i for i, r in enumerate(sorted(largest, key=largest.get))}
        piece = [index[r] for r in tree]
        self.band_piece = band_piece = tuple([piece[disk_of[u]] for (u, _v, _f) in bands])
        euler = [0] * len(index)
        for p in piece:
            euler[p] += 1
        for p in band_piece:
            euler[p] -= 1
        for d in self._cap_corner:
            euler[piece[disk_of[d]]] += 1
        one_sided = [False] * len(index)
        for bi, (u, v, flip) in enumerate(bands):
            if parity[disk_of[u]] ^ parity[disk_of[v]] ^ flip:
                one_sided[band_piece[bi]] = True

        # the caps' non-tree bits span the boundaries: echelon, highest pivot
        cotree = ~tree_mask & ((1 << len(bands)) - 1)
        rows: dict[int, int] = {}
        for vec in self._cap_masks:
            vec &= cotree
            while vec:
                p = vec.bit_length() - 1
                row = rows.get(p)
                if row is None:
                    rows[p] = vec
                    break
                vec ^= row
        self._rows = rows
        # the other non-tree bands' fundamental cycles are the basis
        self._free = free = cotree & ~sum(1 << p for p in rows)
        self.pieces = tuple(
            _classify_piece(e, not o) for e, o in zip(euler, one_sided)
        )
        self.euler = sum(euler)
        self.orientable = not any(one_sided)
        self.h1_dim = free.bit_count()
        expected = 2 * len(self.pieces) - self.euler
        if self.h1_dim != expected:
            raise AssertionError(
                f"homology dimension {self.h1_dim}, expected {expected}"
            )

    @cached_property
    def band_class(self) -> tuple[int, ...]:
        """Per band, the class of its fundamental cycle, with bit i as basis
        position i (0 on tree bands).  Made on first use from the echelon
        rows of the caps that `__init__` finds: the basis is the free
        non-tree bands in band order, and a pivot band's cycle is homologous
        to the rest of its row once the row is fully reduced.  The state
        sum and `homology_class` read it; a surface that `info` reports
        builds none."""
        rows = dict(self._rows)
        pivots = 0
        for p in sorted(rows):
            # every lower row is reduced already, so each step clears one pivot
            row = rows[p]
            low = row & pivots
            while low:
                q = low.bit_length() - 1
                row ^= rows[q]
                low ^= 1 << q
            rows[p] = row
            pivots |= 1 << p
        band_class = [0] * len(self.ribbon.bands)
        position = {}
        free = self._free
        while free:
            low = free & -free
            bi = low.bit_length() - 1
            band_class[bi] = 1 << len(position)
            position[bi] = len(position)
            free ^= low
        for p, row in rows.items():
            row ^= 1 << p
            h = 0
            while row:
                low = row & -row
                h |= 1 << position[low.bit_length() - 1]
                row ^= low
            band_class[p] = h
        return tuple(band_class)

    def homology_class(self, curve) -> tuple[int, ...]:
        """Z/2 homology coordinates of a band cycle in the chosen basis.
        Raises ValueError when the mask is not a cycle: when some disk meets
        its bands an odd number of times."""
        mask = curve.band_mask if isinstance(curve, EmbeddedCurve) else int(curve)
        bands, disk_of = self.ribbon.bands, self.ribbon.disk_of
        if mask < 0 or mask >> len(bands):
            raise ValueError("band mask is not a cycle")
        odd, rest = 0, mask
        while rest:
            low = rest & -rest
            u, v, _f = bands[low.bit_length() - 1]
            odd ^= (1 << disk_of[u]) ^ (1 << disk_of[v])
            rest ^= low
        if odd:
            raise ValueError("band mask is not a cycle")
        h = self._cycle_class(mask)
        return tuple((h >> i) & 1 for i in range(self.h1_dim))

    def _cycle_class(self, band_mask: int) -> int:
        """The class of a cycle with bit i as coordinate i of
        `homology_class`: the XOR of `band_class` over its bands.  A curve's
        band mask is always a cycle; this does not check it."""
        h = 0
        table = self.band_class
        while band_mask:
            low = band_mask & -band_mask
            h ^= table[low.bit_length() - 1]
            band_mask ^= low
        return h

    # -- curve predicates ---------------------------------------------------

    def bounds_disk(self, curve: EmbeddedCurve) -> bool:
        """True when the curve bounds an embedded disk inside the capped
        surface.  Mobius cores and homologically nontrivial curves (class
        read off `band_class`) are rejected outright, and on a sphere piece
        every remaining curve bounds a disk.  Otherwise the curve is two-sided
        and null-homologous, so it splits its piece into two sides, each with
        the curve as its one boundary circle, and it bounds a disk iff one
        side has chi 1.  Chi of the side that holds the lune of the curve's
        first chord is counted on the handle decomposition cut along the
        curve (`_cut`), and chi of the other side is chi(piece) minus it."""
        mask = curve.band_mask
        if curve.flip_parity or self._cycle_class(mask):
            return False
        if not mask:
            raise ValueError("curve uses no bands")
        piece_euler = self.pieces[self.band_piece[(mask & -mask).bit_length() - 1]].euler
        if piece_euler == 2:
            return True
        root, euler = self._cut(curve.chords, mask)
        side = euler[root[len(self.ribbon.rotations)]]
        return side == 1 or piece_euler - side == 1

    def _cut(self, chords, band_mask: int) -> tuple[list[int], list[int]]:
        """Cut the handle decomposition of the capped surface along a family
        of disjoint curves, given by all their chords and the union of their
        band masks.  Shared by the disk test (`bounds_disk`, one curve) and
        `regions` (all curves of a state).

        The cut leaves fragments of disks.  A chord (x, succ x) cuts corner
        pos[x] off its disk as a lune: the i-th chord's lune is fragment
        n_disks + i, and the fragment on its other side keeps the disk's
        index.  So a crossing disk with two chords leaves two lunes and the
        middle, a bare-loop disk's one chord leaves a lune and the other
        corner, and an untouched disk stays whole.  A band in the mask
        splits into two lanes: side 0 joins AL(u) to AR(v) and side 1 joins
        AR(u) to AL(v), or AL(u) to AL(v) and AR(u) to AR(v) when the band
        is flipped, where AL(d) is the half-arc of dart d next to corner
        pos[d] and AR(d) the one next to corner pos[d] - 1 (the faces of
        `cut_complex`).  Any other band is one lane joining its two end
        fragments.  The curves miss every boundary circle, so each cap lies
        on the fragment of any one of its corners and joins nothing the
        lanes have not joined.

        Returns (root, euler): root[f] is the region of fragment f, named by
        one of its fragments, and euler[r] = fragments - lanes + caps of
        region r (0 where r names no region).  Raises ValueError, checked
        chord by chord, for a chord dart on a band outside the mask, a chord
        joining non-adjacent darts, two chords on a crossing disk that do
        not cut opposite corners, and any other chord pattern: more than
        two chords on a crossing disk or more than one on a bare-loop disk.
        """
        rs = self.ribbon
        succ, pred, band_at, disk_of = self._succ, self._pred, rs.band_at, rs.disk_of
        n_disks = len(rs.rotations)
        frag = list(disk_of)         # corner -> fragment; disks keep their index
        cuts = [0] * n_disks         # chords per disk
        n_frag = n_disks
        for (a, b) in chords:
            if not (band_mask >> band_at[a][2]) & 1 or not (band_mask >> band_at[b][2]) & 1:
                raise ValueError("chord dart on an unsplit band")
            if succ[a] == b:
                x = a
            elif succ[b] == a:
                x = b
            else:
                raise ValueError("chord joins non-adjacent darts")
            disk = disk_of[x]
            n = cuts[disk]
            # a bare-loop disk has two darts, so there succ x is pred x
            if n and (n == 2 or succ[x] == pred[x]):
                raise ValueError("unsupported chord pattern")
            if n and frag[succ[succ[x]]] == disk:
                raise ValueError("chords overlap")
            cuts[disk] = n + 1
            frag[x] = n_frag
            n_frag += 1
        lanes = []                   # (fragment, fragment) per lane
        for bi, (u, v, flip) in enumerate(rs.bands):
            if not (band_mask >> bi) & 1:
                lanes.append((frag[u], frag[v]))
            elif flip:
                lanes.append((frag[u], frag[v]))
                lanes.append((frag[pred[u]], frag[pred[v]]))
            else:
                lanes.append((frag[u], frag[pred[v]]))
                lanes.append((frag[pred[u]], frag[v]))
        # union-find with path halving (Tarjan and van Leeuwen, JACM 31, 1984):
        # a lane puts y's root under x's; flattened, root[f] is f's class root
        root = list(range(n_frag))
        for x, y in lanes:
            while root[x] != x:
                root[x] = x = root[root[x]]
            while root[y] != y:
                root[y] = y = root[root[y]]
            root[y] = x
        for x in range(n_frag):
            r = root[x]
            while root[r] != r:
                r = root[r]
            root[x] = r
        euler = [0] * n_frag
        for r in root:
            euler[r] += 1
        for (f, _g) in lanes:
            euler[root[f]] -= 1
        for d in self._cap_corner:
            euler[root[frag[d]]] += 1
        return root, euler

    # -- reports -------------------------------------------------------------

    def report(self) -> dict:
        pieces = []
        for p in self.pieces:
            if p.orientable:
                pieces.append({"orientable": True, "genus": p.genus})
            else:
                pieces.append({"orientable": False, "crosscaps": p.crosscaps})
        return {
            "euler": self.euler,
            "orientable": self.orientable,
            "pieces": pieces,
            "h1_rank": self.h1_dim,
        }


def realize(code: TwistedGaussCode) -> ClosedSurface:
    """The closed surface a code is drawn on: its ribbon, capped."""
    return ClosedSurface(build_ribbon(code))


# ---------------------------------------------------------------------------
# cutting along curves


class CutComplex(NamedTuple):
    complex: PolygonComplex
    # face index of the two sides of each chord copy: (disk, chord) -> (fa, fb)
    chord_faces: dict


def cut_complex(F: ClosedSurface, chords_by_disk: dict, split_mask: int) -> CutComplex:
    """Polygon complex obtained from the capped surface by slicing every
    listed disk along its chords and every band in split_mask down its core.
    Chords at a crossing disk must join rotation-adjacent darts; a touched
    crossing disk carries one or two disjoint chords, a touched bare-loop
    disk carries its single chord.  Caps are retained unchanged, so the
    result is the complement of the curves in the closed surface.

    The reference for the int-table cutter `ClosedSurface._cut`, which the
    disk test and `regions` use: the tests compare both with it, and it
    raises the same errors.  No program code calls it."""
    rs = F.ribbon
    faces: list[list[tuple]] = []
    chord_faces: dict = {}

    def AL(d):
        return ("AL", d)

    def AR(d):
        return ("AR", d)

    for disk, rot in enumerate(rs.rotations):
        chords = chords_by_disk.get(disk)
        if not chords:
            faces.append(_disk_face(disk, rot))
            continue
        pos = {d: i for i, d in enumerate(rot)}
        n = len(rot)
        for (a, b) in chords:
            for d in (a, b):
                if not ((split_mask >> rs.band_at[d][2]) & 1):
                    raise ValueError("chord dart on an unsplit band")

        def corner(i):
            return ("C", disk, i)

        def succ(d):
            return rot[(pos[d] + 1) % n]

        norm = []
        for (a, b) in chords:
            if succ(a) == b:
                norm.append((a, b))
            elif succ(b) == a:
                norm.append((b, a))
            else:
                raise ValueError("chord joins non-adjacent darts")
        if len(norm) == 1 and n == 2:
            # bare-loop disk: the chord splits the bigon into two bigons
            (x, y) = norm[0]
            e1 = ("CH", disk, 0)
            e2 = ("CH", disk, 1)
            f1 = [(AL(x), 1), (corner(pos[x]), 1), (AR(y), 1), (e1, -1)]
            f2 = [(AL(y), 1), (corner(pos[y]), 1), (AR(x), 1), (e2, 1)]
            faces += [f1, f2]
            key = (disk, (min(x, y), max(x, y)))
            chord_faces[key] = (len(faces) - 2, len(faces) - 1)
            continue
        if len(norm) == 1:
            (x, y) = norm[0]
            lch = ("CH", disk, pos[x], "L")
            rch = ("CH", disk, pos[x], "R")
            lune = [(AL(x), 1), (corner(pos[x]), 1), (AR(y), 1), (lch, -1)]
            rest: list[tuple] = [(AL(y), 1), (corner(pos[y]), 1)]
            d = succ(y)
            while d != x:
                rest.append((("A", d), 1))
                rest.append((corner(pos[d]), 1))
                d = succ(d)
            rest.append((AR(x), 1))
            rest.append((rch, 1))
            faces += [lune, rest]
            key = (disk, (min(x, y), max(x, y)))
            chord_faces[key] = (len(faces) - 2, len(faces) - 1)
            continue
        if len(norm) == 2 and n == 4:
            (x0, y0), (x1, y1) = norm
            if pos[x1] == (pos[x0] + 2) % 4:
                pass
            elif pos[x0] == (pos[x1] + 2) % 4:
                (x0, y0), (x1, y1) = (x1, y1), (x0, y0)
            else:
                raise ValueError("chords overlap")
            lunes = []
            for (x, y) in ((x0, y0), (x1, y1)):
                lch = ("CH", disk, pos[x], "L")
                lunes.append([(AL(x), 1), (corner(pos[x]), 1), (AR(y), 1), (lch, -1)])
            mid = [
                (AL(y0), 1),
                (corner(pos[y0]), 1),
                (AR(x1), 1),
                (("CH", disk, pos[x1], "M"), 1),
                (AL(y1), 1),
                (corner(pos[y1]), 1),
                (AR(x0), 1),
                (("CH", disk, pos[x0], "M"), 1),
            ]
            faces += lunes
            mid_idx = len(faces)
            faces.append(mid)
            for i, (x, y) in enumerate(((x0, y0), (x1, y1))):
                key = (disk, (min(x, y), max(x, y)))
                chord_faces[key] = (mid_idx - 2 + i, mid_idx)
            continue
        raise ValueError("unsupported chord pattern")

    for bi, (u, v, flip) in enumerate(rs.bands):
        if not ((split_mask >> bi) & 1):
            faces.append(_band_face(bi, rs.bands[bi]))
            continue
        s0 = ("S", bi, 0)
        s1 = ("S", bi, 1)
        col = ("CORE", bi, "L")
        cor = ("CORE", bi, "R")
        if flip == 0:
            faces.append([(s0, 1), (AR(v), 1), (col, -1), (AL(u), 1)])
            faces.append([(AR(u), -1), (s1, 1), (AL(v), -1), (cor, -1)])
        else:
            faces.append([(AL(u), 1), (s0, 1), (AL(v), -1), (col, -1)])
            faces.append([(AR(u), -1), (s1, 1), (AR(v), 1), (cor, -1)])

    # the caps come from the reference's own boundary circles, so the cut
    # shares nothing with the int tables it checks
    for cap in PolygonComplex(ribbon_faces(rs)).boundary_circles():
        faces.append(list(cap))

    return CutComplex(PolygonComplex(faces), chord_faces)


class Region(NamedTuple):
    euler: int
    boundary_circles: int
    i_poles: int
    o_poles: int


def regions(
    F: ClosedSurface,
    curves: Iterable[EmbeddedCurve],
    poles: Iterable[tuple[int, tuple[int, int], str]] = (),
) -> tuple[Region, ...]:
    """Complementary regions of a family of disjoint curves, with pole
    incidences, counted on the handle decomposition by `ClosedSurface._cut`
    (the cutter the disk test uses).  Each curve leaves one boundary circle
    on the region of its first chord's lune and, when it is two-sided, one
    more on the region across that chord.  Each pole is (disk, chord, kind);
    a pole on a chord is incident to both regions bordering that chord (with
    multiplicity when a region borders it from both sides).  Regions come in
    no particular order."""
    curves = list(curves)
    chords = [ch for c in curves for ch in c.chords]
    band_mask = 0
    for c in curves:
        band_mask |= c.band_mask
    root, euler = F._cut(chords, band_mask)
    n_disks = len(F.ribbon.rotations)
    disk_of = F.ribbon.disk_of
    # the i-th chord's two sides: its lune and the fragment keeping the disk
    lune = {ch: n_disks + i for i, ch in enumerate(chords)}
    circles = [0] * len(root)
    icount = [0] * len(root)
    ocount = [0] * len(root)
    for c in curves:
        first = c.chords[0]
        circles[root[lune[first]]] += 1
        if not c.flip_parity:
            circles[root[disk_of[first[0]]]] += 1
    for (_disk, chord, kind) in poles:
        count = icount if kind == "I" else ocount
        count[root[lune[chord]]] += 1
        count[root[disk_of[chord[0]]]] += 1
    return tuple(
        Region(euler[r], circles[r], icount[r], ocount[r])
        for r, f in enumerate(root) if r == f
    )
