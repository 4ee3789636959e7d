"""R on any surface, read off the Gauss code alone.

`arrow.py` weighs every curve delta times its label, so it cannot tell a
disk from an essential curve of index 0, which is the surface's whole part
in R.  This oracle tells them apart without the ribbon, caps, homology or
cutter of `surfaces`: it counts the complementary regions of each state on
`arrow.py`'s ports, and takes each curve's index from `arrow.py` too.

- Port p names the corner of its crossing from p to its counterclockwise
  successor.  An arc q - q' joins corners pred q ~ q' and q ~ pred q', or
  pred q ~ pred q' and q ~ q' when it is flipped.  The caps of the closed
  surface are the classes of corners.
- Each splice pair (x, succ x) cuts corner x off its crossing as a lune, so
  the middle of the crossing holds the corners of the two pairs' second
  ports: r0 and r2 under the A-splice, r1 and r3 under the B-splice.  The
  middle is a channel joining their caps.  A state's regions are the caps
  joined by its channels, and chi(region) = caps - channels, since every
  band is split and each of its lanes runs beside one band side.
- A curve's two sides, at an arc q - q' it runs along, are the regions of
  corners pred q and q.  A curve with an odd number of flips is one-sided.
  A two-sided curve separates iff its sides stay apart when every other
  curve joins its own two sides, and it bounds a disk iff it separates and
  one side's chi, summed over that side's regions, is 1.
- A bare loop bounds a disk on its own sphere, or is the core of a
  projective plane when its bars are odd.
- Two two-sided curves of a state have one Z/2 homology class iff their
  union bounds: iff, with every other curve joining its own two sides,
  neither has both its sides in one component (`bounding_pairs`).

R = (-A)^(-3w) Sum A^(c - 2b) delta^disks M^(one-sided) Prod d_index over
the states, with w the sum of the signs, b the B-splices and d_0 = 1.  The
same regions give each state's pole loads, and the caps give each piece's
chi and orientability, for the tests to compare with `pole_regions` and
`info`.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from polebracket.codes import TwistedGaussCode
from polebracket.laurent import MultiLaurent, delta

from arrow import _curves, _ports


def _find(parent, x):
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _caps(succ: dict, arcs: dict) -> tuple[dict, dict, int]:
    """(predecessor per port, cap per corner, number of caps)."""
    pred = {b: a for a, b in succ.items()}
    parent = {p: p for p in succ}
    for q, (r, flip) in arcs.items():
        pairs = ((pred[q], pred[r]), (q, r)) if flip else ((pred[q], r), (q, pred[r]))
        for x, y in pairs:
            parent[_find(parent, x)] = _find(parent, y)
    roots: dict = {}
    cap = {p: roots.setdefault(_find(parent, p), len(roots)) for p in succ}
    return pred, cap, len(roots)


def pieces(code: TwistedGaussCode) -> Counter:
    """(chi, orientable) of each piece of the closed surface.  A piece is a
    set of crossings joined by arcs, with chi = caps - crossings, since it
    has two arcs per crossing.  It is orientable iff its crossings can be
    given sides that every unflipped arc keeps and every flipped one
    swaps."""
    succ, _splices, arcs, bare = _ports(code)
    cap = _caps(succ, arcs)[1]
    side: dict = {}
    out = Counter((1, False) if odd else (2, True) for odd in bare)
    for start in range(0, len(succ), 4):
        if start in side:
            continue
        side[start], stack, crossings, caps, orientable = 0, [start], 0, set(), True
        while stack:
            k = stack.pop()
            crossings += 1
            for p in range(k, k + 4):
                caps.add(cap[p])
                q, flip = arcs[p]
                j, s = q & -4, side[k] ^ flip
                if j not in side:
                    side[j] = s
                    stack.append(j)
                elif side[j] != s:
                    orientable = False
        out[len(caps) - crossings, orientable] += 1
    return out


def state_curves(code: TwistedGaussCode):
    """Per state, in mask order: its B-splices, chi per region, per curve
    (one-sided, index, region of one side, region of the other, a port it
    passes), and per region its [I poles, O poles].  A pole, a splice pair
    joining two in-ports or two out-ports, counts once on its lune's region
    and once on the middle's."""
    succ, splices, arcs, _bare = _ports(code)
    pred, cap, n_caps = _caps(succ, arcs)
    for mask in range(1 << len(splices)):
        partner, region, middles, poles = {}, list(range(n_caps)), [], []
        for k, pairs in enumerate(splices):
            (a, x), (b, y) = pairs[mask >> k & 1]
            partner.update({a: x, x: a, b: y, y: b})
            region[_find(region, cap[x])] = _find(region, cap[y])
            middles.append(x)
            poles += [(p, q) for p, q in ((a, x), (b, y)) if (p % 4 < 2) == (q % 4 < 2)]
        euler = Counter(_find(region, k) for k in range(n_caps))
        euler.subtract(_find(region, cap[x]) for x in middles)
        curves = [(flips, idx, _find(region, cap[pred[p]]), _find(region, cap[p]), p)
                  for p, flips, idx in _curves(partner, succ, arcs)]
        loads = {r: [0, 0] for r in euler}
        for p, q in poles:
            loads[_find(region, cap[p])][p % 4 > 1] += 1
            loads[_find(region, cap[q])][p % 4 > 1] += 1
        yield mask.bit_count(), euler, curves, loads


def _label(i: int, curves: list, euler: Counter) -> tuple:
    """("disk",), ("one-sided", index) or ("essential", index, separating)
    for curve i of a state."""
    flips, idx, a, b, _p = curves[i]
    if flips:
        return ("one-sided", idx)
    side = _join_except(curves, euler, (i,))
    a, b = _find(side, a), _find(side, b)
    if a == b:
        return ("essential", idx, False)
    chi = Counter()
    for r, e in euler.items():
        chi[_find(side, r)] += e
    return ("disk",) if 1 in (chi[a], chi[b]) else ("essential", idx, True)


def _join_except(curves: list, euler: Counter, skip: tuple) -> dict:
    """The union-find of a state's regions in which every curve not in
    `skip` joins its own two sides."""
    side = {r: r for r in euler}
    for j, (_f, _i, x, y, _p) in enumerate(curves):
        if j not in skip:
            side[_find(side, x)] = _find(side, y)
    return side


def bounding_pairs(euler: Counter, curves: list) -> set:
    """The pairs (i, j), i < j, of two-sided curves of one state, given as
    `state_curves` gives them, whose union bounds: the pairs of one Z/2
    homology class.  With every other curve joining its own two sides, the
    two curves are edges between the components left, and their union
    bounds iff those two edges form a bipartite graph: iff neither curve
    has both its sides in one component.  That holds for curves on
    different pieces too."""
    pairs = set()
    for i, j in combinations([i for i, cv in enumerate(curves) if not cv[0]], 2):
        side = _join_except(curves, euler, (i, j))
        if all(_find(side, curves[k][2]) != _find(side, curves[k][3]) for k in (i, j)):
            pairs.add((i, j))
    return pairs


def oracle_states(code: TwistedGaussCode):
    """Per state, in mask order: its B-splices, the label of each curve
    (bare loops last), the (I poles, O poles) of each region, where a bare
    loop's caps, two or one when its bars are odd, are regions with none,
    and the chi per region and curves that `state_curves` gives."""
    bare = _ports(code)[3]
    bare_labels = [("one-sided", 0) if odd else ("disk",) for odd in bare]
    bare_caps = [(0, 0)] * sum(1 if odd else 2 for odd in bare)
    for b, euler, curves, loads in state_curves(code):
        labels = [_label(i, curves, euler) for i in range(len(curves))]
        yield b, labels + bare_labels, Counter([tuple(n) for n in loads.values()] + bare_caps), euler, curves


def _weight(label: tuple) -> MultiLaurent:
    if label[0] == "disk":
        return delta()
    w = MultiLaurent.M() if label[0] == "one-sided" else MultiLaurent.one()
    return w * MultiLaurent.d(label[1]) if label[1] else w


def oracle_normalized(code: TwistedGaussCode) -> MultiLaurent:
    """R of the code, summed over its states by their curve labels."""
    signs = code.signs()
    c, w = len(signs), sum(signs.values())
    states = Counter((b, tuple(sorted(labels))) for b, labels, *_rest in oracle_states(code))
    out = MultiLaurent()
    for (b, labels), count in states.items():
        term = MultiLaurent.const(count) * MultiLaurent.A(c - 2 * b - 3 * w)
        for label in labels:
            term = term * _weight(label)
        out = out + term
    return -out if w & 1 else out
