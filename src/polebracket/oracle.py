"""Independent classical Kauffman bracket for cross-checking.

Computes the bracket of a bar-free code whose realization is a union of
spheres, by skein recursion over crossings with explicit arc merging: the
diagram is a set of arcs pairing crossing ports, an A- or B-smoothing
reconnects the four ports of one crossing, and a closed loop contributes a
factor delta.  Every loop counts (so the unknot evaluates to delta),
matching the double bracket's convention for inessential curves.

Whether the realization is a union of spheres is read off the same port
pairing: the faces are the orbits of "cross the arc, then turn to the next
port" in each crossing's counterclockwise port order.  A piece with V
crossings has 2V arcs, so its chi is its faces minus V; a bar-free piece is
orientable, so its chi is at most 2, and every piece is a sphere exactly
when faces - crossings is twice the number of pieces.  A bare loop is
always a sphere.

This deliberately shares no code with the surfaces or the state engine; it
is the oracle side of the classical-specialization check.
"""

from __future__ import annotations

from .codes import Bar, TwistedGaussCode, Visit
from .laurent import MultiLaurent, delta


def classical_kauffman_oracle(code: TwistedGaussCode) -> MultiLaurent:
    if any(isinstance(t, Bar) for comp in code.components for t in comp):
        raise ValueError("classical oracle requires a bar-free code")
    signs = code.signs()
    ids = sorted(signs)
    kidx = {cid: k for k, cid in enumerate(ids)}
    c = len(ids)

    other: dict[int, int] = {}
    free_loops = 0
    for comp in code.components:
        visits = [t for t in comp if isinstance(t, Visit)]
        if not visits:
            free_loops += 1
            continue
        for j, tok in enumerate(visits):
            ntok = visits[(j + 1) % len(visits)]
            p = 4 * kidx[tok.crossing] + (2 if tok.over else 3)
            q = 4 * kidx[ntok.crossing] + (0 if ntok.over else 1)
            other[p] = q
            other[q] = p

    # ports over-in, under-in, over-out, under-out are 0..3; counterclockwise
    # they run (0, 1, 2, 3) at a positive crossing and (0, 3, 2, 1) at a
    # negative one
    rots = [(0, 1, 2, 3) if signs[cid] > 0 else (0, 3, 2, 1) for cid in ids]
    turn = [0] * (4 * c)
    for k, rot in enumerate(rots):
        for i in range(4):
            turn[4 * k + rot[i - 1]] = 4 * k + rot[i]
    faces = 0
    seen = bytearray(4 * c)
    for p in range(4 * c):
        if not seen[p]:
            faces += 1
            while not seen[p]:
                seen[p] = 1
                p = turn[other[p]]
    pieces = 0
    reached = bytearray(c)
    for k in range(c):
        if reached[k]:
            continue
        pieces += 1
        reached[k] = 1
        stack = [k]
        while stack:
            x = stack.pop()
            for p in range(4 * x, 4 * x + 4):
                y = other[p] >> 2
                if not reached[y]:
                    reached[y] = 1
                    stack.append(y)
    if faces - c != 2 * pieces:
        raise ValueError("realization is not a union of spheres")

    def chords(k: int, bit: int):
        r = [4 * k + o for o in rots[k]]
        if bit == 0:
            return ((r[1], r[2]), (r[3], r[0]))
        return ((r[0], r[1]), (r[2], r[3]))

    leaf_counts: dict[tuple[int, int], int] = {}

    def rec(k: int, arcs: dict[int, int], loops: int, aexp: int):
        if k == c:
            if arcs:
                raise AssertionError("unconsumed ports after full smoothing")
            key = (aexp, loops)
            leaf_counts[key] = leaf_counts.get(key, 0) + 1
            return
        for bit in (0, 1):
            nxt = dict(arcs)
            nloops = loops
            for (p, q) in chords(k, bit):
                if nxt[p] == q:
                    del nxt[p]
                    del nxt[q]
                    nloops += 1
                else:
                    a = nxt.pop(p)
                    b = nxt.pop(q)
                    nxt[a] = b
                    nxt[b] = a
            rec(k + 1, nxt, nloops, aexp + (1 if bit == 0 else -1))

    rec(0, other, free_loops, 0)

    max_loops = max((loops for (_a, loops) in leaf_counts), default=0)
    dpow = [MultiLaurent.one()]
    for _ in range(max_loops):
        dpow.append(dpow[-1] * delta())
    # one dict for the whole sum: adding polynomials copies the sum per term
    total: dict = {}
    for (aexp, loops), count in leaf_counts.items():
        for (a, m, d), co in dpow[loops].terms.items():
            key = (a + aexp, m, d)
            total[key] = total.get(key, 0) + co * count
    return MultiLaurent(total)
