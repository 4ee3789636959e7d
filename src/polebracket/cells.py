"""Glued-polygon surface complexes.

A PolygonComplex is a list of faces, each face a cyclic list of slots
(edge_id, direction).  Every edge id occurs once (a boundary edge) or twice
(an interior gluing) across all faces.  Vertices are not named explicitly;
they emerge as equivalence classes of edge-endpoints under the corner
identifications read off the face walks.  This is enough to compute Euler
characteristics, connected pieces, orientability, and boundary circles.  No
program path builds one: it is the tests' independent reference for the
int-table capped surfaces and cuts of `surfaces`, and the bench tracer names it.

Edge ids must be tuples whose first entry is a string tag, so that sorting
is well defined and traversal order is deterministic.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

Edge = Hashable
Slot = tuple[Edge, int]  # direction +1 (forward) or -1 (backward)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            root = self.find(p)
            self.parent[x] = root
            return root
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _slot_ends(slot: Slot):
    # endpoint atoms (edge, 0|1); 0 = tail, 1 = head of the oriented edge
    e, d = slot
    return ((e, 0), (e, 1)) if d > 0 else ((e, 1), (e, 0))


class PolygonComplex:
    """Immutable glued-polygon surface.  Vertex classes, Euler characteristic
    and pieces are computed on construction; orientability, boundary circles
    and per-piece reports on request."""

    def __init__(self, faces: Iterable[Sequence[Slot]]):
        self.faces: tuple[tuple[Slot, ...], ...] = tuple(tuple(f) for f in faces)
        occ: dict[Edge, list[tuple[int, int, int]]] = {}
        for fi, face in enumerate(self.faces):
            if not face:
                raise ValueError("empty face")
            for si, (e, d) in enumerate(face):
                if d not in (1, -1):
                    raise ValueError("slot direction must be +1 or -1")
                occ.setdefault(e, []).append((fi, si, d))
        for e, os in occ.items():
            if len(os) > 2:
                raise ValueError(f"edge {e!r} used {len(os)} times")
        self.edge_occ = occ

        # vertices: union-find over endpoint atoms via corners
        uf = _UnionFind()
        # corner adjacency for boundary tracing: atom -> list of neighbor atoms
        corner_nbrs: dict[tuple, list] = {}
        for face in self.faces:
            n = len(face)
            for i in range(n):
                _, end_atom = _slot_ends(face[i])
                start_atom, _ = _slot_ends(face[(i + 1) % n])
                uf.union(end_atom, start_atom)
                corner_nbrs.setdefault(end_atom, []).append(start_atom)
                corner_nbrs.setdefault(start_atom, []).append(end_atom)
        self._corner_nbrs = corner_nbrs

        self._vertex_of = {a: uf.find(a) for e in occ for a in ((e, 0), (e, 1))}
        self.vertex_count = len(set(self._vertex_of.values()))
        self.edge_count = len(occ)
        self.face_count = len(self.faces)
        self.euler = self.vertex_count - self.edge_count + self.face_count

        # connected pieces of the face-gluing graph
        fuf = _UnionFind()
        for fi in range(self.face_count):
            fuf.find(fi)
        for e, os in occ.items():
            if len(os) == 2:
                fuf.union(os[0][0], os[1][0])
        roots = sorted({fuf.find(fi) for fi in range(self.face_count)})
        root_index = {r: i for i, r in enumerate(roots)}
        self.face_piece = tuple(root_index[fuf.find(fi)] for fi in range(self.face_count))
        self.piece_count = len(roots)

        self._boundary = None

    # -- orientability --------------------------------------------------

    def orientable_pieces(self) -> tuple[bool, ...]:
        ok = [True] * self.piece_count
        color: dict[int, int] = {}
        for start in range(self.face_count):
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                f = stack.pop()
                for e, d in self.faces[f]:
                    os = self.edge_occ[e]
                    if len(os) != 2:
                        continue
                    (f1, _, d1), (f2, _, d2) = os
                    other = f2 if f == f1 else f1
                    # coherent orientations traverse a shared edge oppositely
                    want = color[f] ^ (1 if d1 == d2 else 0)
                    if f1 == f2:
                        if d1 == d2:
                            ok[self.face_piece[f]] = False
                        continue
                    if other in color:
                        if color[other] != want:
                            ok[self.face_piece[f]] = False
                    else:
                        color[other] = want
                        stack.append(other)
        return tuple(ok)

    # -- boundary ---------------------------------------------------------

    def _link_partner(self) -> dict:
        """For each endpoint atom of a boundary edge, the atom at the other
        end of its vertex-link arc (the next boundary edge around the
        boundary walk).  Atoms have at most two corner neighbors, so every
        vertex link is a simple path or cycle."""
        partners: dict = {}
        for atom, nbrs in self._corner_nbrs.items():
            e, _ = atom
            if len(self.edge_occ[e]) != 1 or atom in partners:
                continue
            # walk the link path from this degree-1 atom to the far end
            prev = atom
            cur = nbrs[0]
            while True:
                cn = self._corner_nbrs[cur]
                if len(cn) == 1:
                    break
                a, b = cn
                nxt = b if a == prev else a
                if nxt == prev and a == b:
                    # degenerate two-atom cycle cannot start from degree-1
                    break
                prev, cur = cur, nxt
            partners[atom] = cur
            partners[cur] = atom
        return partners

    def boundary_circles(self) -> tuple[tuple[Slot, ...], ...]:
        """Boundary circles as closed walks of (edge, dir), each boundary
        edge appearing in exactly one circle.  Deterministic: circles start
        at the least unused boundary edge, traversed forward."""
        if self._boundary is not None:
            return self._boundary
        partners = self._link_partner()
        bedges = sorted(e for e, os in self.edge_occ.items() if len(os) == 1)
        unused = set(bedges)
        circles: list[tuple[Slot, ...]] = []
        for e0 in bedges:
            if e0 not in unused:
                continue
            walk: list[Slot] = []
            e, d = e0, 1
            while True:
                walk.append((e, d))
                unused.discard(e)
                arrive = (e, 1 if d > 0 else 0)
                nxt_atom = partners[arrive]
                e, end = nxt_atom
                d = 1 if end == 0 else -1
                if e == e0 and d == 1:
                    break
            circles.append(tuple(walk))
        self._boundary = tuple(circles)
        return self._boundary

    # -- per-piece reports -------------------------------------------------

    def piece_stats(self) -> tuple[dict, ...]:
        """Per piece: "euler", its Euler characteristic, and
        "boundary_circles", the number of its boundary circles."""
        # vertices and edges per piece
        vsets: list[set] = [set() for _ in range(self.piece_count)]
        ecount = [0] * self.piece_count
        fcount = [0] * self.piece_count
        for e, os in self.edge_occ.items():
            p = self.face_piece[os[0][0]]
            ecount[p] += 1
            vsets[p].add(self._vertex_of[(e, 0)])
            vsets[p].add(self._vertex_of[(e, 1)])
        for fi in range(self.face_count):
            fcount[self.face_piece[fi]] += 1
        bcount = [0] * self.piece_count
        for circle in self.boundary_circles():
            e0 = circle[0][0]
            bcount[self.face_piece[self.edge_occ[e0][0][0]]] += 1
        return tuple(
            {
                "euler": len(vsets[p]) - ecount[p] + fcount[p],
                "boundary_circles": bcount[p],
            }
            for p in range(self.piece_count)
        )
