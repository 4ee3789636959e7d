"""Extended Reidemeister move rewriting on twisted Gauss codes.

Moves are token rewrites.  Sites are flat integer tuples:

    R1+/R1- insert   (component, gap)            variant 0 over-first, 1 under-first
    R1+/R1- delete   (component, position)       position of the pair's first token
    R2 insert        (component, gap)            nested fold poke; variant 0..3, bits
                                                 1 poking strand over, 2 negative first
    R2 delete        (c1, pos1, c2, pos2)        positions of each pair's first token
    R3 rewrite       (ca, ia, cb, ib, cc, ic)    three adjacent pairs, one per strand
    T1 insert        (component, gap)
    T1 delete        (component, position)
    T2 rewrite       ()                          identity on codes
    T3 rewrite       (c1, bar1, att1, c2, bar2, att2)   att +1: visit follows bar,
                                                 att -1: visit precedes bar

Every other move takes variant 0 only; `_MOVES` holds each move's variant
count, and apply_move rejects a variant outside it.  Gaps run
0..len(component).  The R3 validity table, `_r3_table()`, is not
transcribed from pictures: it is computed by sliding a line across the
crossing of two others in the plane, enumerating all strand directions and
over-orders, and recording the resulting local token patterns.  It is
built on the first R3 site a process checks, so a process that checks none
builds nothing.

Moves must keep the realization, not just the token pattern: the double
bracket lives on the closed realization surface, so a rewrite is a move only
if the circle it sweeps bounds a disk there and the surgery keeps the surface
type.  Only R2 deletes can fail that, only on the surface; only they are guarded:
- R2.  Over and under darts alternate around a crossing disk, so each bigon
  chord cuts off one corner; with opposite signs the bigon's two band sides
  join those corners into a two-corner cap, which the circle runs beside.
  But a 2-gon face can still span a handle nothing else uses, so a deletion
  that changes the surface's pieces is refused.
- R3.  The pairs are adjacent tokens, so their bands are unflipped, and at
  each crossing the two darts lie on one over- and one under-strand, so they
  are rotation-adjacent.  The pattern fixes signs and directions, and
  `_r3_table()` holds exactly the planar triangles, so the corners and band
  sides close into one cap (a local fact: the 16 canonical patterns cover
  every site).  Disks, bands and cap form a disk with six arms.  The rewrite
  swaps each pair in place, keeps signs and over/under and leaves a planar
  triangle (R3 undoes itself at its site), so the gluing is unchanged.
R2 inserts are fold pokes, local in a disk, and the T3 bar slide turns one
crossing disk over (see `_t3_rewrite`); neither needs a guard.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from .codes import BAR, Bar, TwistedGaussCode, Visit, make_code
from .surfaces import realize


class MoveError(ValueError):
    """The move's local pattern does not match at the given site, or the
    rewrite would not be a move of the underlying twisted link."""


class MoveSpec(NamedTuple):
    kind: str            # one of KINDS
    direction: str       # one of DIRECTIONS
    site: tuple = ()
    variant: int = 0


def _components(code: TwistedGaussCode) -> list[list]:
    return [list(c) for c in code.components]


def _check_site(site, length, what):
    if len(site) != length or not all(isinstance(x, int) for x in site):
        raise MoveError(f"{what} needs a site of {length} integers")


def _gap_ok(comps, ci, gap):
    if not (0 <= ci < len(comps)) or not (0 <= gap <= len(comps[ci])):
        raise MoveError("site outside the code")


def _pos_ok(comps, ci, pos):
    if not (0 <= ci < len(comps)) or not comps[ci] or not (0 <= pos < len(comps[ci])):
        raise MoveError("site outside the code")


def _adjacent_pair(comps, ci, pos):
    comp = comps[ci]
    n = len(comp)
    if n < 2:
        raise MoveError("component too short for an adjacent pair")
    return comp[pos], comp[(pos + 1) % n]


def _adjacent_pairs(code: TwistedGaussCode):
    """(component, position, token, next token) for each cyclically
    adjacent pair; a one-token component has none."""
    for ci, comp in enumerate(code.components):
        n = len(comp)
        if n >= 2:
            for i in range(n):
                yield ci, i, comp[i], comp[(i + 1) % n]


def _replace(comps, tokens):
    """Put tokens[ci, i], a sequence of tokens, in place of the token at
    position i of component ci."""
    for ci in {ci for ci, _ in tokens}:
        comps[ci] = [x for i, t in enumerate(comps[ci]) for x in tokens.get((ci, i), (t,))]


def _insert(what, tokens):
    """Handler that splices tokens(x, variant) into the gap site
    (component, gap); x is the first crossing id past the code's, the
    largest id a visit carries plus 1."""

    def handler(code, site, variant):
        comps = _components(code)
        _check_site(site, 2, what)
        ci, gap = site
        _gap_ok(comps, ci, gap)
        top = max((t.crossing for comp in comps for t in comp if isinstance(t, Visit)), default=0)
        comps[ci][gap:gap] = tokens(top + 1, variant)
        return make_code(comps)

    return handler


def _delete_pair(what, fits, message):
    """Handler that deletes the adjacent pair at site (component, position)
    of its first token, if fits(first, second)."""

    def handler(code, site, _variant):
        comps = _components(code)
        _check_site(site, 2, what)
        ci, pos = site
        _pos_ok(comps, ci, pos)
        t, u = _adjacent_pair(comps, ci, pos)
        if not fits(t, u):
            raise MoveError(message)
        _replace(comps, {(ci, pos): (), (ci, (pos + 1) % len(comps[ci])): ()})
        return make_code(comps)

    return handler


# ---------------------------------------------------------------------------
# R1


def _kink(sign):
    def tokens(x, variant):
        pair = [Visit(x, True, sign), Visit(x, False, sign)]
        return pair[::-1] if variant else pair

    return tokens


def _is_kink(t, u) -> bool:
    return (
        isinstance(t, Visit)
        and isinstance(u, Visit)
        and t.crossing == u.crossing
        and t.over != u.over
    )


def _r1_delete(sign):
    return _delete_pair(
        "R1 delete",
        lambda t, u: _is_kink(t, u) and t.sign == sign,
        "R1 delete needs adjacent over/under visits of one crossing",
    )


# ---------------------------------------------------------------------------
# R2


def _piece_types(code) -> list[tuple]:
    """(euler, orientable) per piece of the realization; genus and crosscaps follow."""
    return sorted((p.euler, p.orientable) for p in realize(code).pieces)


def _poke(x, variant):
    """Poke a fold of the strand across itself: a nested over-over /
    under-under quadruple with opposite signs, inserted at one gap.  The
    poke happens inside a disk neighbourhood of the arc, so it never
    touches the realization surface, whatever that surface is."""
    s = -1 if variant & 2 else 1
    over1 = bool(variant & 1)
    return [
        Visit(x, over1, s),
        Visit(x + 1, over1, -s),
        Visit(x + 1, not over1, -s),
        Visit(x, not over1, s),
    ]


def _r2_deleted(code, site):
    """The code with the bigon at `site` deleted, if its tokens make one;
    the surface is not compared."""
    comps = _components(code)
    _check_site(site, 4, "R2 delete")
    c1, p1, c2, p2 = site
    _pos_ok(comps, c1, p1)
    _pos_ok(comps, c2, p2)
    a1, b1 = _adjacent_pair(comps, c1, p1)
    a2, b2 = _adjacent_pair(comps, c2, p2)
    toks = (a1, b1, a2, b2)
    if not all(isinstance(t, Visit) for t in toks):
        raise MoveError("R2 delete needs four crossing visits")
    n1, n2 = len(comps[c1]), len(comps[c2])
    spots = {(c1, p1), (c1, (p1 + 1) % n1), (c2, p2), (c2, (p2 + 1) % n2)}
    if len(spots) != 4:
        raise MoveError("R2 delete pairs overlap")
    if a1.over != b1.over or a2.over != b2.over or a1.over == a2.over:
        raise MoveError("R2 delete needs one all-over and one all-under pair")
    if {a1.crossing, b1.crossing} != {a2.crossing, b2.crossing} or a1.crossing == b1.crossing:
        raise MoveError("R2 delete pairs must visit the same two crossings")
    if a1.sign != -b1.sign:
        raise MoveError("R2 delete needs opposite signs")
    _replace(comps, dict.fromkeys(spots, ()))
    return make_code(comps)


def _r2_delete(code, site, _variant):
    result = _r2_deleted(code, site)
    if _piece_types(code) != _piece_types(result):
        raise MoveError("rewrite would change the realization surface")
    return result


# ---------------------------------------------------------------------------
# R3: validity table computed from plane geometry


def _canon_r3(strands: tuple) -> tuple:
    """Least relabelling of the three strands; strand i becomes perm[i]."""
    return min(
        tuple(
            tuple((perm[j], over, sign) for (j, over, sign) in strands[perm.index(p)])
            for p in range(3)
        )
        for perm in permutations(range(3))
    )


@cache
def _r3_table() -> frozenset:
    """The canonical token patterns of the planar triangles, made once per
    process, on first use."""
    dirs3 = ((1, 0), (0, 1), (1, -1))  # the lines y=0, x=0, x+y=2
    meet = {(0, 1): (0, 0), (0, 2): (2, 0), (1, 2): (0, 2)}

    def det(u, v):
        return u[0] * v[1] - u[1] * v[0]

    pats = set()
    for flips in product((1, -1), repeat=3):
        vecs = [(dirs3[i][0] * flips[i], dirs3[i][1] * flips[i]) for i in range(3)]
        for order in permutations(range(3)):
            rank = {line: k for k, line in enumerate(order)}
            strands = []
            for i in range(3):
                visits = []
                for j in (k for k in range(3) if k != i):
                    pt = meet[(min(i, j), max(i, j))]
                    t = pt[0] * vecs[i][0] + pt[1] * vecs[i][1]
                    over = rank[i] < rank[j]
                    s = det(vecs[i], vecs[j]) if over else det(vecs[j], vecs[i])
                    if s not in (1, -1):
                        raise AssertionError("degenerate line pair")
                    visits.append((t, j, over, s))
                visits.sort()
                strands.append(tuple((j, over, s) for (_t, j, over, s) in visits))
            pats.add(_canon_r3(tuple(strands)))
    return frozenset(pats)


def _r3_site_pattern(comps, site):
    _check_site(site, 6, "R3")
    anchors = [(site[0], site[1]), (site[2], site[3]), (site[4], site[5])]
    pairs = []
    spots = set()
    for ci, pos in anchors:
        _pos_ok(comps, ci, pos)
        t, u = _adjacent_pair(comps, ci, pos)
        if not (isinstance(t, Visit) and isinstance(u, Visit)):
            raise MoveError("R3 needs adjacent crossing visits")
        if t.crossing == u.crossing:
            raise MoveError("R3 pair must visit two distinct crossings")
        n = len(comps[ci])
        spots |= {(ci, pos), (ci, (pos + 1) % n)}
        pairs.append((t, u))
    if len(spots) != 6:
        raise MoveError("R3 pairs overlap")
    owner: dict[int, list[int]] = {}
    for k, (t, u) in enumerate(pairs):
        owner.setdefault(t.crossing, []).append(k)
        owner.setdefault(u.crossing, []).append(k)
    if len(owner) != 3 or any(len(v) != 2 for v in owner.values()):
        raise MoveError("R3 needs three crossings, each shared by two strands")
    # the other strand at a crossing is the owner that is not k
    strands = tuple(
        tuple((sum(owner[tok.crossing]) - k, tok.over, tok.sign) for tok in pair)
        for k, pair in enumerate(pairs)
    )
    return anchors, strands


def _r3_rewrite(code, site, _variant):
    comps = _components(code)
    anchors, strands = _r3_site_pattern(comps, site)
    if _canon_r3(strands) not in _r3_table():
        raise MoveError("R3 site is not a realizable triangle configuration")
    for ci, pos in anchors:
        comp = comps[ci]
        q = (pos + 1) % len(comp)
        comp[pos], comp[q] = comp[q], comp[pos]
    return make_code(comps)


# ---------------------------------------------------------------------------
# T1, T2, T3


def _are_bars(t, u) -> bool:
    return isinstance(t, Bar) and isinstance(u, Bar)


def _t2_rewrite(code, site, _variant):
    _check_site(site, 0, "T2")
    return code


def _t3_rewrite(code, site, _variant):
    comps = _components(code)
    _check_site(site, 6, "T3")
    legs = [(site[0], site[1], site[2]), (site[3], site[4], site[5])]
    seen_visits = []
    for ci, bpos, att in legs:
        _pos_ok(comps, ci, bpos)
        if att not in (1, -1):
            raise MoveError("T3 attachment must be +1 or -1")
        if not isinstance(comps[ci][bpos], Bar):
            raise MoveError("T3 site must point at a bar")
        n = len(comps[ci])
        vpos = (bpos + att) % n
        tok = comps[ci][vpos]
        if not isinstance(tok, Visit):
            raise MoveError("T3 bar must be adjacent to a crossing visit")
        seen_visits.append((ci, bpos, vpos, att, tok))
    (c1, b1, v1, a1, t1), (c2, b2, v2, a2, t2) = seen_visits
    if (c1, b1) == (c2, b2) or (c1, v1) == (c2, v2):
        raise MoveError("T3 legs must use distinct bars and visits")
    if t1.crossing != t2.crossing or t1.over == t2.over:
        raise MoveError("T3 bars must flank the two visits of one crossing")
    # Moving one bar past the crossing on each strand toggles the flip of all
    # four bands at that crossing disk, which turns the disk over: the surface
    # stays the same, over and under swap, and the sign stays.  Both bars must
    # sit on the same side of the crossing along their strands, the move's
    # shape; the mixed-side variant is a disk flip too, but is not accepted.
    if a1 != a2:
        raise MoveError("T3 bars must sit on the same side of the crossing")
    # each bar is dropped and put back beside its flipped visit, on the
    # side it did not take
    slid = {}
    for ci, bpos, vpos, att, tok in seen_visits:
        new_tok = Visit(tok.crossing, not tok.over, tok.sign)
        slid[ci, bpos] = ()
        slid[ci, vpos] = (new_tok, BAR) if att == 1 else (BAR, new_tok)
    _replace(comps, slid)
    return make_code(comps)


# ---------------------------------------------------------------------------
# dispatch


# (kind, direction) -> (number of variants, handler(code, site, variant)),
# kinds and directions in the order `polebracket move` lists them
_MOVES = {
    ("R1+", "insert"): (2, _insert("R1 insert", _kink(1))),
    ("R1+", "delete"): (1, _r1_delete(1)),
    ("R1-", "insert"): (2, _insert("R1 insert", _kink(-1))),
    ("R1-", "delete"): (1, _r1_delete(-1)),
    ("R2", "insert"): (4, _insert("R2 insert", _poke)),
    ("R2", "delete"): (1, _r2_delete),
    ("R3", "rewrite"): (1, _r3_rewrite),
    ("T1", "insert"): (1, _insert("T1 insert", lambda _x, _variant: [BAR, BAR])),
    ("T1", "delete"): (1, _delete_pair("T1 delete", _are_bars, "T1 delete needs two adjacent bars")),
    ("T2", "rewrite"): (1, _t2_rewrite),
    ("T3", "rewrite"): (1, _t3_rewrite),
}
KINDS = tuple(dict.fromkeys(kind for kind, _ in _MOVES))
DIRECTIONS = tuple(dict.fromkeys(direction for _, direction in _MOVES))


def apply_move(code: TwistedGaussCode, move: MoveSpec) -> TwistedGaussCode:
    kind, direction = move.kind, move.direction
    if kind not in KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    if (kind, direction) not in _MOVES:
        raise MoveError(f"move {kind} does not support direction {direction!r}")
    variants, handler = _MOVES[kind, direction]
    if not 0 <= move.variant < variants:
        raise MoveError(f"{kind} {direction} needs a variant in 0..{variants - 1}, not {move.variant}")
    return handler(code, move.site, move.variant)


# ---------------------------------------------------------------------------
# site enumeration for the invariance harness


def _two_crossings(t, u) -> bool:
    return isinstance(t, Visit) and isinstance(u, Visit) and t.crossing != u.crossing


def _accepts(handler, code, site) -> bool:
    try:
        handler(code, site, 0)
    except MoveError:
        return False
    return True


def r1_delete_sites(code: TwistedGaussCode) -> list[MoveSpec]:
    return [
        MoveSpec("R1+" if t.sign > 0 else "R1-", "delete", (ci, i))
        for ci, i, t, u in _adjacent_pairs(code)
        if _is_kink(t, u)
    ]


def r2_delete_sites(code: TwistedGaussCode) -> list[MoveSpec]:
    pairs = [
        (ci, i, t) for ci, i, t, u in _adjacent_pairs(code)
        if _two_crossings(t, u) and t.over == u.over
    ]
    # the handler takes two pairs only if one is all over and the other all under
    sites = (
        (c1, p1, c2, p2)
        for (c1, p1, a1), (c2, p2, a2) in combinations(pairs, 2)
        if a1.over != a2.over
    )
    return [MoveSpec("R2", "delete", s) for s in sites if _accepts(_r2_delete, code, s)]


def r3_sites(code: TwistedGaussCode) -> list[MoveSpec]:
    pairs = [
        ((ci, i), frozenset((t.crossing, u.crossing)))
        for ci, i, t, u in _adjacent_pairs(code) if _two_crossings(t, u)
    ]
    # the handler takes a trio only if its pairs are the three pairs of three crossings
    sites = (
        p + q + r for (p, a), (q, b), (r, c) in combinations(pairs, 3)
        if len({a, b, c}) == 3 and len(a | b | c) == 3
    )
    return [MoveSpec("R3", "rewrite", s) for s in sites if _accepts(_r3_rewrite, code, s)]


def t1_delete_sites(code: TwistedGaussCode) -> list[MoveSpec]:
    return [
        MoveSpec("T1", "delete", (ci, i))
        for ci, i, t, u in _adjacent_pairs(code)
        if _are_bars(t, u)
    ]


def t3_sites(code: TwistedGaussCode) -> list[MoveSpec]:
    legs: dict[int, list] = {}
    for ci, comp in enumerate(code.components):
        n = len(comp)
        for i in range(n):
            if isinstance(comp[i], Bar):
                for att in (1, -1):
                    tok = comp[(i + att) % n]
                    if isinstance(tok, Visit):
                        legs.setdefault(tok.crossing, []).append((ci, i, att))
    sites = (a + b for _cid, entries in sorted(legs.items()) for a, b in combinations(entries, 2))
    return [MoveSpec("T3", "rewrite", s) for s in sites if _accepts(_t3_rewrite, code, s)]


# insertion sites sampled per diagram: R1, R2 and T1 draws
_R1_DRAWS, _R2_DRAWS, _T1_DRAWS = 8, 6, 4


def insert_sites(code: TwistedGaussCode, rng) -> list[MoveSpec]:
    """Seeded sample of insertion sites; deletions and rewrites enumerate
    exhaustively but insertion gap/variant spaces are too large for that."""
    gaps = [
        (ci, g) for ci, comp in enumerate(code.components) for g in range(len(comp) + 1)
    ]
    if not gaps:
        return []
    out = []
    for _ in range(_R1_DRAWS):
        ci, g = gaps[rng.randrange(len(gaps))]
        kind = "R1+" if rng.randrange(2) else "R1-"
        out.append(MoveSpec(kind, "insert", (ci, g), rng.randrange(2)))
    for _ in range(_R2_DRAWS):
        ci, g = gaps[rng.randrange(len(gaps))]
        out.append(MoveSpec("R2", "insert", (ci, g), rng.randrange(4)))
    for _ in range(_T1_DRAWS):
        ci, g = gaps[rng.randrange(len(gaps))]
        out.append(MoveSpec("T1", "insert", (ci, g)))
    out.append(MoveSpec("T2", "rewrite", ()))
    return out
