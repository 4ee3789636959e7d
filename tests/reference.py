"""Slow reference code that the tests check the library against.

No command runs any of this.  The library computes a pole word's index in
closed form (`polewords.index`) and never rewrites a word; the step-by-step
calculus it must agree with lives here:

- `reduce` cancels adjacent pole pairs, leftmost first, until none remains,
  and `confluence_oracle` tries every order of cancellation;
- `canonical_key` and `equivalent` compare words up to rotation, reversal
  with both side bits swapped, and sliding a mark past a pole (which
  toggles that pole's side).  Carrying one mark all the way around toggles
  every side, so a global side swap is available exactly when at least one
  mark is present;
- `join_arcs` and `reverse_arc` compose the values of open arcs
  (`polewords.arc`), which the state sum inlines.

Beside it, what the state walker no longer builds or reads: `geometry`
rebuilds a walked curve's `EmbeddedCurve` from its key, `curve_poles` reads
a curve's poles off its chords, and `assemble_from_table` assembles a
bracket from printed state-table rows.

The state engine builds one splice table, its per-crossing chord items
and bare-loop chords, from two sign templates shifted per crossing disk,
numbers its chords by formula, and makes the walker's step table from the
items.  `splice_tables` builds the same tables dart by dart from the
surface's corner order: tau, side and kind per dart, the chords sorted and
numbered in that order, the walker's step rows, the per-crossing chord
items, and the kinks and bigons read off the per-dart tau and a union-find
of the caps of its own.

Last, the state sum's signature-keyed path, as the library had it before
its count table took int keys: `decode` turns a block's leaf counts into a
table keyed by (signature, natural, iness), `fold` sums such a table per
label, and `bracket_of`, `double_of` and `nonseparation_of` read the
brackets and the non-separation count off it.  `by_signature` and
`count_table` convert between that table and a `states.CountTable`, under
either labelling: by signature, or by the (M, d) part that the double
bracket and R are folded from.

The first steps of every command, as the library first wrote them:
`parse_code_regex` reads a visit token with a regular expression and
`validate` searches the visits in order for the first fault, to be
matched code for code and message for message; `ribbon` builds the band
surface with a scan between each pair of consecutive visits; `homology`
reduces the
capped surface's Z/2 homology in band space, the caps first, then the
fundamental cycles of the non-tree bands in band order, and reads its caps
and pieces off the polygon complex (`surfaces.ribbon_faces`), not off the
library's cap walk.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from functools import cache
from itertools import islice

from polebracket.brackets import BracketValue, _collapse, _delta_row
from polebracket.cells import PolygonComplex
from polebracket.codes import BAR, Bar, CodeError, TwistedGaussCode, Visit
from polebracket.laurent import MultiLaurent, a_polys
from polebracket.polewords import MARK, Word, arc, make_word
from polebracket.states import _ID_BITS, CountTable, PoleCurve, _engine
from polebracket.surfaces import ClosedSurface, EmbeddedCurve, RibbonComplex, ribbon_faces


# ---------------------------------------------------------------------------
# pole-word rewriting


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
# word equivalence


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


# ---------------------------------------------------------------------------
# arc values


def join_arcs(x: int, y: int) -> int:
    """The value of arc u followed by arc v, from the values x of u and y of v."""
    return x - y if x & 1 else x + y


def reverse_arc(x: int) -> int:
    """The value of an arc read from its other end, with sides swapped."""
    return 2 - x if x & 1 else x


# ---------------------------------------------------------------------------
# curves and state tables


def geometry(F: ClosedSurface, curve: PoleCurve) -> EmbeddedCurve:
    """The walked curve's chords, band mask and flip parity, read off its
    key (chord bits | band bits << n_chords) with `F`'s state engine."""
    eng = _engine(F)
    bmask = curve.key >> eng.n_chords
    return EmbeddedCurve(eng.chords_of(curve.key), bmask, (bmask & F.flip_mask).bit_count() & 1)


def curve_poles(F: ClosedSurface, curve: EmbeddedCurve) -> list:
    """The curve's poles as (disk, chord, kind), in chord order.  A chord at
    a crossing disk joining two in-darts is an I pole, two out-darts an O
    pole; bare-loop chords carry none."""
    rs = F.ribbon
    c4 = 4 * rs.n_crossings
    return [
        (rs.disk_of[a], (a, b), "I" if a % 4 < 2 else "O")
        for (a, b) in curve.chords
        if a < c4 and (a % 4 < 2) == (b % 4 < 2)
    ]


def assemble_from_table(rows) -> dict:
    """Pure assembly Sum A^natural * delta^iness per class label from rows
    (natural, iness_count, label); reproduces printed state tables."""
    counts = Counter((label, nat, iness) for nat, iness, label in rows)
    return a_polys(fold(counts).items())


# ---------------------------------------------------------------------------
# splice tables, dart by dart


def splice_tables(F: ClosedSurface) -> dict:
    """The state engine's splice tables of `F`, built per dart: "side",
    "kind", "step" (the engine's step rows without their side and kind),
    "items" (the engine's `items` and `loops`), "chords" (the
    sorted chord list, whose index is the chord's bit), "kinks" and
    "bigons", R2 bigons first, each checked on a two-corner cap of the
    reference's own cap union-find.  Bit 0 of rotation (r0, r1, r2, r3) draws chords (r1, r2) and
    (r3, r0), bit 1 (r0, r1) and (r2, r3); a chord between two in-darts or
    two out-darts is a pole, of side 0 at dart a when b follows a."""
    rs = F.ribbon
    n = rs.total_darts
    c4 = 4 * rs.n_crossings
    succ, pred = F._succ, F._pred
    tau = ([-1] * n, [-1] * n)
    side = ([-1] * n, [-1] * n)
    kind = ([0] * n, [0] * n)
    for rot in rs.rotations:
        if len(rot) == 2:
            d0, d1 = rot
            for bit in (0, 1):
                tau[bit][d0] = d1
                tau[bit][d1] = d0
            continue
        r0, r1, r2, r3 = rot
        for bit, pairs in ((0, ((r1, r2), (r3, r0))), (1, ((r0, r1), (r2, r3)))):
            for a, b in pairs:
                tau[bit][a] = b
                tau[bit][b] = a
                if (a % 4 < 2) == (b % 4 < 2):
                    side[bit][a] = 0 if succ[a] == b else 1
                    side[bit][b] = 0 if succ[b] == a else 1
                    kind[bit][a] = kind[bit][b] = 1 if a % 4 < 2 else 2
    chords = sorted({(d, t[d]) for t in tau for d in range(n) if d < t[d]})
    chord_bit = {ch: 1 << i for i, ch in enumerate(chords)}
    cbit = [[chord_bit[(d, t[d]) if d < t[d] else (t[d], d)] for d in range(n)] for t in tau]
    band_key = [1 << (len(chords) + bi) for (_o, _f, bi) in rs.band_at]
    step = tuple(
        [(t[d], cb[d], *rs.band_at[t[d]][:2], band_key[t[d]]) for d in range(n)]
        for t, cb in zip(tau, cbit)
    )

    def pole(bit, a):
        b, cb = tau[bit][a], cbit[bit][a]
        s = side[bit][a]
        return (a, b, cb, arc((s,)), kind[bit][a]) if s >= 0 else (a, b, cb, 0, 0)

    items = tuple(
        tuple(
            (bit,) + tuple(x for d in range(i, i + 4) if d < tau[bit][d] for x in pole(bit, d))
            for bit in (0, 1)
        )
        for i in range(0, c4, 4)
    )
    loops = tuple(pole(0, d) for d in range(c4, n) if d < tau[0][d])

    kinks = {}
    for u, v, flip in rs.bands:
        i = u >> 2
        if flip or u >= c4 or v >> 2 != i or not (u ^ v) & 1 or i in kinks:
            continue
        kinks[i] = int(tau[1][u] == v)

    cap = list(range(n))

    def find(x):
        while cap[x] != x:
            x = cap[x]
        return x

    # corner d lies between d and succ d
    for u, v, flip in rs.bands:
        for x, y in ((u, v), (pred[u], pred[v])) if flip else ((u, pred[v]), (pred[u], v)):
            cap[find(y)] = find(x)
    corners = Counter(find(d) for d in range(n))
    negative = [rot[1] >> 1 & 1 for rot in rs.rotations]
    bigons = []
    taken = set()
    for u, v, flip in sorted(rs.bands, key=lambda band: (band[0] ^ band[1]) & 1):
        x, y = u >> 2, v >> 2
        if flip or x == y or x in taken or y in taken:
            continue
        if (u ^ v) & 1:
            # alternating: over to under, equal signs, no kink on either disk
            if negative[x] != negative[y] or x in kinks or y in kinks:
                continue
        elif u & 1 or negative[x] == negative[y]:
            # R2: found from the band over at both ends, opposite signs
            continue
        for w in (succ[u], pred[u]):
            d, e = (u, w) if w == succ[u] else (w, u)
            w2, wflip, _b = rs.band_at[w]
            # the cap of corner d has two corners, the other one at y
            other = [f for f in range(n) if f != d and find(f) == find(d)]
            if wflip or w2 >> 2 != y or corners[find(d)] != 2 or other[0] >> 2 != y:
                continue
            d2, e2 = rs.band_at[d][0], rs.band_at[e][0]
            tx, ty = int(tau[1][d] != e), int(tau[1][e2] != d2)
            if (u ^ v) & 1 and tx != ty:
                continue
            bigons.append((x, tx, y, ty, bool((u ^ v) & 1)))
            taken.update((x, y))
            break
    return {"side": side, "kind": kind, "step": step, "items": (items, loops),
            "chords": chords, "kinks": kinks, "bigons": bigons}


# ---------------------------------------------------------------------------
# signature-keyed count tables


def decode(eng, raw: dict) -> dict:
    """The signature-keyed table of `_Engine.block`'s leaf-key counts, read
    off the engine's trie, which it leaves as it is.  A node is made after
    its parent, so the nodes are decoded in id order, each once: its
    parent's sorted signature with its own entry put in its sorted place.
    Nodes reached in different orders that hold one multiset of curves get
    equal signatures and merge here, by exact addition."""
    up, entries = eng.trie.up, eng.classes.entries
    c, sh, pb = eng.F.ribbon.n_crossings, eng.node_shift, eng.pc_bits
    low, pc_mask, id_mask = (1 << sh) - 1, (1 << pb) - 1, (1 << _ID_BITS) - 1
    sigs = [()]
    for key in islice(up, 1, None):
        sig = sigs[key >> _ID_BITS]
        entry = entries[key & id_mask]
        i = bisect_right(sig, entry)
        sigs.append(sig[:i] + (entry,) + sig[i:])
    counts: dict = {}
    for key, count in raw.items():
        t = key & low
        full = (sigs[key >> sh], c - 2 * (t & pc_mask), t >> pb)
        counts[full] = counts.get(full, 0) + count
    return counts


def fold(counts: dict, label=None) -> dict:
    """Per label, Sum count * A^nat * delta^iness over a count table
    {(key, nat, iness): count}, the label of a key being label(key), or the
    key itself: one {A-exponent: int} table per label."""
    tables: dict = {}
    for (key, nat, iness), count in counts.items():
        if label:
            key = label(key)
        table = tables.setdefault(key, {})
        for e, c in _delta_row(iness):
            a = nat + e
            table[a] = table.get(a, 0) + c * count
    return tables


def bracket_of(counts: dict) -> BracketValue:
    return BracketValue(a_polys(fold(counts).items()))


def double_of(counts: dict) -> MultiLaurent:
    tables = fold(counts, cache(_collapse))
    return MultiLaurent({(a, m, d): c for (m, d), t in tables.items() for a, c in t.items()})


def nonseparation_of(counts: dict) -> int:
    """Each signature entry with index > 0 that separates, times the count
    of its key."""
    return sum(
        n * sum(1 for idx, _mob, sep, _hom in sig if idx > 0 and sep)
        for (sig, _nat, _iness), n in counts.items()
    )


def by_signature(table: CountTable) -> dict:
    """A count table keyed by (label, natural, iness): by (signature,
    natural, iness) under the signature labelling."""
    pb = table.pc_bits
    pc_mask = (1 << pb) - 1
    out: dict = {}
    for label, row in zip(table.labels, table.rows, strict=True):
        for key, n in row.items():
            full = (label, table.c - 2 * (key & pc_mask), key >> pb)
            out[full] = out.get(full, 0) + n
    return out


def count_table(counts: dict, c: int, writhe: int = 0, label=None) -> CountTable:
    """The `CountTable` of a {(signature, natural, iness): count} table of a
    diagram with c crossings and this writhe, each signature labelled by
    label(signature), or by itself; `brackets._collapse` gives the (M, d)
    labelling.  Each natural is c - 2 B for 0 <= B <= c."""
    pc_bits = c.bit_length()
    table = CountTable(c, pc_bits, writhe)
    rows: dict = {}
    for (sig, nat, i), n in counts.items():
        b, odd = divmod(c - nat, 2)
        if odd or not 0 <= b <= c:
            raise ValueError("natural out of range")
        row = rows.setdefault(label(sig) if label else sig, {})
        key = i << pc_bits | b
        row[key] = row.get(key, 0) + n
    table.labels, table.rows = list(rows), list(rows.values())
    return table


# ---------------------------------------------------------------------------
# parsing and validation


_VISIT_RE = re.compile(r"^([OU])([0-9]+)([+-])$")


def validate(components) -> None:
    """Raise CodeError on the first fault of a code's components: a visit
    with an id below 1 or a sign other than +1 or -1, component by
    component, then per crossing id ascending, a count other than two, two
    visits on one side, or two signs."""
    seen: dict = {}
    for ci, comp in enumerate(components):
        for tok in comp:
            if isinstance(tok, Visit):
                if tok.crossing < 1:
                    raise CodeError(f"component {ci + 1}: crossing id must be >= 1")
                if tok.sign not in (1, -1):
                    raise CodeError(f"component {ci + 1}: sign must be +1 or -1")
                seen.setdefault(tok.crossing, []).append(tok)
    for cid, visits in sorted(seen.items()):
        if len(visits) != 2:
            raise CodeError(
                f"crossing {cid} visited {len(visits)} time(s); need exactly one O and one U"
            )
        a, b = visits
        if a.over == b.over:
            role = "O" if a.over else "U"
            raise CodeError(f"crossing {cid} has two {role} visits; need one O and one U")
        if a.sign != b.sign:
            raise CodeError(f"crossing {cid} has mismatched signs on its two visits")


def parse_code_regex(text: str) -> TwistedGaussCode:
    """`codes.parse_code` as first written: .tgc text to a code, one
    regular-expression match per visit token."""
    components = []
    comp_no = 0
    for raw_line in text.replace("\u2212", "-").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        comp_no += 1
        words = line.split()
        if "EMPTY" in words:
            if len(words) != 1:
                raise CodeError(
                    f"component {comp_no}: EMPTY must be the only token on its line"
                )
            components.append(())
            continue
        toks = []
        for off, w in enumerate(words):
            if w == "B":
                toks.append(BAR)
                continue
            m = _VISIT_RE.match(w)
            if not m:
                raise CodeError(f"component {comp_no}, token {off + 1}: bad token {w!r}")
            toks.append(Visit(int(m.group(2)), m.group(1) == "O", 1 if m.group(3) == "+" else -1))
        components.append(tuple(toks))
    validate(components)
    return TwistedGaussCode(tuple(components))


# ---------------------------------------------------------------------------
# the band surface


def ribbon(code: TwistedGaussCode) -> RibbonComplex:
    """`surfaces.build_ribbon` as first written: the bands of a component
    run from each visit to the next one, wrapping around, each flipped once
    per bar found by scanning the tokens between them; a component with no
    visit is a bare loop, whose disks follow every crossing disk."""
    signs = code.signs()
    ids = sorted(signs)
    kidx = {cid: k for k, cid in enumerate(ids)}
    c = len(ids)
    rotations = []
    for k, cid in enumerate(ids):
        oi, ui, oo, uo = 4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3
        rotations.append((oi, ui, oo, uo) if signs[cid] > 0 else (oi, uo, oo, ui))
    bands = []
    free_rotations = []
    for comp in code.components:
        visits = [(i, t) for i, t in enumerate(comp) if isinstance(t, Visit)]
        if not visits:
            d0 = 4 * c + 2 * len(free_rotations)
            free_rotations.append((d0, d0 + 1))
            bands.append((d0 + 1, d0, sum(1 for t in comp if isinstance(t, Bar)) % 2))
            continue
        n = len(comp)
        for j, (pos, tok) in enumerate(visits):
            npos, ntok = visits[(j + 1) % len(visits)]
            flip = 0
            i = (pos + 1) % n
            while i != npos:
                if isinstance(comp[i], Bar):
                    flip ^= 1
                i = (i + 1) % n
            u = 4 * kidx[tok.crossing] + (2 if tok.over else 3)
            v = 4 * kidx[ntok.crossing] + (0 if ntok.over else 1)
            bands.append((u, v, flip))
    rotations += free_rotations
    total = 4 * c + 2 * len(free_rotations)
    disk_of = [0] * total
    for disk, rot in enumerate(rotations):
        for d in rot:
            disk_of[d] = disk
    band_at = [(-1, -1, -1)] * total
    for bi, (u, v, flip) in enumerate(bands):
        band_at[u] = (v, flip, bi)
        band_at[v] = (u, flip, bi)
    return RibbonComplex(c, total, tuple(rotations), tuple(bands), tuple(disk_of), tuple(band_at))


# ---------------------------------------------------------------------------
# homology in band space


def circle_mask(circle) -> int:
    """The bands a boundary circle runs along once: its band sides, mod 2."""
    mask = 0
    for (e, _d) in circle:
        if e[0] == "S":
            mask ^= 1 << e[1]
    return mask


def homology(rs) -> dict:
    """Z/2 first homology of the capped surface of ribbon `rs`, in band space.

    The caps are the boundary circles of the polygon band surface.  The
    spanning forest grows from the roots in ascending order, depth first,
    bands in index order, and keeps each disk's tree path to its root as a
    band mask.  An echelon over GF(2), highest bit as pivot, takes the caps'
    band masks first, then each non-tree band's fundamental cycle in band
    order: a cycle that reduces to 0 is dependent, any other is the next
    basis element.  Returns "basis" (those fundamental cycles),
    "band_class" (per band, the class of its fundamental cycle, bit i for
    basis element i; 0 on tree bands), "h1_dim", "pieces" ((euler,
    orientable) per piece of the capped polygon complex) and "classify", a
    band mask's coordinate tuple, which raises ValueError on a non-cycle."""
    faces = ribbon_faces(rs)
    circles = PolygonComplex(faces).boundary_circles()
    capped = PolygonComplex(faces + [list(c) for c in circles])
    pieces = [
        (st["euler"], orientable)
        for st, orientable in zip(capped.piece_stats(), capped.orientable_pieces())
    ]
    rows: dict = {}
    for vec in map(circle_mask, circles):
        while vec:
            p = vec.bit_length() - 1
            if p not in rows:
                rows[p] = (vec, 0)
                break
            vec ^= rows[p][0]

    n_disks = len(rs.rotations)
    adj = [[] for _ in range(n_disks)]
    for bi, (u, v, _f) in enumerate(rs.bands):
        adj[rs.disk_of[u]].append((rs.disk_of[v], bi))
        adj[rs.disk_of[v]].append((rs.disk_of[u], bi))
    path = [None] * n_disks
    in_tree = set()
    for root in range(n_disks):
        if path[root] is not None:
            continue
        path[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y, bi in adj[x]:
                if path[y] is None:
                    path[y] = path[x] ^ (1 << bi)
                    in_tree.add(bi)
                    stack.append(y)

    basis = []
    band_class = [0] * len(rs.bands)
    for bi, (u, v, _f) in enumerate(rs.bands):
        if bi in in_tree:
            continue
        cyc = (1 << bi) ^ path[rs.disk_of[u]] ^ path[rs.disk_of[v]]
        vec, coords = cyc, 0
        while vec:
            p = vec.bit_length() - 1
            if p not in rows:
                coords ^= 1 << len(basis)
                rows[p] = (vec, coords)
                coords = 1 << len(basis)
                basis.append(cyc)
                break
            vec ^= rows[p][0]
            coords ^= rows[p][1]
        band_class[bi] = coords

    def classify(mask: int) -> tuple:
        vec, coords = mask, 0
        while vec:
            p = vec.bit_length() - 1
            if p not in rows:
                raise ValueError("band mask is not a cycle")
            vec ^= rows[p][0]
            coords ^= rows[p][1]
        return tuple((coords >> i) & 1 for i in range(len(basis)))

    return {"basis": basis, "band_class": tuple(band_class), "h1_dim": len(basis),
            "pieces": pieces, "classify": classify}
