"""A frozen, plain state-sum engine, and differential tests against it.

`RefEngine` is the splice tracer as it stood while every curve still carried
its per-pole lists: it builds its own splice tables, records each pole's
kind and its (disk, chord, kind) triple as it walks, and checks that the
kinds alternate around the curve.  Curves are classified without the
engine's cache: the homology class from the band mask, the disk test by
cutting the surface along the curve (`surfaces.cut_complex`, memoized in a
plain dict per diagram), and the index by the step-by-step `reduce` of
`tests/reference.py`.  Both brackets are summed directly, one
`MultiLaurent` term per state, with no count table in between.

The fast engine must agree with it on both brackets (for 1 and 2 workers),
state by state on every curve record, derived pole list and class, and on
the count table of any mask range: `sum_counts` over a range cut in three,
or over a single mask, gives the reference's counts.  The trie of signature prefixes that `sum_counts`
counts under is decoded against the reference too, on a code where two
splice orders close one multiset of curves through different trie nodes.
The int-keyed count table, its brackets, `R` and its non-separation count
are compared with the signature-keyed `decode` and `fold` of
`tests/reference.py` at 1, 2 and 3 workers, where each worker's table
numbers its signatures its own way: with every state counted state by
state, and with R2 bigons folded, as the brackets sum, by polynomial.  Crossing 0, which the descent closes
without writing, must raise on a swapped pole kind and on chords that
leave a path open.
`ClosedSurface.bounds_disk` and `surfaces.regions`, which count handles
instead of building a polygon complex, are also compared with the cut
directly: the disk test curve by curve, the regions family by family, and
each malformed chord pattern must raise the same error in both.  Curve
classes come from the band-space homology of `tests/reference.py`, which
the engine's per-band homology table and `homology_class` are checked
against, and the engine's int chord-mask cache keys are checked against
the chord tuples the reference traces.  A state sum's closings must reach
all three ways a class is found (read off the open path; the disk test
says yes; it says no), and the disk test must see only two-sided class-0
curves, each once.
R1 kinks, whose loop-off states `sum_counts` counts without tracing them,
are compared on codes that have them, folded and traced, over any range.
"""

import pickle
import random
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets, states
from polebracket.brackets import (
    BracketValue, double_bracket, normalized, surface_pole_bracket,
)
from polebracket.codes import parse_code, random_diagram, serialize, writhe
from polebracket.laurent import MultiLaurent, delta, minus_A_pow
from polebracket.moves import apply_move, insert_sites
from polebracket.polewords import MARK
from polebracket.states import (
    check_nonseparation, check_pole_balance, classify_state, enumerate_states, pole_regions,
    splice_curves,
)
from polebracket.surfaces import (
    ClosedSurface, EmbeddedCurve, cut_complex, realize, regions,
)
from polebracket.verify import classical_fixtures, corpus_twisted, twisted_fixtures
from reference import (
    bracket_of, by_signature, curve_poles, decode, double_of, geometry, homology, nonseparation_of,
    reduce,
)
from test_states import edit_pole, poles


class RefEngine:
    """Splice tables and the per-curve trace, frozen as first written."""

    def __init__(self, F):
        rs = F.ribbon
        self.rs = rs
        n = rs.total_darts
        tau = ([-1] * n, [-1] * n)
        side = ([-1] * n, [-1] * n)
        kind = ([""] * n, [""] * n)
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
                    a_in = (a % 4) < 2
                    if a_in == ((b % 4) < 2):
                        k = "I" if a_in else "O"
                        kind[bit][a] = kind[bit][b] = k
                        side[bit][a] = 0 if succ[a] == b else 1
                        side[bit][b] = 0 if succ[b] == a else 1
        self.tau = tau
        self.side = side
        self.kind = kind
        self.c4 = 4 * rs.n_crossings

    def trace(self, mask):
        """Per curve (chords, band_mask, flip_parity, word, kinds, poles)."""
        rs = self.rs
        tau, side, kind, c4 = self.tau, self.side, self.kind, self.c4
        visited = bytearray(rs.total_darts)
        out = []
        for start in range(rs.total_darts):
            if visited[start]:
                continue
            word, kinds, poles, chords = [], [], [], []
            bmask = 0
            fpar = 0
            cur = start
            while True:
                visited[cur] = 1
                bit = (mask >> (cur >> 2)) & 1 if cur < c4 else 0
                x = tau[bit][cur]
                visited[x] = 1
                s = side[bit][cur]
                chord = (cur, x) if cur < x else (x, cur)
                if s >= 0:
                    word.append(s)
                    kinds.append(kind[bit][cur])
                    poles.append((rs.disk_of[cur], chord, kind[bit][cur]))
                chords.append(chord)
                nxt, flip, bi = rs.band_at[x]
                if flip:
                    word.append(MARK)
                    fpar ^= 1
                bmask |= 1 << bi
                cur = nxt
                if cur == start:
                    break
            if len(kinds) % 2 or any(
                a == b for a, b in zip(kinds, kinds[1:] + kinds[:1])
            ):
                raise AssertionError("pole kinds fail to alternate")
            out.append(
                (tuple(sorted(chords)), bmask, fpar, tuple(word), tuple(kinds), tuple(poles))
            )
        return out


_HOMOLOGY = weakref.WeakKeyDictionary()


def ref_class(F, bmask):
    """The class of a band cycle on F by the band-space reference
    (`reference.homology`), made once per surface."""
    hom = _HOMOLOGY.get(F)
    if hom is None:
        hom = _HOMOLOGY[F] = homology(F.ribbon)
    return hom["classify"](bmask)


def ref_cut(F, chords, mask):
    """`cut_complex` along the given chords, with the bands in mask split."""
    by_disk = {}
    for (a, b) in chords:
        by_disk.setdefault(F.ribbon.disk_of[a], []).append((a, b))
    return cut_complex(F, by_disk, mask)


def ref_bounds_disk(F, chords, bmask, fpar, memo):
    """Cut-based disk test: a two-sided, null-homologous curve bounds a disk
    when its piece is a sphere or when cutting along it leaves a piece with
    chi 1 and one boundary circle."""
    if fpar or any(ref_class(F, bmask)):
        return False
    hit = memo.get(chords)
    if hit is None:
        low_band = (bmask & -bmask).bit_length() - 1
        if F.pieces[F.band_piece[low_band]].euler == 2:
            hit = True
        else:
            hit = any(
                s["euler"] == 1 and s["boundary_circles"] == 1
                for s in ref_cut(F, chords, bmask).complex.piece_stats()
            )
        memo[chords] = hit
    return hit


def ref_regions(F, curves, poles):
    """Multiset of (euler, boundary circles, I poles, O poles) over the pieces
    of the cut along a family of curves; a pole counts once on each face
    beside its chord copy."""
    mask = 0
    for c in curves:
        mask |= c.band_mask
    cut = ref_cut(F, [ch for c in curves for ch in c.chords], mask)
    stats = cut.complex.piece_stats()
    count = {"I": [0] * len(stats), "O": [0] * len(stats)}
    for (disk, chord, kind) in poles:
        for f in cut.chord_faces[(disk, chord)]:
            count[kind][cut.complex.face_piece[f]] += 1
    return Counter(
        (s["euler"], s["boundary_circles"], count["I"][p], count["O"][p])
        for p, s in enumerate(stats)
    )


def ref_index(word):
    return sum(1 for x in reduce(word) if x != MARK) // 2


def ref_classify(F, curve, memo):
    """(inessential, separating, mobius, index, hom_class) of a traced curve."""
    chords, bmask, fpar, word = curve[:4]
    hom = ref_class(F, bmask)
    sep = not any(hom)
    mob = fpar == 1
    iness = (not mob) and sep and ref_bounds_disk(F, chords, bmask, fpar, memo)
    return (iness, sep, mob, ref_index(word), hom)


def ref_brackets(code):
    """(double bracket, surface pole bracket), one term per state."""
    F = realize(code)
    eng = RefEngine(F)
    memo = {}
    c = F.ribbon.n_crossings
    double = MultiLaurent.zero()
    classes = {}
    for mask in range(1 << c):
        term = MultiLaurent.A(c - 2 * bin(mask).count("1"))
        dterm = term
        sig = []
        for curve in eng.trace(mask):
            iness, sep, mob, idx, hom = ref_classify(F, curve, memo)
            if iness:
                term = term * delta()
                dterm = dterm * delta()
                continue
            sig.append((idx, mob, sep, hom))
            if mob:
                dterm = dterm * MultiLaurent.M()
            if idx >= 1:
                dterm = dterm * MultiLaurent.d(idx)
        double = double + dterm
        key = tuple(sorted(sig))
        classes[key] = classes.get(key, MultiLaurent.zero()) + term
    return double, BracketValue(classes)


def assert_states_match(code):
    F = realize(code)
    ref = RefEngine(F)
    memo = {}
    for mask in range(1 << F.ribbon.n_crossings):
        s = splice_curves(F, mask)
        expect = ref.trace(mask)
        # the walked key is the one `block` and `classify` read: its chord
        # bits give the reference's chords, the bits above them its bands,
        # and the flipped bands among them its flip parity
        shapes = [geometry(F, c) for c in s.curves]
        got = [(g.chords, g.band_mask, g.flip_parity, c.word) for g, c in zip(shapes, s.curves)]
        assert got == [e[:4] for e in expect]
        for g, e in zip(shapes, expect):
            assert sorted(curve_poles(F, g)) == sorted(e[5])
        cls = classify_state(F, s)
        assert [
            (cl.inessential, cl.separating, cl.mobius, cl.index, cl.hom_class) for cl in cls
        ] == [ref_classify(F, e, memo) for e in expect]


def assert_brackets_match(code, workers=(1, 2)):
    double, bracket = ref_brackets(code)
    for w in workers:
        assert double_bracket(code, workers=w) == double, w
    assert surface_pole_bracket(code) == bracket


@st.composite
def diagrams(draw, min_bars=0, max_crossings=8):
    """c <= max_crossings, bars <= 4, 1-3 components, sometimes one of them
    a bare loop."""
    c = draw(st.integers(min_value=0, max_value=max_crossings))
    b = draw(st.integers(min_value=min_bars, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    loop = draw(st.sampled_from(("", "EMPTY", "B"))) if k > 1 else ""
    main = random_diagram(seed, c, b, min(k - bool(loop), max(1, 2 * c + b)))
    return parse_code(serialize(main) + loop)


FIXTURES = ["EMPTY", "B", "B B", "O1+ U1+", "O1+ O2+ U1+ U2+", "B O1+ B U1+",
            "B\nO1+ U1+", "O1+ U1+\nEMPTY", "O1- U2- O3- U1- O2- U3-\nB B"]


def test_bounds_disk_matches_cut_reference():
    codes = corpus_twisted(7, 40) + [code for _name, code in twisted_fixtures()]
    codes += [code for _name, code in classical_fixtures()]
    # diagrams with many separating curves that bound no disk, two with bars
    codes += [random_diagram(seed, c, bars, components=k)
              for (seed, c, bars, k) in ((3, 8, 0, 1), (2, 8, 0, 3), (3, 8, 2, 1), (1, 7, 2, 2))]
    verdicts = {True: 0, False: 0}    # of curves that reach the handle count
    for code in codes:
        F = realize(code)
        eng = RefEngine(F)
        memo = {}
        for mask in range(1 << F.ribbon.n_crossings):
            for (chords, bmask, fpar, *_rest) in eng.trace(mask):
                got = F.bounds_disk(EmbeddedCurve(chords, bmask, fpar))
                assert got == ref_bounds_disk(F, chords, bmask, fpar, memo), (code, chords)
                low_band = (bmask & -bmask).bit_length() - 1
                if not (fpar or any(ref_class(F, bmask))
                        or F.pieces[F.band_piece[low_band]].euler == 2):
                    verdicts[got] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 100, verdicts


def _piece_kind(piece):
    """"sphere", "RP2" or "torus" for the pieces on which a two-sided
    class-0 curve always bounds a disk, else None."""
    return {(True, 2): "sphere", (False, 1): "RP2", (True, 0): "torus"}.get(
        (piece.orientable, piece.euler)
    )


def test_bounds_disk_is_two_sided_class_zero_on_small_pieces():
    # topology, not the cut: on a sphere, a projective plane or a torus, a
    # curve bounds a disk iff it is two-sided with class 0
    codes = [code for _name, code in twisted_fixtures() + classical_fixtures()]
    codes += [code for seed in (1, 2, 3) for code in corpus_twisted(seed, 60, 5)]
    verdicts = Counter()
    for code in codes:
        F = realize(code)
        eng = RefEngine(F)
        for mask in range(1 << F.ribbon.n_crossings):
            for (chords, bmask, fpar, *_rest) in eng.trace(mask):
                kind = _piece_kind(F.pieces[F.band_piece[(bmask & -bmask).bit_length() - 1]])
                if kind is None:
                    continue
                got = F.bounds_disk(EmbeddedCurve(chords, bmask, fpar))
                assert got == (not fpar and not any(ref_class(F, bmask))), (code, chords)
                verdicts[kind, got] += 1
    assert verdicts["sphere", True] and not verdicts["sphere", False]
    for kind in ("RP2", "torus"):
        assert verdicts[kind, True] > 100 and verdicts[kind, False] > 100, verdicts


def test_separating_curve_of_a_klein_bottle_bounds_no_disk():
    # a Klein bottle is two Mobius bands glued along their boundary: the
    # curve between them is two-sided with class 0 (twice a core), and
    # neither side is a disk
    code = parse_code("B O1- O2- B U1- U2-")
    F = realize(code)
    assert [(p.orientable, p.euler) for p in F.pieces] == [(False, 0)]
    chords = ((0, 3), (1, 2), (4, 7), (5, 6))
    curves = [c for c in RefEngine(F).trace(3) if c[0] == chords]
    assert len(curves) == 1
    (_chords, bmask, fpar, *_rest) = curves[0]
    assert not fpar and not any(ref_class(F, bmask))
    assert not F.bounds_disk(EmbeddedCurve(chords, bmask, fpar))
    # each side has one boundary circle and chi 0, so each is a Mobius band
    root, euler = F._cut(chords, bmask)
    side = euler[root[len(F.ribbon.rotations)]]
    assert (side, F.pieces[0].euler - side) == (0, 0)
    assert not ref_bounds_disk(F, chords, bmask, fpar, {})


def test_regions_match_cut_reference():
    # all curves of a state, the first curve alone, and the first half
    codes = corpus_twisted(7, 40) + [code for _name, code in twisted_fixtures()]
    codes += [code for _name, code in classical_fixtures()]
    families = 0
    for code in codes:
        F = realize(code)
        seen = set()
        for s in enumerate_states(F):
            for k in (len(s.curves), 1, max(1, len(s.curves) // 2)):
                family = s.curves[:k]
                key = tuple(geometry(F, c) for c in family)
                if not family or key in seen:
                    continue
                seen.add(key)
                families += 1
                poles = [p for g in key for p in curve_poles(F, g)]
                got = Counter(
                    (r.euler, r.boundary_circles, r.i_poles, r.o_poles)
                    for r in regions(F, key, poles)
                )
                assert got == ref_regions(F, key, poles), (code, s.choice, k)
    assert families > 2000, families


def _cut_pole_regions(F, walked, dart=None):
    """Per state of the surface `walked` (F itself, or F before `dart`
    renumbered its darts), the (I, O) multiset of the regions that
    `regions` finds on F, its poles read off the chords by `curve_poles`."""
    dart = dart or list(range(F.ribbon.total_darts))
    for s in enumerate_states(walked):
        curves = []
        for c in s.curves:
            g = geometry(walked, c)
            chords = tuple(sorted(tuple(sorted((dart[a], dart[b]))) for a, b in g.chords))
            curves.append(EmbeddedCurve(chords, g.band_mask, g.flip_parity))
        poles = [p for c in curves for p in curve_poles(F, c)]
        yield Counter((r.i_poles, r.o_poles) for r in regions(F, curves, poles))


def assert_pole_regions_match_cut(code):
    # the cap union gives, state by state, the regions of the cut: as many,
    # with the same (I, O) pole counts
    F = realize(code)
    pairs = zip(pole_regions(F), _cut_pole_regions(F, F), strict=True)
    for s, (got, ref) in enumerate(pairs):
        assert Counter(got) == ref, (serialize(code), s)


@pytest.mark.parametrize("text", FIXTURES)
def test_pole_regions_match_cut_on_fixtures(text):
    assert_pole_regions_match_cut(parse_code(text))


def test_pole_regions_match_cut_on_corpus():
    for code in corpus_twisted(7, 40) + [c for _n, c in twisted_fixtures() + classical_fixtures()]:
        assert_pole_regions_match_cut(code)


@given(diagrams(max_crossings=7))
@settings(max_examples=40, deadline=None)
def test_pole_regions_match_cut(code):
    assert_pole_regions_match_cut(code)


def _swap_in_and_out(rs, k):
    """`rs` with the in-darts and out-darts of crossing k trading numbers
    (4k <-> 4k+2, 4k+1 <-> 4k+3), and the renumbering: the same surface,
    with each pole at k read as the other kind."""
    dart = list(range(rs.total_darts))
    for d in (4 * k, 4 * k + 1):
        dart[d], dart[d + 2] = d + 2, d
    band_at = [None] * rs.total_darts
    for d, (o, flip, bi) in enumerate(rs.band_at):
        band_at[dart[d]] = (dart[o], flip, bi)
    swapped = rs._replace(
        rotations=tuple(tuple(dart[d] for d in rot) for rot in rs.rotations),
        bands=tuple((dart[u], dart[v], flip) for u, v, flip in rs.bands),
        band_at=tuple(band_at),
    )
    return swapped, dart


def test_swapped_pole_kinds_unbalance_the_same_states():
    # swap one crossing's I and O darts: the cap union and the cut, each
    # reading the kinds off the swapped numbering, must find the same
    # unbalanced states, and before the swap neither finds one
    codes = corpus_twisted(7, 40) + [c for _n, c in twisted_fixtures() + classical_fixtures()]
    unbalanced = 0
    for code in codes:
        F = realize(code)
        if not F.ribbon.n_crossings:
            continue
        assert check_pole_balance(F) == []
        rs, dart = _swap_in_and_out(F.ribbon, 0)
        G = ClosedSurface(rs)
        got = {s for s, _i, _o in check_pole_balance(G)}
        ref = {s for s, regs in enumerate(_cut_pole_regions(G, F, dart))
               if any(i != o for i, o in regs.elements())}
        assert got == ref, serialize(code)
        unbalanced += len(got)
    assert unbalanced > 20, unbalanced


def test_band_class_table_matches_homology_class():
    # a cycle's class is the XOR of its bands' classes; every band mask a
    # reference-traced curve has, against the band-space reference and
    # `homology_class`, and a mask that is not a cycle
    codes = corpus_twisted(3, 60) + [random_diagram(1, 12, 3)]
    curves = 0
    for code in codes:
        F = realize(code)
        eng = RefEngine(F)
        for mask in range(1 << F.ribbon.n_crossings):
            for (_chords, bmask, *_rest) in eng.trace(mask):
                h = 0
                for bi, cls in enumerate(F.band_class):
                    if (bmask >> bi) & 1:
                        h ^= cls
                ref = ref_class(F, bmask)
                assert tuple((h >> i) & 1 for i in range(F.h1_dim)) == ref
                assert F.homology_class(bmask) == ref
                curves += 1
    assert curves > 19000, curves
    F = realize(parse_code("O1+ O2+ U1+ U2+"))
    bi = next(i for i, (u, v, _f) in enumerate(F.ribbon.bands)
              if F.ribbon.disk_of[u] != F.ribbon.disk_of[v])
    with pytest.raises(ValueError, match="not a cycle"):
        ref_class(F, 1 << bi)
    with pytest.raises(ValueError, match="not a cycle"):
        F.homology_class(1 << bi)


def test_chord_mask_keys_are_injective():
    # a state sum keys only the curves that take the disk test: two-sided,
    # of class 0.  The walker path keys every curve, so after it classifies
    # every state there is one cache entry per distinct sorted chord tuple
    # that the reference engine traces, and each key reads back as its tuple
    codes = [parse_code(t) for t in FIXTURES] + corpus_twisted(7, 40)
    for code in codes:
        F = realize(code)
        n = 1 << F.ribbon.n_crossings
        states.sum_counts(F, 0, n, False)
        eng = states._engine(F)
        for key in eng.cache:
            bmask = key >> eng.n_chords
            assert not (bmask & F.flip_mask).bit_count() & 1, serialize(code)
            assert not any(ref_class(F, bmask)), serialize(code)
        for s in enumerate_states(F):
            classify_state(F, s)
        ref = RefEngine(F)
        distinct = {chords for mask in range(n) for (chords, *_rest) in ref.trace(mask)}
        assert len(eng.cache) == len(distinct), serialize(code)
        assert {eng.chords_of(key) for key in eng.cache} == distinct


def test_closings_reach_every_branch(monkeypatch):
    # a closing reads a curve with a nonzero class or flip off its open
    # path; only a two-sided class-0 curve takes the disk test, once per
    # distinct curve, and both of its verdicts occur: a disk, and an
    # essential separating curve (a Klein-bottle curve that cuts off two
    # Moebius bands, say)
    tested = []
    real = ClosedSurface.bounds_disk

    def record(self, curve):
        got = real(self, curve)
        tested.append((curve, got))
        return got

    monkeypatch.setattr(ClosedSurface, "bounds_disk", record)
    verdicts = Counter()
    carried = 0
    for code in [parse_code(t) for t in FIXTURES] + corpus_twisted(7, 40):
        F = realize(code)
        tested.clear()
        states.sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)
        eng = states._engine(F)
        # class keys with a nonzero class or flip come only from the paths
        low = (2 << F.h1_dim) - 1
        carried += sum(1 for key in eng.classes if key >= 0 and key & low)
        keys = [(curve.chords, curve.band_mask) for curve, _got in tested]
        assert len(keys) == len(set(keys)) == len(eng.cache), serialize(code)
        for curve, got in tested:
            assert curve.flip_parity == 0, serialize(code)
            assert not (curve.band_mask & F.flip_mask).bit_count() & 1, serialize(code)
            assert not any(ref_class(F, curve.band_mask)), serialize(code)
            verdicts[got] += 1
    assert carried > 100 and verdicts[True] > 50 and verdicts[False] > 5, (carried, verdicts)


# (code, chords, band mask, error): the kink's disk has rotation (0, 1, 2, 3),
# band 0 joins darts 2 and 1 and band 1 joins 3 and 0; EMPTY is a bare loop
MALFORMED = [
    ("O1+ U1+", ((0, 1),), 0b01, "chord dart on an unsplit band"),
    ("O1+ U1+", ((0, 2),), 0b11, "chord joins non-adjacent darts"),
    ("O1+ U1+", ((0, 1), (1, 2)), 0b11, "chords overlap"),
    ("O1+ U1+", ((0, 1), (2, 3), (1, 2)), 0b11, "unsupported chord pattern"),
    ("EMPTY", ((0, 1), (0, 1)), 0b1, "unsupported chord pattern"),
]


@pytest.mark.parametrize(
    "text, chords, mask, message", MALFORMED,
    ids=["unsplit-band", "non-adjacent", "overlap", "three-chords", "bare-loop-two-chords"],
)
def test_regions_reject_malformed_chords_like_the_cut(text, chords, mask, message):
    F = realize(parse_code(text))
    curves = [EmbeddedCurve(chords, mask, 0)]
    with pytest.raises(ValueError, match=message):
        regions(F, curves)
    with pytest.raises(ValueError, match=message):
        ref_regions(F, curves, ())


@pytest.mark.parametrize("text", FIXTURES)
def test_fixtures_match_reference(text):
    code = parse_code(text)
    assert_states_match(code)
    assert_brackets_match(code)


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_brackets_match_reference(code):
    assert_brackets_match(code)


@given(diagrams())
@settings(max_examples=100, deadline=None)
def test_states_match_reference(code):
    assert_states_match(code)


def ref_state_keys(code):
    """Per mask, the `sum_counts` key of its state, from the reference."""
    F = realize(code)
    eng = RefEngine(F)
    memo = {}
    c = F.ribbon.n_crossings
    keys = []
    for mask in range(1 << c):
        sig, iness = [], 0
        for curve in eng.trace(mask):
            inessential, sep, mob, idx, hom = ref_classify(F, curve, memo)
            if inessential:
                iness += 1
            else:
                sig.append((idx, mob, sep, hom))
        keys.append((tuple(sorted(sig)), c - 2 * bin(mask).count("1"), iness))
    return keys


def assert_ranges_merge(code, a, b, keys):
    # [0, a), [a, b) and [b, 2^c), each summed on a fresh surface, merge to
    # the full table, by signature, and so does `CountTable.add` of the
    # three, whose signature ids differ; an empty range gives an empty
    # table.  The three ranges' (M, d)-labelled tables, added the same way,
    # hold each label once and fold to the whole range's double bracket and
    # R, as the reference reads them off the full table
    n = 1 << len(code.crossing_ids)
    merged = Counter()
    added = parts = None
    for lo, hi in ((0, a), (a, b), (b, n)):
        part = states.sum_counts(realize(code), lo, hi, False)
        md = states.sum_counts(realize(code), lo, hi, False, "double")
        if lo == hi:
            assert part.labels == part.rows == [] == md.labels == md.rows
        merged.update(by_signature(part))
        if added is None:
            added, parts = part, md
        else:
            added.add(part)
            parts.add(md)
    full = by_signature(states.sum_counts(realize(code), 0, n, False))
    assert merged == full == by_signature(added) == Counter(keys), (serialize(code), a, b)
    assert len(added.labels) == len(set(added.labels))
    double = double_of(full)
    assert brackets._double(parts, False) == double, (serialize(code), a, b)
    assert brackets._double(parts, True) == minus_A_pow(-3 * writhe(code)) * double, (serialize(code), a, b)
    assert len(parts.labels) == len(set(parts.labels))


@pytest.mark.parametrize("text", FIXTURES)
def test_fixture_ranges_match_reference(text):
    # every pair of cut points, every single mask, and no mask out of range
    code = parse_code(text)
    keys = ref_state_keys(code)
    n = len(keys)
    for a in range(n + 1):
        for b in range(a, n + 1):
            assert_ranges_merge(code, a, b, keys)
    F = realize(code)
    for m in range(n):
        assert by_signature(states.sum_counts(F, m, m + 1, False)) == {keys[m]: 1}
    for lo, hi in ((-1, n), (0, n + 1)):
        with pytest.raises(ValueError, match="out of range"):
            states.sum_counts(F, lo, hi, False)
    for choice in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            splice_curves(F, choice)


@given(diagrams(), st.data())
@settings(max_examples=60, deadline=None)
def test_ranges_match_reference(code, data):
    keys = ref_state_keys(code)
    n = len(keys)
    a = data.draw(st.integers(min_value=0, max_value=n))
    b = data.draw(st.integers(min_value=a, max_value=n))
    assert_ranges_merge(code, a, b, keys)
    m = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert by_signature(states.sum_counts(realize(code), m, m + 1, False)) == {keys[m]: 1}


# (code, kinks the engine folds): both bands of one crossing are loops; a
# loop band with two bars, so unflipped; a kink inside a kink; a loop band
# with one bar on each side of the crossing, so flipped; and a crossing of
# two components, whose bands each join a strand to itself
FOLD_CASES = [("O1+ U1+", 1), ("O1+ B B U1+", 1), ("O1+ O2+ U2+ U1+", 2),
              ("B O1+ B U1+", 0), ("O1+\nU1+", 0)]


@pytest.mark.parametrize("text, kinks", FOLD_CASES)
def test_fold_matches_reference(text, kinks):
    # every range, each summed on a fresh surface, gives the reference's
    # counts of its states, whether its blocks fold a kink bit or trace it
    code = parse_code(text)
    keys = ref_state_keys(code)
    assert len(states._engine(realize(code)).kinks) == kinks
    for lo in range(len(keys) + 1):
        for hi in range(lo, len(keys) + 1):
            got = states.sum_counts(realize(code), lo, hi, False)
            assert by_signature(got) == Counter(keys[lo:hi]), (text, lo, hi)


def test_fold_premise_is_checked():
    # a kink's loop band must have class 0, and its loop-off chord must cut
    # off the corner that the band's side returns to, its two darts
    # adjacent in the surface's corner order, so that the circle runs beside
    # a one-corner cap; the engine refuses to fold when either fails
    F = realize(parse_code("O1+ U1+"))
    F.band_class = (1,) * len(F.band_class)
    with pytest.raises(AssertionError, match="loop band has a class"):
        states._Engine(F)
    # the loop band joins darts 2 and 1; a corner order 0, 2, 3, 1 puts
    # them apart
    F = realize(parse_code("O1+ U1+"))
    order = (0, 2, 3, 1)
    F._pred = [order[order.index(d) - 1] for d in range(4)]
    with pytest.raises(AssertionError, match="circle bounds no disk"):
        states._Engine(F)


def folded_circles(F):
    """The loop-off circle of each kink the engine folds: the chord that
    its loop-off bit draws, and the loop band."""
    eng = states._Engine(F)
    out = []
    for i, off in eng.kinks.items():
        u, v, bi = next((u, v, bi) for bi, (u, v, flip) in enumerate(F.ribbon.bands)
                        if not flip and u >> 2 == i == v >> 2 and (u ^ v) & 1)
        assert eng.step[off][u][0] == v
        out.append(EmbeddedCurve(((min(u, v), max(u, v)),), 1 << bi, 0))
    return out


def assert_folded_circles_bound_disks(code):
    # the premise the engine checks from the corner order alone, checked
    # by the disk test and by the cut
    F = realize(code)
    circles = folded_circles(F)
    for curve in circles:
        assert F.bounds_disk(curve), serialize(code)
        assert ref_bounds_disk(F, curve.chords, curve.band_mask, 0, {}), serialize(code)
    return len(circles)


def test_folded_kinks_bound_disks_on_fixtures():
    texts = [t for t, _k in FOLD_CASES] + FIXTURES
    folded = sum(assert_folded_circles_bound_disks(parse_code(t)) for t in texts)
    folded += sum(assert_folded_circles_bound_disks(c) for _n, c in classical_fixtures() + twisted_fixtures())
    assert folded >= 8, folded


@st.composite
def kinked_diagrams(draw):
    """`diagrams` with c <= 5, then one to three R1 kinks inserted at
    seeded sites, so c <= 8."""
    code = draw(diagrams(max_crossings=5))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        code = apply_move(code, next(s for s in insert_sites(code, rng) if s.kind.startswith("R1")))
    return code


@given(kinked_diagrams())
@settings(max_examples=40, deadline=None)
def test_folded_kinks_bound_disks(code):
    assert assert_folded_circles_bound_disks(code) > 0


@given(kinked_diagrams(), st.data())
@settings(max_examples=60, deadline=None)
def test_fold_matches_reference_random(code, data):
    # an inserted kink is folded, unless a later one splits it, and then
    # the inner one is
    keys = ref_state_keys(code)
    F = realize(code)
    assert states._engine(F).kinks, serialize(code)
    assert by_signature(states.sum_counts(F, 0, len(keys), False)) == Counter(keys), serialize(code)
    lo = data.draw(st.integers(min_value=0, max_value=len(keys)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(keys)))
    got = states.sum_counts(realize(code), lo, hi, False)
    assert by_signature(got) == Counter(keys[lo:hi]), (serialize(code), lo, hi)


def _ref_without_pole(engine, bit, a, b):
    engine.side[bit][a] = engine.side[bit][b] = -1
    return engine


def _without_pole(engine, bit, a, _b):
    return edit_pole(engine, bit, a, lambda _v, _k: (0, 0))


def assert_alternation_check_matches(code):
    # drop one pole from both engines' tables: the curve through it keeps an
    # odd pole count, which only the wrap-around check sees when the dropped
    # pole was the first or last one met.  The fast engine checks in its
    # walker, which runs for every curve of `splice_curves` and, in
    # `sum_counts`, for every chord set its cache has not seen: a fresh
    # engine per mask walks every curve of the state
    F = realize(code)
    c = F.ribbon.n_crossings
    base = RefEngine(F)
    for bit in (0, 1):
        for a in range(4 * c):
            b = base.tau[bit][a]
            if a > b or base.side[bit][a] < 0:
                continue
            ref = _ref_without_pole(RefEngine(F), bit, a, b)
            for mask in range(1 << c):
                if (mask >> (a >> 2)) & 1 != bit:
                    continue
                with pytest.raises(AssertionError):
                    ref.trace(mask)
                F._state_engine = _without_pole(states._Engine(F), bit, a, b)
                with pytest.raises(AssertionError):
                    states.sum_counts(F, mask, mask + 1, False)
                with pytest.raises(AssertionError):
                    splice_curves(F, mask)


@pytest.mark.parametrize("text", ["O1+ U1+", "O1- U1-", "O1+ O2+ U1+ U2+", "B O1+ B U1+"])
def test_alternation_check_matches_reference(text):
    assert_alternation_check_matches(parse_code(text))


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_alternation_check_matches_reference_random(c, b, seed):
    assert_alternation_check_matches(random_diagram(seed, c, b))


def _no_walk(*_args):
    raise AssertionError("sum_counts walked a curve")


def assert_sums_without_walk(code):
    # with the walker unusable, a full sum on a fresh surface, and a sum of
    # each single mask on a fresh engine (every curve of it a cache miss),
    # give the reference's key per mask: misses are classified from the
    # open paths alone
    keys = ref_state_keys(code)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states._Engine, "walk", _no_walk)
        F = realize(code)
        assert by_signature(states.sum_counts(F, 0, len(keys), False)) == Counter(keys), serialize(code)
        for m, key in enumerate(keys):
            F._state_engine = states._Engine(F)
            assert by_signature(states.sum_counts(F, m, m + 1, False)) == {key: 1}, (serialize(code), m)


@pytest.mark.parametrize("text", FIXTURES)
def test_fixture_sums_walk_no_curve(text):
    assert_sums_without_walk(parse_code(text))


def test_corpus_sums_walk_no_curve():
    for code in corpus_twisted(7, 40):
        assert_sums_without_walk(code)


@given(diagrams(min_bars=1))
@settings(max_examples=40, deadline=None)
def test_sums_walk_no_curve(code):
    assert_sums_without_walk(code)


def test_reference_cases_reach_every_arc_rule():
    # the walk-free sums above agree with the reference on these codes only
    # if every rule of the open paths' arc values is right: they reach
    # one-sided curves, words of odd length (index 0 whatever S is), positive
    # indices, and curves with a positive index through a flipped band, where
    # a mark reverses the sign of everything after it
    codes = [parse_code(t) for t in FIXTURES] + corpus_twisted(7, 40)
    seen = Counter()
    for code in codes:
        F = realize(code)
        eng = RefEngine(F)
        for mask in range(1 << F.ribbon.n_crossings):
            for (_chords, _bmask, fpar, word, *_rest) in eng.trace(mask):
                idx = ref_index(word)
                seen["one-sided"] += fpar
                seen["odd length"] += len(word) & 1
                seen["positive index"] += idx > 0
                seen["positive index, flipped band"] += idx > 0 and MARK in word
    assert min(seen.values()) > 100 and len(seen) == 4, seen


def _swap_kind(engine, bit, a, _b):
    return edit_pole(engine, bit, a, lambda v, k: (v, 3 - k))


def kind_check_raisers(code):
    """Swap the kind (I and O) of each pole chord in turn on a fresh engine,
    which makes both pole pairs beside it fail, then drop the pole, which
    makes the one pair across it fail.  Every block of every size must
    raise; `splice_curves` must raise too.
    Returns the names of the engine functions that raised."""
    F = realize(code)
    c = F.ribbon.n_crossings
    base = RefEngine(F)
    where = set()
    for bit in (0, 1):
        for a in range(4 * c):
            b = base.tau[bit][a]
            if a > b or base.side[bit][a] < 0:
                continue
            i = a >> 2
            for corrupt in (_swap_kind, _without_pole):
                for k in range(c + 1):
                    for lo in range(0, 1 << c, 1 << k):
                        if i >= k and (lo >> i) & 1 != bit:
                            continue
                        eng = corrupt(states._Engine(F), bit, a, b)
                        with pytest.raises(AssertionError, match="pole kinds fail to alternate") as err:
                            eng.block(lo, k, False)
                        where.add(err.traceback[-1].name)
                F._state_engine = corrupt(states._Engine(F), bit, a, b)
                with pytest.raises(AssertionError, match="pole kinds fail to alternate"):
                    splice_curves(F, bit << i)
    return where


def test_kind_check_raises_mid_path_and_on_closing():
    # `entry` checks the pairs a closing chord makes adjacent (the
    # wrap-around pair, or a single pole with itself); `descend` checks the
    # pairs a join makes adjacent mid-path for the free bits, and `block`'s
    # pass those of the chords every state of the block shares
    where = set()
    for text in ("O1+ U1+", "O1- U1-", "O1+ O2+ U1+ U2+", "B O1+ B U1+",
                 "O1- U2- O3- U1- O2- U3-\nB B",
                 "O3- U1+ U6+ U2- O2- O1+ O4+ O5+ U3- U4+ U5+ B O6+ B"):
        where |= kind_check_raisers(parse_code(text))
    assert where == {"entry", "descend", "block"}, where


def test_count_check_sees_a_lost_band():
    # a closed curve alternates chord and band; drop one band's bit from the
    # open path it starts as, and a curve through it fails the per-miss check
    code = parse_code("O1- U2- O3- U1- O2- U3-\nB B")
    F = realize(code)
    for d in range(F.ribbon.total_darts):
        eng = states._Engine(F)
        for e in (d, eng.paths[d][0]):
            rec = eng.paths[e]
            eng.paths[e] = rec[:2] + (0,) + rec[3:]
        F._state_engine = eng
        with pytest.raises(AssertionError, match="path chord mask disagrees"):
            states.sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)


def test_class_check_sees_a_lost_band_class():
    # drop one band's class and flip from the open path it starts as; a
    # curve whose carried class then reads 0 takes the disk test, which
    # reads the class off its band mask and refuses it
    code = parse_code("B O1+ B U1+")
    F = realize(code)
    for d in range(F.ribbon.total_darts):
        eng = states._Engine(F)
        assert eng.paths[d][1]
        for e in (d, eng.paths[d][0]):
            rec = eng.paths[e]
            eng.paths[e] = rec[:1] + (0,) + rec[2:]
        F._state_engine = eng
        with pytest.raises(AssertionError, match="carried class disagrees"):
            states.sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)


def test_undo_check_sees_a_changed_path_record():
    # the descent works on the records the block's pass leaves, and its undos
    # must leave them as they were, which the block keeps as `start`; change
    # one record of `start` while the descent runs (at its one disk test)
    # and the end-of-block check refuses
    F = realize(parse_code("O1+ U1+"))
    eng = states._Engine(F)
    classify = eng.classify
    calls = []

    def changing(key, idx):
        if not calls:
            frame = sys._getframe(1)
            while frame.f_code.co_name != "block":
                frame = frame.f_back
            start = frame.f_locals["start"]
            start[0] = start[0][:4] + (start[0][4] ^ 1,)
        calls.append(key)
        return classify(key, idx)

    eng.classify = changing
    F._state_engine = eng
    with pytest.raises(AssertionError, match="undo left the open paths changed"):
        states.sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)
    assert len(calls) == 1


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_kind_check_raises_random(c, b, seed):
    kind_check_raisers(random_diagram(seed, c, b))


def _trie_curves(eng, node):
    """The signature entries on the trie path to `node`, in closing order."""
    out = []
    while node:
        key = eng.trie.up[node]
        out.append(eng.classes.entries[key & ((1 << states._ID_BITS) - 1)])
        node = key >> states._ID_BITS
    return out[::-1]


def test_decode_merges_one_multiset_reached_in_two_orders():
    # two one-sided curves of different classes close in either order,
    # depending on the splices, so two trie nodes hold one multiset; the
    # count table gives both one signature id, merges their counts, and
    # equals the reference's decoded table
    code = parse_code("O4+ O2- B O1- U2- U1- O5- B O3- U3- U5- U4+")
    F = realize(code)
    eng = states._Engine(F)
    c = F.ribbon.n_crossings
    raw = eng.block(0, c, False)
    orders = {}
    for key in raw:
        curves = tuple(_trie_curves(eng, key >> eng.node_shift))
        orders.setdefault(tuple(sorted(curves)), set()).add(curves)
    assert any(len(seen) > 1 for seen in orders.values())
    expect = Counter()
    for key, count in raw.items():
        sig = tuple(sorted(_trie_curves(eng, key >> eng.node_shift)))
        t = key & ((1 << eng.node_shift) - 1)
        expect[(sig, c - 2 * (t & ((1 << eng.pc_bits) - 1)), t >> eng.pc_bits)] += count
    decoded = decode(eng, raw)
    table = eng.table(raw, *eng.signatures(eng.trie.up))
    assert by_signature(table) == decoded == expect == Counter(ref_state_keys(code))
    assert sum(map(len, table.rows)) < len(raw)
    assert sorted(table.labels) == sorted(orders)
    # the same leaf counts under the (M, d) labelling: each signature's
    # collapse, with the counts of one part merged
    collapsed = Counter()
    for (sig, nat, iness), n in decoded.items():
        collapsed[brackets._collapse(sig), nat, iness] += n
    assert by_signature(eng.table(raw, *eng.parts(eng.trie.up))) == collapsed
    # the sum releases the trie, and a second sum on the same engine agrees
    F._state_engine = eng
    assert by_signature(states.sum_counts(F, 0, 1 << c, False)) == decoded
    assert eng.trie.up == [0] and not eng.trie


def test_classify_refuses_ids_beyond_the_trie_key(monkeypatch):
    # a trie key holds an id in its low _ID_BITS bits.  Every new class id
    # is checked, whether a closing reads the class off its open path, a
    # miss takes the disk test, or the walker path classifies a curve
    monkeypatch.setattr(states, "_ID_LIMIT", 2)
    code = parse_code("O4+ O2- B O1- U2- U1- O5- B O3- U3- U5- U4+")
    with pytest.raises(AssertionError, match="too many curve classes"):
        states.sum_counts(realize(code), 0, 1 << 5, False)
    # on the torus every essential curve has a nonzero class, so its
    # classes all arrive through the paths, and none takes the disk test
    code = parse_code("O1+ O2+ U1+ U2+")
    F = realize(code)
    with pytest.raises(AssertionError, match="too many curve classes") as err:
        states.sum_counts(F, 0, 1 << 2, False)
    assert err.traceback[-2].name == "entry" and not states._engine(F).cache
    # here the second essential class is a two-sided class-0 curve that
    # bounds no disk, found by a miss's disk test
    F3 = realize(parse_code("U1- B O1- O2+ O3+ B U2+ U3+ B"))
    with pytest.raises(AssertionError, match="too many curve classes") as err:
        states.sum_counts(F3, 0, 1 << 3, False)
    assert [e.name for e in err.traceback[-3:-1]] == ["entry", "classify"]
    F = realize(code)
    with pytest.raises(AssertionError, match="too many curve classes") as err:
        for s in enumerate_states(F):
            classify_state(F, s)
    assert err.traceback[-2].name == "classify"


# ---------------------------------------------------------------------------
# the last crossing, closed without writing


def _corrupt_last_crossing(eng):
    """Give both choices of crossing 0 a second chord from the second
    chord's first dart to the first chord's second dart, so that the two
    chords share a dart and the fourth dart's path stays open."""
    bad = tuple(ch[:7] + ch[2:3] + ch[8:] for ch in eng.items[0])
    eng.items = (bad,) + eng.items[1:]
    return eng


def test_last_splice_must_leave_no_path_open():
    # whichever choice of crossing 0 a block takes, and at every block
    # size, the last level finds a path its chords leave open and raises
    for text in ("O1+ U1+", "O1+ O2+ U1+ U2+", "B O1+ B U1+", "O1- U2- O3- U1- O2- U3-\nB B"):
        F = realize(parse_code(text))
        c = F.ribbon.n_crossings
        for k in range(c + 1):
            for lo in range(0, 1 << c, 1 << k):
                eng = _corrupt_last_crossing(states._Engine(F))
                with pytest.raises(AssertionError, match="the last splice leaves a path open"):
                    eng.block(lo, k, False)


def test_swapped_kind_at_the_last_crossing_raises():
    # swap the kind of each pole chord of crossing 0 on a fresh engine: a
    # block that takes its choice raises while it closes crossing 0, in
    # `descend` at its last level, which writes nothing, or in the `entry`
    # that level calls
    where = set()
    for text in ("O1+ U1+", "O1- U1-", "O1+ O2+ U1+ U2+", "B O1+ B U1+",
                 "O1- U2- O3- U1- O2- U3-\nB B",
                 "O3- U1+ U6+ U2- O2- O1+ O4+ O5+ U3- U4+ U5+ B O6+ B"):
        F = realize(parse_code(text))
        c = F.ribbon.n_crossings
        for bit, a, b in poles(states._Engine(F)):
            if a >= 4:
                continue
            for k in range(c + 1):
                for lo in range(0, 1 << c, 1 << k):
                    if k == 0 and lo & 1 != bit:
                        continue
                    eng = _swap_kind(states._Engine(F), bit, a, b)
                    with pytest.raises(AssertionError, match="pole kinds fail to alternate") as err:
                        eng.block(lo, k, False)
                    frames = [e for e in err.traceback if e.name == "descend"]
                    assert frames[-1].locals["i"] == 0, (text, bit, a, k, lo)
                    where.add(err.traceback[-1].name)
    assert where == {"entry", "descend"}, where


def descend_levels(eng, lo, k, fold):
    """Sum `eng.block(lo, k, fold)` and return the (crossing `i`, number of
    choices of `i`) of each `descend` frame, and the deepest nesting of
    those frames."""
    levels, depth = [], [0, 0]

    def profile(frame, event, _arg):
        if frame.f_code.co_name != "descend":
            return
        if event == "call":
            depth[0] += 1
            depth[1] = max(depth)
        elif event == "return":
            depth[0] -= 1
            i = frame.f_locals["i"]
            levels.append((i, len(frame.f_locals["choices"][i])))

    sys.setprofile(profile)
    try:
        eng.block(lo, k, fold)
    finally:
        sys.setprofile(None)
    return levels, depth[1]


def test_the_descent_holds_only_the_crossings_a_block_chooses():
    # the block's pass draws every chord its states share (fixed bits,
    # folded kinks, bigons' through choices), so `descend` recurses only
    # over the two-choice crossings above 0, and crossing 0 is its last
    # level in every block: a full folded sum is as deep as its traced bits
    for text in ("O1+ O3+ O4- U4- U3+ O2+ U1+ U2+ O5+ U5+", "O1- U2- O3- U1- O2- U3-\nB B",
                 "O3- U1+ U6+ U2- O2- O1+ O9+ U10+ O4+ O5+ U3- U9+ O10+ U4+ U5+ B O6+ U7+ U8- O7+ O8- B"):
        F = realize(parse_code(text))
        c = F.ribbon.n_crossings
        for fold in (False, True):
            for k in range(c + 1):
                for lo in range(0, 1 << c, 1 << k):
                    levels, deepest = descend_levels(states._Engine(F), lo, k, fold)
                    chosen = {i for i, n in levels if i}
                    assert all(n == 2 for i, n in levels if i), (text, fold, k, lo)
                    assert 0 in {i for i, _n in levels} and deepest == len(chosen) + 1
                    assert len(chosen) <= k
        levels, deepest = descend_levels(states._Engine(F), 0, c, True)
        assert deepest <= states._Engine(F).plan.bits + 1


# ---------------------------------------------------------------------------
# the int-keyed count table against the signature-keyed reference


def count_every_state(mp):
    """Make the brackets' sums fold no bigon, so that their tables count
    every state, as `check`'s own sums do."""
    mp.setattr(brackets, "sum_counts", lambda F, lo, hi, _fold, *want: states.sum_counts(F, lo, hi, False, *want))


def pickling_pool(parts):
    """A stand-in for ProcessPoolExecutor that runs each job in this
    process, on its own surface and engine, and hands its count table back
    through pickle, as a worker process would; each count table's {label:
    place in its labels} is appended to `parts` before the parent merges
    them."""

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            tables = [pickle.loads(pickle.dumps(fn(job))) for job in jobs]
            parts.append([{label: s for s, label in enumerate(t.labels)} for t in tables])
            return tables

    return Pool


def rekeyed(parts):
    """The labels that two tables of one merge hold at different places."""
    return sum(
        1
        for tables in parts
        for i, ids in enumerate(tables)
        for other in tables[:i]
        for sig, s in ids.items()
        if other.get(sig, s) != s
    )


def lone(parts):
    """The labels that only one table of a merge of two or more holds."""
    return sum(
        1
        for tables in parts
        if len(tables) > 1
        for i, ids in enumerate(tables)
        for sig in ids
        if not any(sig in other for other in tables[:i] + tables[i + 1:])
    )


def assert_table_matches_reference(code):
    # the leaf counts of one full block on a fresh engine, decoded by the
    # reference, give the signature-keyed table; the count table, its
    # brackets, R and its non-separation count must match what the
    # reference reads off it, at 1, 2 and 3 workers, and the workers'
    # tables must add up to the one-range table, label by label and row by
    # row.  The brackets' own tables fold R2 bigons, so they hold fewer
    # states; they are compared by polynomial, and the same ranges and
    # merge with every state counted are compared state by state
    F = realize(code)
    eng = states._Engine(F)
    ref = decode(eng, eng.block(0, F.ribbon.n_crossings, False))
    whole = states.sum_counts(realize(code), 0, 1 << F.ribbon.n_crossings, False)
    bracket, double = bracket_of(ref), double_of(ref)
    invariant = minus_A_pow(-3 * writhe(code)) * double
    for w in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            count_every_state(mp)
            table = brackets._counts(code, w)
        assert by_signature(table) == ref, (serialize(code), w)
        assert len(set(table.labels)) == len(table.labels)
        assert dict(zip(table.labels, table.rows)) == dict(zip(whole.labels, whole.rows)), (serialize(code), w)
        assert check_nonseparation(table) == nonseparation_of(ref) == 0
        folded = by_signature(brackets._counts(code, w))
        assert bracket_of(folded) == bracket and double_of(folded) == double, (serialize(code), w)
        got = surface_pole_bracket(code, w)
        assert got == bracket and got.to_text() == bracket.to_text(), (serialize(code), w)
        assert got.to_json() == bracket.to_json()
        got = double_bracket(code, w)
        assert got == double and got.to_text() == double.to_text(), (serialize(code), w)
        got = normalized(code, w)
        assert got == invariant and got.to_json() == invariant.to_json(), (serialize(code), w)


@pytest.mark.parametrize("text", FIXTURES)
def test_fixture_tables_match_reference(text, monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pickling_pool([]))
    assert_table_matches_reference(parse_code(text))


def test_corpus_tables_match_reference(monkeypatch):
    # the worker tables of one merge list shared labels in different
    # orders, and some labels in one table only; the parent adds them by
    # label
    parts = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", pickling_pool(parts))
    for code in corpus_twisted(7, 40):
        assert_table_matches_reference(code)
    assert rekeyed(parts) > 50, rekeyed(parts)
    assert lone(parts) > 50, lone(parts)


@given(diagrams(max_crossings=9))
@settings(max_examples=40, deadline=None)
def test_tables_match_reference(code):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("concurrent.futures.ProcessPoolExecutor", pickling_pool([]))
        assert_table_matches_reference(code)


def test_worker_processes_match_reference():
    # real worker processes: a 10-crossing code whose bracket has hundreds
    # of classes, and the largest codes of the corpus
    wide = parse_code("U5- U3+ U7- U1+ B B O3+ U10- O7- O9+ U8- O6- O10- U6- U2- "
                      "O5- O1+ U4+ O2- O8- U9+ O4+")
    assert len(surface_pole_bracket(wide).classes) > 300
    codes = sorted(corpus_twisted(7, 40), key=lambda code: len(code.crossing_ids))[-2:]
    for code in [wide] + codes:
        assert_table_matches_reference(code)
