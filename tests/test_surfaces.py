import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from polebracket.cells import PolygonComplex
from polebracket.codes import BAR, make_code, parse_code, random_diagram
from polebracket.surfaces import ClosedSurface, build_ribbon, realize, regions, ribbon_faces
from polebracket.verify import corpus_twisted, twisted_fixtures
from reference import circle_mask, geometry, homology, ribbon


def _report(text):
    return realize(parse_code(text)).report()


def test_unknot_is_sphere():
    rep = _report("EMPTY")
    assert rep["pieces"] == [{"orientable": True, "genus": 0}]
    assert rep["euler"] == 2 and rep["h1_rank"] == 0


def test_trefoil_is_sphere():
    rep = _report("O1- U2- O3- U1- O2- U3-")
    assert rep["pieces"] == [{"orientable": True, "genus": 0}]


def test_virtual_trefoil_is_torus():
    rep = _report("O1+ O2+ U1+ U2+")
    assert rep["euler"] == 0
    assert rep["orientable"] is True
    assert rep["pieces"] == [{"orientable": True, "genus": 1}]
    assert rep["h1_rank"] == 2


def test_one_bar_loop_is_projective_plane():
    rep = _report("B")
    assert rep["euler"] == 1
    assert rep["orientable"] is False
    assert rep["pieces"] == [{"orientable": False, "crosscaps": 1}]


def test_two_bar_loop_is_sphere():
    # two half-twists cancel in the band closure
    rep = _report("B B")
    assert rep["pieces"] == [{"orientable": True, "genus": 0}]


def test_barred_kink_nonorientable():
    rep = _report("B O1+ B U1+")
    assert rep["orientable"] is False


def test_split_diagram_pieces():
    rep = _report("O1+ U1+\nEMPTY")
    assert len(rep["pieces"]) == 2
    assert rep["euler"] == 4


def test_kishino_like_two_crossing_codes():
    # poked unknot stays a sphere, interleaved parallel code needs a torus
    assert _report("U1+ U2- O2- O1+")["pieces"] == [{"orientable": True, "genus": 0}]
    assert _report("U1+ U2- O1+ O2-")["pieces"] == [{"orientable": True, "genus": 1}]


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_euler_formula(c, b, seed):
    # disks - bands: each crossing disk has 4 bands ends, free loop 1 band
    code = random_diagram(seed, c, b)
    rs = build_ribbon(code)
    F = ClosedSurface(rs)
    chi_band = len(rs.rotations) - len(rs.bands)
    assert F.euler == chi_band + len(F._cap_masks)
    assert F.euler % 2 == 0 or not F.orientable


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_h1_rank_matches_classification(c, b, seed):
    code = random_diagram(seed, c, b)
    F = realize(code)
    expect = 0
    for p in F.pieces:
        expect += 2 * p.genus if p.orientable else p.crosscaps
    assert F.h1_dim == expect


def _assert_capped_complex_agrees(code):
    # ClosedSurface reads caps, pieces and orientability off int tables; the
    # reference traces the boundary circles of the polygon band surface and
    # glues them in as faces, which must give the same caps and the same
    # closed surface, piece by piece.  Its 2-colouring of faces is the check
    # of the program's orientability, which reads w1 on fundamental cycles.
    rs = build_ribbon(code)
    F = ClosedSurface(rs)
    circles = PolygonComplex(ribbon_faces(rs)).boundary_circles()
    assert len(circles) == len(F._cap_masks) == len(F._cap_corner)
    assert sorted(circle_mask(c) for c in circles) == sorted(F._cap_masks)
    capped = PolygonComplex(ribbon_faces(rs) + [list(c) for c in circles])
    assert capped.boundary_circles() == ()
    assert capped.euler == F.euler
    pieces = [
        (s["euler"], orientable)
        for s, orientable in zip(capped.piece_stats(), capped.orientable_pieces())
    ]
    assert pieces == [(p.euler, p.orientable) for p in F.pieces]


@pytest.mark.parametrize("text", ["EMPTY", "B", "B B", "EMPTY\nEMPTY", "B\nO1+ U1+"])
def test_capped_complex_agrees_on_small_codes(text):
    _assert_capped_complex_agrees(parse_code(text))


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_capped_complex_agrees(c, b, k, seed):
    _assert_capped_complex_agrees(random_diagram(seed, c, b, min(k, max(1, 2 * c + b))))


def _find(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def test_caps_partition_the_corners():
    # the cap walk's corner partition, which `pole_regions` and `_cut` read:
    # each band side joins two corners of one cap (u ~ pred v and pred u ~ v,
    # or u ~ v and pred u ~ pred v on a flipped band), nothing else does,
    # the caps are listed by least corner in ascending order, and
    # `_corner_cap[d]` is the position of d's cap in that list.  Checked with
    # a union-find over the band sides
    codes = [code for seed in (1, 2, 3) for code in corpus_twisted(seed)]
    codes += [random_diagram(seed, c, 2 + seed % 4, k)
              for seed in range(30) for c, k in ((3, 2), (7, 3), (10, 2))]
    codes += [make_code(list(code.components) + [(), (BAR,), (BAR, BAR)])
              for code in codes[-30:]]
    for code in codes:
        F = realize(code)
        pred, cap, caps = F._pred, F._corner_cap, F._cap_corner
        sides = []
        for u, v, flip in F.ribbon.bands:
            sides += ((u, v), (pred[u], pred[v])) if flip else ((u, pred[v]), (pred[u], v))
        parent = list(range(len(cap)))
        for x, y in sides:
            assert cap[x] == cap[y], code
            parent[_find(parent, x)] = _find(parent, y)
        least = {}
        for d in range(len(cap)):
            least.setdefault(_find(parent, d), d)
        assert caps == sorted(least.values())
        assert sorted(set(cap)) == list(range(len(caps))), code
        assert [caps[cap[d]] for d in range(len(cap))] == [
            least[_find(parent, d)] for d in range(len(cap))
        ], code
        assert len(F._cap_masks) == len(caps)


def test_large_surface_report_scales():
    # info has no crossing guard, so surface build must stay cheap at large c;
    # anything quadratic in the homology rank or the code length (such as a
    # scan of the code per crossing) takes minutes here
    for c in (500, 3000):
        start = time.perf_counter()
        rep = realize(random_diagram(1, c, 10)).report()
        assert time.perf_counter() - start < 30
        assert rep["h1_rank"] == 2 * len(rep["pieces"]) - rep["euler"]


def test_regions_of_unknot_state():
    # a single inessential curve on the sphere has two disk regions
    code = parse_code("EMPTY")
    F = realize(code)
    from polebracket.states import splice_curves

    s = splice_curves(F, 0)
    regs = regions(F, [geometry(F, c) for c in s.curves], [])
    assert len(regs) == 2


def test_disk_test_rejects_a_chord_across_a_crossing_disk():
    # a separating curve off the sphere reaches the handle count, which
    # needs every chord to join rotation-adjacent darts
    from polebracket.states import splice_curves
    from polebracket.surfaces import EmbeddedCurve

    code = random_diagram(3, 8, 0, components=1)
    F = realize(code)
    assert F.pieces[0].euler != 2
    curve = next(
        g
        for mask in range(1 << 8)
        for g in (geometry(F, c) for c in splice_curves(F, mask).curves)
        if not g.flip_parity and not any(F.homology_class(g))
    )
    F.bounds_disk(curve)    # the curve as traced passes
    (a, b), rest = curve.chords[0], curve.chords[1:]
    rot = F.ribbon.rotations[F.ribbon.disk_of[a]]
    across = rot[(rot.index(a) + 2) % 4]
    bad = EmbeddedCurve(tuple(sorted(rest + ((min(a, across), max(a, across)),))),
                        curve.band_mask, 0)
    with pytest.raises(ValueError, match="non-adjacent"):
        F.bounds_disk(bad)


@st.composite
def _diagrams(draw):
    """c <= 12 crossings, bars <= 6, 1-3 components, and up to two more
    bare loops of 0-2 bars each."""
    c = draw(st.integers(min_value=0, max_value=12))
    b = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=1, max_value=3))
    code = random_diagram(draw(st.integers(min_value=0, max_value=10**6)), c, b,
                          min(k, max(1, 2 * c + b)))
    loops = draw(st.lists(st.integers(min_value=0, max_value=2), max_size=2))
    return make_code(list(code.components) + [[BAR] * n for n in loops])


def _assert_homology_matches_reference(code, rng):
    # the ribbon, the class of each band's fundamental cycle, the basis
    # (each basis cycle of the band-space reference has a unit class), the
    # rank, the pieces, the class of a random sum of caps and fundamental
    # cycles, and the refusal of a mask that is not a cycle
    rs = build_ribbon(code)
    assert rs == ribbon(code)
    F = ClosedSurface(rs)
    ref = homology(rs)
    assert F.band_class == ref["band_class"]
    assert F.h1_dim == ref["h1_dim"]
    for i, cycle in enumerate(ref["basis"]):
        assert F.homology_class(cycle) == tuple(int(j == i) for j in range(F.h1_dim))
    assert [(p.euler, p.orientable) for p in F.pieces] == ref["pieces"]
    cycles = list(F._cap_masks) + ref["basis"] + [
        1 << bi for bi, (u, v, _f) in enumerate(rs.bands) if rs.disk_of[u] == rs.disk_of[v]
    ]
    for _ in range(4):
        mask = 0
        for cycle in cycles:
            if rng.randrange(2):
                mask ^= cycle
        assert F.homology_class(mask) == ref["classify"](mask)
    for bi, (u, v, _f) in enumerate(rs.bands):
        if rs.disk_of[u] != rs.disk_of[v]:
            with pytest.raises(ValueError, match="not a cycle"):
                ref["classify"](1 << bi)
            with pytest.raises(ValueError, match="not a cycle"):
                F.homology_class(1 << bi)
            break
    with pytest.raises(ValueError, match="not a cycle"):
        F.homology_class(1 << len(rs.bands))


@given(_diagrams(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=150, deadline=None)
def test_homology_matches_band_space_reference(code, seed):
    _assert_homology_matches_reference(code, random.Random(seed))


def test_homology_matches_band_space_reference_on_corpus():
    rng = random.Random(37)
    codes = [code for _name, code in twisted_fixtures()] + corpus_twisted(5, 150, 9)
    codes += [parse_code(t) for t in ("EMPTY", "B", "B B\nEMPTY", "B O1- O2- B U1- U2-")]
    for code in codes:
        _assert_homology_matches_reference(code, rng)
