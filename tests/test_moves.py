import collections
import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings

from polebracket import moves
from polebracket.brackets import normalized, surface_pole_bracket
from polebracket.codes import Bar, parse_code, serialize, writhe
from polebracket.laurent import MultiLaurent, delta, minus_A_pow
from polebracket.moves import (
    MoveError,
    MoveSpec,
    apply_move,
    insert_sites,
    r1_delete_sites,
    r2_delete_sites,
    r3_sites,
    t1_delete_sites,
    t3_sites,
)
from polebracket.surfaces import ClosedSurface, EmbeddedCurve, build_ribbon
from polebracket.verify import braid_closure, corpus_twisted

from test_arrow import engine_arrow
from test_bigons import poked_diagrams


def _by_first_visit(code):
    ids = {}
    return [
        [t if isinstance(t, Bar) else (ids.setdefault(t.crossing, len(ids)), t.over, t.sign)
         for t in comp]
        for comp in code.components
    ]


def _same_diagram(a, b):
    # no move rotates or reorders components, so codes are compared up to
    # crossing renumbering alone
    return _by_first_visit(a) == _by_first_visit(b)


# -- R1 ----------------------------------------------------------------------


def test_r1_insert_delete_round_trip():
    base = parse_code("O1+ U2+ U1+ O2+")
    for kind in ("R1+", "R1-"):
        for gap in range(5):
            for variant in (0, 1):
                kinked = apply_move(base, MoveSpec(kind, "insert", (0, gap), variant))
                assert writhe(kinked) == writhe(base) + (1 if kind == "R1+" else -1)
                sites = r1_delete_sites(kinked)
                assert sites
                undone = [apply_move(kinked, s) for s in sites if s.kind == kind]
                assert any(_same_diagram(u, base) for u in undone)


def test_r1_delete_wrong_sign_rejected():
    kinked = parse_code("O1+ U1+")
    with pytest.raises(MoveError):
        apply_move(kinked, MoveSpec("R1-", "delete", (0, 0)))


# -- R2 ----------------------------------------------------------------------


def test_r2_insert_on_empty_matches_contract():
    out = apply_move(parse_code("EMPTY"), MoveSpec("R2", "insert", (0, 0)))
    signs = {t.sign for c in out.components for t in c}
    assert len(out.crossing_ids) == 2
    assert signs == {1, -1}


def test_r2_insert_delete_round_trip():
    for text in ("EMPTY", "O1+ U1+", "O1+ O2+ U1+ U2+", "B", "B O1+ B U1+"):
        base = parse_code(text)
        for ci in range(len(base.components)):
            for gap in range(len(base.components[ci]) + 1):
                for variant in range(4):
                    poked = apply_move(base, MoveSpec("R2", "insert", (ci, gap), variant))
                    undone = [apply_move(poked, s) for s in r2_delete_sites(poked)]
                    assert any(_same_diagram(u, base) for u in undone)


def test_r2_insert_preserves_invariant_everywhere():
    base = parse_code("O1- U2- O3- U1- O2- U3-")
    before = normalized(base)
    for gap in range(7):
        for variant in range(4):
            poked = apply_move(base, MoveSpec("R2", "insert", (0, gap), variant))
            assert normalized(poked) == before


def test_r2_delete_accepts_cross_arc_planar_pair():
    # a poke whose finger lands across another arc, still planar
    code = parse_code("O1+ U2+ U3- U1+ O2+ O3-")
    sites = r2_delete_sites(code)
    assert sites
    results = [apply_move(code, s) for s in sites]
    kink = parse_code("O1+ U1+")
    assert any(_same_diagram(r, kink) for r in results)


def test_r2_delete_rejects_surface_changing_pattern():
    # interleaved parallel pairs: the token pattern of an R2 pair, but the
    # code realizes on a torus and deleting would change the link
    code = parse_code("U1+ U2- O1+ O2-")
    assert r2_delete_sites(code) == []
    for p1 in range(4):
        for p2 in range(4):
            with pytest.raises(MoveError):
                apply_move(code, MoveSpec("R2", "delete", (0, p1, 0, p2)))


def test_r2_delete_rejects_detour_poke():
    # bigon is a face of the realization, yet deleting it would
    # destabilize the torus to a sphere; must be refused
    code = parse_code("O1+ U3+ U2- U1+ O2- O3+")
    assert r2_delete_sites(code) == []


def test_r2_writhe_unchanged():
    base = parse_code("O1+ U1+")
    poked = apply_move(base, MoveSpec("R2", "insert", (0, 1), 2))
    assert writhe(poked) == writhe(base)


# -- R3 ----------------------------------------------------------------------


def test_r3_braid_relation():
    lhs = braid_closure([(1, 1), (2, 1), (1, 1)], 3)
    rhs = braid_closure([(2, 1), (1, 1), (2, 1)], 3)
    sites = r3_sites(lhs)
    assert sites
    assert any(_same_diagram(apply_move(lhs, s), rhs) for s in sites)


def test_r3_preserves_writhe_and_value():
    lhs = braid_closure([(1, 1), (2, -1), (1, 1)], 3)
    before = normalized(lhs)
    for s in r3_sites(lhs):
        moved = apply_move(lhs, s)
        assert writhe(moved) == writhe(lhs)
        assert normalized(moved) == before


def test_r3_rejects_cyclic_over_pattern():
    # three crossings where each strand goes over exactly one other in a
    # cycle; no plane triangle realizes that
    code = parse_code("O1+ U3+ O2+ U1+ O3+ U2+")
    assert r3_sites(code) == []


def _move_circle(rs, ids, pairs):
    """The move circle of a bigon (two visit pairs) or a triangle (three) on
    the ribbon of a code with crossing ids `ids`: it runs along the band of
    each adjacent visit pair, and crosses each crossing disk on one chord,
    joining the two darts the pairs end at there."""
    kidx = {cid: k for k, cid in enumerate(ids)}
    ends = {}
    mask = 0
    for first, second in pairs:
        # darts at disk k: 4k over-in, 4k+1 under-in, 4k+2 over-out, 4k+3 under-out
        u = 4 * kidx[first.crossing] + (2 if first.over else 3)
        v = 4 * kidx[second.crossing] + (0 if second.over else 1)
        other, _flip, bi = rs.band_at[u]
        assert other == v, "adjacent visits disagree with the ribbon bands"
        mask |= 1 << bi
        ends.setdefault(first.crossing, []).append(u)
        ends.setdefault(second.crossing, []).append(v)
    chords = tuple(sorted(tuple(sorted(ds)) for ds in ends.values()))
    return EmbeddedCurve(chords, mask, 0)


def _site_pairs(code, site):
    """The visit pairs at a site's anchors, (component, first position) each."""
    comps = code.components
    return [
        (comps[ci][pos], comps[ci][(pos + 1) % len(comps[ci])])
        for ci, pos in zip(site[::2], site[1::2])
    ]


def _token_valid_r2_sites(code):
    """Every R2 delete site that passes the token checks, including those
    the surface comparison then refuses."""
    spots = [(ci, pos) for ci, comp in enumerate(code.components) for pos in range(len(comp))]
    valid = []
    for a, b in itertools.combinations(spots, 2):
        spec = MoveSpec("R2", "delete", a + b)
        try:
            apply_move(code, spec)
        except MoveError as e:
            if str(e) != "rewrite would change the realization surface":
                continue
        valid.append(spec)
    return valid


def _r2_deletions_keep_the_arrow(code):
    """Check that every token-valid R2 deletion of `code`, whether or not
    the surface check refuses it, keeps the writhe w and the engine's arrow
    specialization times (-A)^(-3w); returns (deletions, refused)."""
    sites = _token_valid_r2_sites(code)
    if not sites:
        return 0, 0
    arrow = minus_A_pow(-3 * writhe(code)) * engine_arrow(code)
    refused = 0
    for spec in sites:
        deleted = moves._r2_deleted(code, spec.site)
        refused += moves._piece_types(deleted) != moves._piece_types(code)
        assert writhe(deleted) == writhe(code), (serialize(code), spec)
        assert minus_A_pow(-3 * writhe(deleted)) * engine_arrow(deleted) == arrow, (serialize(code), spec)
    return len(sites), refused


def test_every_token_valid_r2_deletion_keeps_the_arrow_specialization():
    # R is an invariant of diagrams on a fixed surface, so `apply_move`
    # refuses an R2 deletion that changes it; the arrow specialization
    # weighs every curve delta, so no disk test enters it, and it survives
    # the refused deletions too
    found = [_r2_deletions_keep_the_arrow(code) for s in range(1, 7) for code in corpus_twisted(s, 40, 8)]
    assert tuple(map(sum, zip(*found))) == (33, 22)


def _refused_r2_deletions(code):
    """Each token-valid R2 deletion of `code` that the surface check
    refuses, as (serialized code, site, what R does): "equal", "delta" when
    one R is the other times delta, or "different"."""
    out = []
    for spec in _token_valid_r2_sites(code):
        deleted = moves._r2_deleted(code, spec.site)
        if moves._piece_types(deleted) == moves._piece_types(code):
            continue
        before, after = normalized(code), normalized(deleted)
        if before == after:
            how = "equal"
        elif after == delta() * before or before == delta() * after:
            how = "delta"
        else:
            how = "different"
        out.append((serialize(code), spec.site, how))
    return out


def test_refused_r2_deletions_sorted_by_what_r_does():
    # R is an invariant of diagrams on a fixed surface, and a refused
    # deletion changes the surface, so R may change.  On the corpus above
    # it keeps R on 12 of the 22, multiplies it by delta on 3 and changes it
    # otherwise on 7.  Each delta case deletes a whole component that is a
    # torus look-alike, leaving a bare loop on a sphere: the look-alike's one
    # uncancelled state curve runs around the torus, essential and weighed
    # 1, where the bare loop bounds a disk and weighs delta
    found = [r for s in range(1, 7) for code in corpus_twisted(s, 40, 8) for r in _refused_r2_deletions(code)]
    assert collections.Counter(how for *_r, how in found) == {"equal": 12, "delta": 3, "different": 7}
    named = {"O1+ O2-\nB U2- U1+": "equal", "O2- O1+ U2- U1+": "delta",
             "O1- O4+ B B U1- U2+ B U3- O3- U4+ O2+": "different"}
    for text, how in named.items():
        code = serialize(parse_code(text))
        assert {h for c, _site, h in found if c == code} == {how}, text
    assert _refused_r2_deletions(parse_code("O2- O1+ U2- U1+")) == [("O2- O1+ U2- U1+\n", (0, 0, 0, 2), "delta")]
    assert normalized(parse_code("O2- O1+ U2- U1+")) == 1 and normalized(parse_code("EMPTY")) == delta()


@given(poked_diagrams(kinds=("R2", "look-alike")))
@settings(max_examples=40, deadline=None)
def test_every_token_valid_r2_deletion_keeps_the_arrow_specialization_random(code):
    # R2 pokes, whose deletion keeps the surface, and torus look-alikes,
    # whose deletion would drop a handle
    assert _r2_deletions_keep_the_arrow(code)[0] > 0


def test_every_move_circle_runs_beside_a_cap_and_bounds_a_disk():
    """Why only R2 deletes are guarded, and only on the surface (the
    `moves` docstring): on every token-valid R2 site and every R3 site the
    move circle runs along the bands of one cap, so it bounds a disk, and
    every R3 rewrite keeps the surface and undoes itself at its site."""
    from polebracket.verify import (
        classical_fixtures, corpus_classical, corpus_twisted, twisted_fixtures,
    )

    bigons = collections.Counter()
    patterns = set()
    codes = [c for _n, c in twisted_fixtures() + classical_fixtures()]
    for code in codes + corpus_twisted(7, 40) + corpus_classical(8, 120):
        rs = build_ribbon(code)
        F = ClosedSurface(rs)
        for spec in _token_valid_r2_sites(code) + r3_sites(code):
            pairs = _site_pairs(code, spec.site)
            circle = _move_circle(rs, code.crossing_ids, pairs)
            assert F.bounds_disk(circle)
            assert circle.band_mask in F._cap_masks
            if spec.kind == "R2":
                parallel = pairs[0][0].crossing == pairs[1][0].crossing
                bigons["parallel" if parallel else "antiparallel"] += 1
                continue
            moved = apply_move(code, spec)
            assert moves._piece_types(moved) == moves._piece_types(code)
            assert apply_move(moved, spec) == code
            _anchors, strands = moves._r3_site_pattern(moves._components(code), spec.site)
            patterns.add(moves._canon_r3(strands))
    assert set(bigons) == {"parallel", "antiparallel"}, bigons
    assert patterns == moves._r3_table() and len(patterns) == 16


# -- T moves -----------------------------------------------------------------


def test_t1_round_trip_and_t2_identity():
    base = parse_code("O1+ U1+")
    barred = apply_move(base, MoveSpec("T1", "insert", (0, 1)))
    assert serialize(barred) == "O1+ B B U1+\n"
    sites = t1_delete_sites(barred)
    assert any(_same_diagram(apply_move(barred, s), base) for s in sites)
    assert apply_move(base, MoveSpec("T2", "rewrite", ())) == base


def test_t3_slide_swaps_roles_keeps_sign():
    code = parse_code("B O1+ B U1+")
    sites = t3_sites(code)
    assert sites
    moved = apply_move(code, sites[0])
    tokens = [t for c in moved.components for t in c]
    overs = [t for t in tokens if getattr(t, "over", None) is True]
    assert len(moved.crossing_ids) == 1
    assert all(t.sign == 1 for t in tokens if hasattr(t, "sign"))
    assert writhe(moved) == writhe(code)
    assert normalized(moved) == normalized(code)


def test_t3_turns_a_crossing_disk_over_and_keeps_the_surface():
    """The T3 slide toggles the flip of the four bands at its crossing disk,
    which turns the disk over (see `_t3_rewrite`); the surface stays."""
    from polebracket.moves import _piece_types
    from polebracket.verify import corpus_twisted, twisted_fixtures

    codes = [c for _n, c in twisted_fixtures()] + corpus_twisted(7, 200)
    sites = 0
    for code in codes:
        for spec in t3_sites(code):
            assert _piece_types(apply_move(code, spec)) == _piece_types(code)
            sites += 1
    assert sites == 73


def test_t3_requires_shared_crossing():
    code = parse_code("B O1+ B U2+ O2+ U1+")
    for spec in t3_sites(code):
        moved = apply_move(code, spec)
        assert normalized(moved) == normalized(code)
    with pytest.raises(MoveError):
        # bars adjacent to visits of different crossings
        apply_move(code, MoveSpec("T3", "rewrite", (0, 0, 1, 0, 2, 1)))


# -- harness ------------------------------------------------------------------


def test_insert_sites_sampling_is_seeded():
    code = parse_code("O1+ U1+")
    a = insert_sites(code, random.Random(5))
    b = insert_sites(code, random.Random(5))
    assert a == b
    kinds = {s.kind for s in a}
    assert {"R1+", "R1-", "R2", "T1", "T2"} <= kinds


@pytest.mark.parametrize(
    "spec, message",
    [
        (MoveSpec("R2", "insert", (0, 0), 9), "R2 insert needs a variant in 0..3, not 9"),
        (MoveSpec("R2", "insert", (0, 0), 4), "R2 insert needs a variant in 0..3, not 4"),
        (MoveSpec("R1+", "insert", (0, 0), -3), "R1+ insert needs a variant in 0..1, not -3"),
        (MoveSpec("R1-", "insert", (0, 0), 2), "R1- insert needs a variant in 0..1, not 2"),
        (MoveSpec("T1", "insert", (0, 0), 5), "T1 insert needs a variant in 0..0, not 5"),
        (MoveSpec("R1+", "delete", (0, 0), 1), "R1+ delete needs a variant in 0..0, not 1"),
        (MoveSpec("T2", "rewrite", (), 1), "T2 rewrite needs a variant in 0..0, not 1"),
        (MoveSpec("T2", "rewrite", (4, 4, 4)), "T2 needs a site of 0 integers"),
    ],
)
def test_variants_and_sites_a_move_does_not_take_are_rejected(spec, message):
    with pytest.raises(MoveError) as exc:
        apply_move(parse_code("O1+ U1+"), spec)
    assert str(exc.value) == message


def test_unknown_move_rejected():
    with pytest.raises(MoveError):
        apply_move(parse_code("EMPTY"), MoveSpec("R9", "insert", (0, 0)))
    with pytest.raises(MoveError):
        apply_move(parse_code("EMPTY"), MoveSpec("R2", "rewrite", ()))


# -- pinned move layer ----------------------------------------------------------

# small codes that reach every MoveError message: empty, bare loops, kinks,
# the torus and detour look-alikes of an R2 pair, a cyclic R3 pattern, a
# four-crossing code, barred kinks and a two-component code
_PROBE_CODES = (
    "EMPTY",
    "B",
    "B B",
    "O1+ U1+",
    "O1+ O2+ U1+ U2+",
    "U1+ U2- O2- O1+",
    "U1+ U2- O1+ O2-",
    "O1+ U3+ U2- U1+ O2- O3+",
    "O1+ O2- O3+ U1+ U2- U3+",
    "O1+ U3+ O2+ U1+ O3+ U2+",
    "O1+ O2+ O3+ O4+ U1+ U2+ U3+ U4+",
    "B O1+ B U1+",
    "B O1+ U1+ B",
    "B O1+ B U2+ O2+ U1+",
    "O1+ U2- B;B O2- U1+",
)


def _probe_specs(code):
    """Every spec of the right shape over a small code, in range and out,
    plus sites of the wrong length and unknown kinds and directions."""
    anchors = [(ci, p) for ci in range(-1, len(code.components) + 1) for p in range(-1, 8)]
    inside = [(ci, p) for ci, comp in enumerate(code.components) for p in range(len(comp))]
    specs = []
    for site in anchors:
        for kind, variants in (("R1+", 2), ("R1-", 2), ("R2", 4), ("T1", 1)):
            specs += [MoveSpec(kind, "insert", site, v) for v in range(variants)]
        for kind in ("R1+", "R1-", "T1"):
            specs.append(MoveSpec(kind, "delete", site))
    for a, b in itertools.product(inside, repeat=2):
        specs.append(MoveSpec("R2", "delete", a + b))
    for trio in itertools.combinations(inside, 3):
        specs.append(MoveSpec("R3", "rewrite", sum(trio, ())))
    legs = [(ci, p, att) for ci, p in inside for att in (1, -1, 2)]
    for a, b in itertools.product(legs, repeat=2):
        specs.append(MoveSpec("T3", "rewrite", a + b))
    for kind, direction, length in (
        ("R1+", "insert", 1), ("R1-", "delete", 3), ("R2", "insert", 0),
        ("R2", "delete", 2), ("R3", "rewrite", 5), ("T1", "insert", 3),
        ("T1", "delete", 1), ("T3", "rewrite", 7),
    ):
        specs.append(MoveSpec(kind, direction, (0,) * length))
    specs.append(MoveSpec("R1+", "insert", (0, "0")))
    specs.append(MoveSpec("R3", "rewrite", (0, 0, 0, 1, 0, 2.0)))
    specs += [MoveSpec("T2", "rewrite", ()), MoveSpec("R9", "insert", (0, 0))]
    for kind, direction in (("R1+", "rewrite"), ("R2", "rewrite"), ("R3", "delete"),
                            ("T1", "rewrite"), ("T2", "insert"), ("T3", "delete"),
                            ("R2", "sideways")):
        specs.append(MoveSpec(kind, direction, (0, 0)))
    return specs


def _move_layer_dump():
    """Every enumerator's site list, every moved code and every rejection
    message, over the fixtures, a twisted corpus sample and the probes."""
    from polebracket.verify import classical_fixtures, corpus_twisted, twisted_fixtures

    codes = [c for _n, c in twisted_fixtures() + classical_fixtures()] + corpus_twisted(16, 24)
    lines = []

    def apply(code, spec):
        try:
            lines.append(f"  {spec} = {serialize(apply_move(code, spec))!r}")
        except MoveError as e:
            lines.append(f"  {spec} ! {e}")

    for i, code in enumerate(codes):
        lines.append(f"code {serialize(code)!r}")
        for enum in (r1_delete_sites, r2_delete_sites, r3_sites, t1_delete_sites, t3_sites):
            lines.append(f" {enum.__name__}")
            for spec in enum(code):
                apply(code, spec)
        lines.append(" insert_sites")
        for spec in insert_sites(code, random.Random(i)):
            apply(code, spec)
    for text in _PROBE_CODES:
        code = parse_code(text.replace(";", "\n"))
        lines.append(f"probe {serialize(code)!r}")
        for spec in _probe_specs(code):
            apply(code, spec)
    return "\n".join(lines) + "\n"


def test_move_layer_pinned():
    dump = _move_layer_dump()
    assert hashlib.sha256(dump.encode("utf-8")).hexdigest() == (
        "2d2cdb9c5a6653dd4e456846a9c4f28fc33df20b7a73a7dddd7c3e7999d421c2"
    )


def _battery_moves(batteries):
    """Every site the `check` battery's move sweep draws, with its moved
    code or its rejection, over the twisted corpora of the given (seed,
    count) batteries, drawn with one `Random(seed)` per battery as the
    sweep draws them."""
    from polebracket.verify import all_move_sites, corpus_twisted

    lines = []
    for seed, count in batteries:
        rng = random.Random(seed)
        for code in corpus_twisted(seed, count):
            for spec in all_move_sites(code, rng):
                try:
                    lines.append(f"{spec} = {serialize(apply_move(code, spec))!r}")
                except MoveError as e:
                    lines.append(f"{spec} ! {e}")
    return lines


@pytest.mark.parametrize("batteries, sites, digest", [
    # the bench's `check` pool, seeds 0-119 at count 2
    ([(seed, 2) for seed in range(120)], 4996,
     "234861a76938957e8c9f60caaf941dfac32dc3df0bddf61dffabc6981d2d5c19"),
    # `check --seed 3 --count 6`, whose six lines CI compares
    ([(3, 6)], 126, "19976649fc46996590978a09da237df2f06eb7333b3c191ecea104626f5d36c8"),
], ids=["check-pool", "seed-3-count-6"])
def test_check_battery_moves_pinned(batteries, sites, digest):
    # an insert takes the next crossing id past the largest one a visit
    # carries; the moved codes are the ones first recorded
    lines = _battery_moves(batteries)
    assert len(lines) == sites
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == digest


def _accepted_r2_deletes(code):
    """The R2 deletions of `code` that `apply_move` accepts, over every pair
    of adjacent two-crossing pairs: the sweep's reference."""
    pairs = [
        (ci, i) for ci, comp in enumerate(code.components) for i in range(len(comp))
        if len(comp) >= 2
    ]
    out = []
    for (c1, p1), (c2, p2) in itertools.combinations(pairs, 2):
        spec = MoveSpec("R2", "delete", (c1, p1, c2, p2))
        try:
            apply_move(code, spec)
        except MoveError:
            continue
        out.append(spec)
    return out


def test_r2_sweep_offers_what_r2_delete_takes(monkeypatch):
    from polebracket.verify import corpus_classical, corpus_twisted, twisted_fixtures

    codes = [code for _n, code in twisted_fixtures()] + corpus_twisted(7, 40) + corpus_classical(8, 40)
    codes += [parse_code(t) for t in ("O1+ U2+ U3- U1+ O2+ O3-", "U1+ U2- O1+ O2-", "O1+ U3+ U2- U1+ O2- O3+")]
    expect = [_accepted_r2_deletes(code) for code in codes]
    real = moves._r2_delete
    verdicts = []

    def recording(code, site, variant):
        try:
            result = real(code, site, variant)
        except MoveError as exc:
            verdicts.append((site, str(exc)))
            raise
        verdicts.append((site, None))
        return result

    monkeypatch.setattr(moves, "_r2_delete", recording)
    refused_by_surface = 0
    for code, accepted in zip(codes, expect):
        verdicts.clear()
        sites = r2_delete_sites(code)
        assert sites == accepted
        # the sweep keeps exactly the token candidates the handler takes
        assert [spec.site for spec in sites] == [site for site, refusal in verdicts if refusal is None]
        refused_by_surface += sum(refusal == "rewrite would change the realization surface" for _s, refusal in verdicts)
    # the surface verdict reaches the sweep through the handler alone
    assert refused_by_surface
    # apply_move still compares the input's surface with the result's, and
    # refuses a deletion that would change it
    with pytest.raises(MoveError, match="rewrite would change the realization surface"):
        apply_move(parse_code("U1+ U2- O1+ O2-"), MoveSpec("R2", "delete", (0, 0, 0, 2)))


# -- the surface pole bracket under moves -------------------------------------
#
# `check` compares only R, which forgets every homology class and separation
# flag.  Here the surface pole bracket itself is compared before and after
# each move site.  The two surfaces number their homology bases
# independently, so each signature is projected basis-free first.


def _z2_rank(classes) -> int:
    rows = {}
    for v in classes:
        while v and v.bit_length() in rows:
            v ^= rows[v.bit_length()]
        if v:
            rows[v.bit_length()] = v
    return len(rows)


@functools.cache
def _basis_free(sig) -> frozenset:
    """The multiset, over every non-empty subset of a signature's curves, of
    (the subset's sorted (index, mobius, separating) entries, the Z/2 rank
    of its classes).  No change of homology basis moves it."""
    curves = [((idx, mob, sep), int("".join(map(str, hom)) or "0", 2)) for idx, mob, sep, hom in sig]
    out = collections.Counter()
    for mask in range(1, 1 << len(curves)):
        subset = [curve for i, curve in enumerate(curves) if mask >> i & 1]
        out[tuple(sorted(e for e, _h in subset)), _z2_rank(h for _e, h in subset)] += 1
    return frozenset(out.items())


def _projected_bracket(code):
    """The surface pole bracket times (-A)^(-3 writhe), its coefficients
    summed by the `_basis_free` projection of their signatures; None when
    the engine refuses a curve."""
    shift = minus_A_pow(-3 * writhe(code))
    try:
        classes = surface_pole_bracket(code).classes
    except AssertionError:
        return None
    out = collections.defaultdict(MultiLaurent)
    for sig, coeff in classes.items():
        out[_basis_free(sig)] += coeff * shift
    return {key: value for key, value in out.items() if value}


def _triangle_braids(rng, count):
    """Braid closures of two triangles s_i s_j s_i (|i - j| = 1), on 3 or 4
    strands: R3 sites."""
    out = []
    for _ in range(count):
        strands = rng.randrange(3, 5)
        word = []
        for _ in range(2):
            i = rng.randrange(1, strands - 1)
            j = i + 1 if rng.randrange(2) else i
            e = rng.choice((1, -1))
            f = e if rng.random() < 0.7 else -e
            word += [(j, e), (2 * i + 1 - j, f), (j, e)]
        out.append(braid_closure(word, strands))
    return out


def _barred_kink_sums():
    """Every connected sum of two barred kinks, each on RP^2, so the sum is
    on a Klein bottle: T3 sites.  Half of them have a state curve of two
    chords, the neck, that cuts the Klein bottle into two Mobius bands:
    two-sided and class 0, yet it bounds no disk."""
    kinks = [kink.format("{0}", sign) for kink in ("B O{0}{1} B U{0}{1}", "B U{0}{1} B O{0}{1}",
                                                   "O{0}{1} B U{0}{1} B") for sign in "+-"]
    return [parse_code(f"{a.format(1)} {b.format(2)}") for a, b in itertools.product(kinks, repeat=2)]


def test_surface_pole_bracket_is_invariant_under_every_move_site():
    from polebracket.verify import all_move_sites, classical_fixtures, corpus_twisted, twisted_fixtures

    rng = random.Random(33)
    codes = [code for _n, code in twisted_fixtures() + classical_fixtures()]
    codes += [code for s in (1, 2, 3) for code in corpus_twisted(s, 60, 7)]
    codes += _triangle_braids(rng, 24) + _barred_kink_sums()
    kinds, failures = collections.Counter(), []
    for code in codes:
        before = _projected_bracket(code)
        # equal ribbons have equal brackets and writhes, so each distinct
        # moved ribbon is summed once
        seen = {build_ribbon(code): before}
        for spec in all_move_sites(code, rng):
            kinds[spec.kind] += 1
            moved = apply_move(code, spec)
            ribbon = build_ribbon(moved)
            if ribbon not in seen:
                seen[ribbon] = _projected_bracket(moved)
            if before is None or seen[ribbon] != before:
                failures.append((serialize(code), spec))
    assert not failures, f"{len(failures)} of {kinds.total()} moves: {failures[:3]}"
    # every kind of move is met often: the braids give R3 sites (the corpora
    # alone give 17), and the kink sums T3 sites
    assert min(kinds.values()) >= 80 and len(kinds) == 7, kinds
