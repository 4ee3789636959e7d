"""R2 bigons, which the brackets' state sums trace on their through pair
alone.

The engine's bigons are checked against the move code: they are disjoint
crossing pairs of R2 deletions that `apply_move` takes, and every such
deletion meets one of them.  Folded and unfolded sums must give the same
polynomials over any range and the same `bracket`, `bracket --json`,
`dbracket` and `invariant` bytes at 1, 2 and 3 workers; a folded full sum
holds 2^(c - 2 pairs) states.  The alternating bigons of the trefoil and
the torus look-alike `U1+ U2- O1+ O2-`, whose deletion would drop a handle,
are not folded.
"""

import contextlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets, cli, states
from polebracket.codes import parse_code, serialize
from polebracket.moves import apply_move, insert_sites, r2_delete_sites, t1_delete_sites
from polebracket.surfaces import build_ribbon, realize
from polebracket.verify import classical_fixtures, corpus_twisted, twisted_fixtures

from reference import bracket_of, by_signature, double_of
from test_reference_engine import FIXTURES, count_every_state, diagrams, pickling_pool

# the poke unknot in each of its four variants (`moves._poke`), and the
# torus look-alike
POKES = ["U1+ U2- O2- O1+", "O1+ O2- U2- U1+", "U1- U2+ O2+ O1-", "O1- O2+ U2+ U1-"]
LOOK_ALIKE = "U1+ U2- O1+ O2-"


@st.composite
def poked_diagrams(draw, max_crossings=5):
    """`diagrams` with c <= max_crossings, then one or two R2 pokes inserted
    at seeded gaps, in any variant, so c <= max_crossings + 4."""
    code = draw(diagrams(max_crossings=max_crossings))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        code = apply_move(code, next(s for s in insert_sites(code, rng) if s.kind == "R2"))
    return code


def poked_corpus():
    """The fixtures, and `corpus_twisted(s, 40, 6)` for s = 1-3 with one or
    two seeded R2 pokes each."""
    codes = [parse_code(t) for t in FIXTURES + POKES + [LOOK_ALIKE]]
    codes += [code for _n, code in classical_fixtures() + twisted_fixtures()]
    rng = random.Random(34)
    for s in range(1, 4):
        for code in corpus_twisted(s, 40, 6):
            for _ in range(rng.randrange(1, 3)):
                code = apply_move(code, next(sp for sp in insert_sites(code, rng) if sp.kind == "R2"))
            codes.append(code)
    return codes


def _bar_free(code):
    """`code` with each pair of bars on a band deleted (T1), which keeps its
    ribbon: `r2_delete_sites` reads adjacent tokens, the engine the ribbon."""
    while sites := t1_delete_sites(code):
        code = apply_move(code, sites[0])
    return code


def assert_bigons_are_disjoint_r2_sites(code):
    # the engine's pairs are crossing pairs of R2 deletions that keep the
    # surface, no two share a crossing, and every such deletion meets one
    # of them: where deletions overlap (a chain x, y, z of two bigons), the
    # engine folds one.  Returns the number of pairs
    F = realize(code)
    bare = _bar_free(code)
    assert build_ribbon(bare) == F.ribbon
    disk = {cid: k for k, cid in enumerate(bare.crossing_ids)}
    sites = set()
    for spec in r2_delete_sites(bare):
        ci, pos = spec.site[:2]
        comp = bare.components[ci]
        sites.add(frozenset((disk[comp[pos].crossing], disk[comp[(pos + 1) % len(comp)].crossing])))
    pairs = [frozenset((x, y)) for x, _tx, y, _ty in states._Engine(F).bigons]
    covered = set().union(*pairs)
    assert set(pairs) <= sites and len(covered) == 2 * len(pairs), serialize(code)
    assert all(site & covered for site in sites), serialize(code)
    return len(pairs)


def test_bigons_are_disjoint_r2_sites():
    codes = poked_corpus()
    folded = [assert_bigons_are_disjoint_r2_sites(code) for code in codes]
    assert sum(folded) > 150, sum(folded)
    # every poke of the corpus is folded, or overlaps a folded bigon
    assert sum(1 for n in folded if n) > 120


@given(poked_diagrams(max_crossings=7))
@settings(max_examples=60, deadline=None)
def test_bigons_are_disjoint_r2_sites_random(code):
    assert assert_bigons_are_disjoint_r2_sites(code) > 0


def test_premise_refuses_look_alikes():
    # one strand over at both crossings, signs opposite, and a two-corner
    # cap whose opposite corners lie on different caps
    for text in POKES:
        assert len(states._Engine(realize(parse_code(text))).bigons) == 1, text
    # bars in pairs leave the bands unflipped; one bar flips them
    assert len(states._Engine(realize(parse_code("U1+ B B U2- O2- O1+"))).bigons) == 1
    assert not states._Engine(realize(parse_code("U1+ B U2- O2- B O1+"))).bigons
    # on the torus the bigon's opposite corners lie on one cap
    assert not states._Engine(realize(parse_code(LOOK_ALIKE))).bigons
    # alternating bigons: the trefoil's three, and two equal signs
    trefoil = dict(classical_fixtures())["trefoil"]
    assert not states._Engine(realize(trefoil)).bigons
    assert not states._Engine(realize(parse_code("U1+ U2+ O2+ O1+"))).bigons


def test_a_kink_inside_a_folded_bigon_is_not_spread():
    # O x O y U y U x alone: both crossings are kinks inside the bigon.
    # Folded, one state is traced and none is spread; with a bit fixed, the
    # other crossing's kink folds as a kink, and every state is counted
    for text in POKES:
        code = parse_code(text)
        F = realize(code)
        eng = states._engine(F)
        assert len(eng.kinks) == 2 and len(eng.bigons) == 1
        full = states.sum_counts(F, 0, 4, False)
        folded = states.sum_counts(F, 0, 4, True)
        assert folded.states() == 1 and full.states() == 4
        assert bracket_of(by_signature(folded)) == bracket_of(by_signature(full))
        for lo, hi in ((0, 2), (2, 4), (1, 3)):
            assert by_signature(states.sum_counts(F, lo, hi, True)) == by_signature(states.sum_counts(F, lo, hi, False))


def assert_fold_keeps_polynomials(code, lo, hi):
    n = 1 << len(code.crossing_ids)
    eng = states._engine(realize(code))
    full = by_signature(states.sum_counts(realize(code), 0, n, False))
    folded = states.sum_counts(realize(code), 0, n, True)
    assert folded.states() == n >> 2 * len(eng.bigons), serialize(code)
    assert bracket_of(by_signature(folded)) == bracket_of(full), serialize(code)
    assert double_of(by_signature(folded)) == double_of(full), serialize(code)
    # a range folds the bigons whose bits its blocks leave free
    part = by_signature(states.sum_counts(realize(code), lo, hi, True))
    whole = by_signature(states.sum_counts(realize(code), lo, hi, False))
    assert bracket_of(part) == bracket_of(whole), (serialize(code), lo, hi)
    assert sum(part.values()) <= sum(whole.values())


def test_fold_keeps_polynomials_on_the_corpus():
    rng = random.Random(7)
    for code in poked_corpus():
        n = 1 << len(code.crossing_ids)
        lo = rng.randrange(n + 1)
        assert_fold_keeps_polynomials(code, lo, rng.randrange(lo, n + 1))


def _cli_text(code, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "-i", serialize(code)]) == 0
    return out.getvalue()


@given(st.one_of(poked_diagrams(), diagrams(max_crossings=9)), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_folding_bigons_keeps_every_output_byte(code, workers, data):
    # c <= 9, bars <= 4, 1-3 components; worker tables come back through
    # pickle in this process
    n = 1 << len(code.crossing_ids)
    lo = data.draw(st.integers(min_value=0, max_value=n))
    assert_fold_keeps_polynomials(code, lo, data.draw(st.integers(min_value=lo, max_value=n)))
    argv = ("--workers", str(workers))
    for cmd in (["bracket"], ["bracket", "--json"], ["dbracket"], ["invariant"]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("concurrent.futures.ProcessPoolExecutor", pickling_pool([]))
            folded = _cli_text(code, *cmd, *argv)
            count_every_state(mp)
            assert _cli_text(code, *cmd, *argv) == folded, (serialize(code), cmd, workers)


def test_the_move_sweep_folds_every_poke():
    # each R2 insert the sweep sums has its new bigon folded, or one that
    # overlaps it, so the moved sum traces at most a quarter of its states
    rng = random.Random(3)
    checked = 0
    for code in corpus_twisted(3, 30):
        for spec in insert_sites(code, rng):
            if spec.kind != "R2":
                continue
            moved = apply_move(code, spec)
            table = states.sum_counts(realize(moved), 0, 1 << len(moved.crossing_ids), True)
            assert table.states() <= 1 << len(moved.crossing_ids) - 2, (serialize(code), spec)
            checked += 1
    assert checked == 6 * 30


def test_folded_worker_ranges_merge_to_the_same_brackets():
    # real worker processes: ranges whose high bits split a bigon trace it
    # as it stands, and the merged polynomials still agree
    code = parse_code("O1+ O3+ O4- U4- U3+ O2+ U1+ U2+ O5- O6+ U6+ U5-")
    assert len(states._engine(realize(code)).bigons) == 2
    texts = {w: _cli_text(code, "bracket", "--workers", str(w)) for w in (1, 2, 3)}
    with pytest.MonkeyPatch.context() as mp:
        count_every_state(mp)
        texts[0] = _cli_text(code, "bracket")
    assert len(set(texts.values())) == 1, texts
