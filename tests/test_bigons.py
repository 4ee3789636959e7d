"""Bigons, which the brackets' state sums fold: an R2 bigon is traced on
its through pair alone, an alternating one on x's through choice and both
of y's, with y's turned-back states spread.

The engine's bigons are two unflipped bands around a two-corner cap, on
disjoint crossing pairs.  Its R2 bigons whose deletion keeps the surface
are crossing pairs of R2 deletions that `apply_move` takes, and every such
deletion meets a bigon.  The torus look-alike `U1+ U2- O1+ O2-`, whose
deletion would drop a handle, folds as an R2 bigon too, and so do the
alternating bigons of the trefoil and of a sigma^2 twist.  Folded and
unfolded sums must give the same polynomials over any range and the same
`bracket`, `bracket --json`, `dbracket` and `invariant` bytes at 1, 2 and 3
workers; a folded full sum holds 2^(c - 2 R2 pairs) states.
"""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets, cli, states
from polebracket.codes import Visit, make_code, parse_code, serialize
from polebracket.moves import apply_move, insert_sites, r2_delete_sites, t1_delete_sites
from polebracket.surfaces import build_ribbon, realize
from polebracket.verify import braid_closure, classical_fixtures, corpus_twisted, twisted_fixtures

from arrow import arrow_bracket
from reference import bracket_of, by_signature, double_of
from test_arrow import engine_arrow
from test_reference_engine import FIXTURES, count_every_state, diagrams, pickling_pool

# the poke unknot in each of its four variants (`moves._poke`), and the
# torus look-alike
POKES = ["U1+ U2- O2- O1+", "O1+ O2- U2- U1+", "U1- U2+ O2+ O1-", "O1- O2+ U2+ U1-"]
LOOK_ALIKE = "U1+ U2- O1+ O2-"
# an alternating bigon on the two top crossings, 9 and 10, and a
# look-alike on 7 and 8, which worker ranges split
TWIST = "O3- U1+ U6+ U2- O2- O1+ O9+ U10+ O4+ O5+ U3- U9+ O10+ U4+ U5+ B O6+ U7+ U8- O7+ O8- B"
# alternating bigons with a kink on each crossing, which fold as kinks
KINKED = ["O1+ B B U1+ O2+ U2+ B B", "U3+ O3+ U2+ B U5- O2+ O5- O4+ O6+ U1+ O1+ U6+ U4+"]


def bigons(eng):
    """The engine's bigons, read off its fold plan, as (x, through bit, y,
    through bit, alternating), the R2 bigons first."""
    return [b + (False,) for b in eng.plan.r2] + [b + (True,) for b in eng.plan.alternating]


def twisted(code, rng, sign=None):
    """`code` with a sigma^(+-2) twist between two strands at seeded gaps:
    one strand gains O a, U b and another U a, O b, both of one sign, which
    is drawn unless given."""
    comps = [list(comp) for comp in code.components]
    a = max(code.crossing_ids, default=0) + 1
    sign = sign or rng.choice((1, -1))
    for over in (True, False):
        comp = rng.choice(comps)
        g = rng.randrange(len(comp) + 1)
        comp[g:g] = [Visit(a, over, sign), Visit(a + 1, not over, sign)]
    return make_code(comps)


def look_alike_in(code, rng):
    """`code` with the torus look-alike U x+ U y- O x+ O y- inserted in one
    strand at a seeded gap."""
    comps = [list(comp) for comp in code.components]
    x = max(code.crossing_ids, default=0) + 1
    comp = rng.choice(comps)
    g = rng.randrange(len(comp) + 1)
    comp[g:g] = [Visit(x, False, 1), Visit(x + 1, False, -1), Visit(x, True, 1), Visit(x + 1, True, -1)]
    return make_code(comps)


@st.composite
def poked_diagrams(draw, max_crossings=5, kinds=("R2",)):
    """`diagrams` with c <= max_crossings, then one or two R2 pokes, or
    with `kinds` also sigma^(+-2) twists or look-alikes, inserted at seeded
    gaps, so c <= max_crossings + 4."""
    code = draw(diagrams(max_crossings=max_crossings))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        kind = draw(st.sampled_from(kinds))
        if kind == "R2":
            code = apply_move(code, next(s for s in insert_sites(code, rng) if s.kind == "R2"))
        elif kind == "twist":
            code = twisted(code, rng)
        else:
            code = look_alike_in(code, rng)
    return code


def poked_corpus():
    """The fixtures, `corpus_twisted(s, 40, 6)` for s = 1-3 with one or two
    seeded R2 pokes each, and for s = 4-5 with a sigma^(+-2) twist or a
    look-alike."""
    codes = [parse_code(t) for t in FIXTURES + POKES + [LOOK_ALIKE] + KINKED]
    codes += [code for _n, code in classical_fixtures() + twisted_fixtures()]
    codes += [braid_closure([(1, e)] * n, 2) for n in range(2, 7) for e in (1, -1)]
    rng = random.Random(34)
    for s in range(1, 4):
        for code in corpus_twisted(s, 40, 6):
            for _ in range(rng.randrange(1, 3)):
                code = apply_move(code, next(sp for sp in insert_sites(code, rng) if sp.kind == "R2"))
            codes.append(code)
    for code in corpus_twisted(4, 40, 6):
        codes.append(twisted(code, rng))
    for code in corpus_twisted(5, 40, 6):
        codes.append(look_alike_in(code, rng))
    return codes


def _bar_free(code):
    """`code` with each pair of bars on a band deleted (T1), which keeps its
    ribbon: `r2_delete_sites` reads adjacent tokens, the engine the ribbon."""
    while sites := t1_delete_sites(code):
        code = apply_move(code, sites[0])
    return code


def assert_bigons_are_disjoint_r2_sites(code):
    # no two of the engine's pairs share a crossing; its R2 pairs whose
    # opposite corners at x and y lie on different caps are crossing pairs
    # of R2 deletions that keep the surface, and every such deletion meets
    # one of the pairs: where deletions overlap (a chain x, y, z of two
    # bigons), the engine folds one.  An R2 pair has opposite signs, an
    # alternating one equal signs.  Returns the number of pairs
    F = realize(code)
    bare = _bar_free(code)
    assert build_ribbon(bare) == F.ribbon
    disk = {cid: k for k, cid in enumerate(bare.crossing_ids)}
    sites = set()
    for spec in r2_delete_sites(bare):
        ci, pos = spec.site[:2]
        comp = bare.components[ci]
        sites.add(frozenset((disk[comp[pos].crossing], disk[comp[(pos + 1) % len(comp)].crossing])))
    eng = states._Engine(F)
    rot, succ, cap = F.ribbon.rotations, F._succ, F._corner_cap
    sign = {k: rot[k][1] >> 1 & 1 for k in range(F.ribbon.n_crossings)}
    pairs = [frozenset((x, y)) for x, _tx, y, _ty, _alt in bigons(eng)]
    covered = set().union(*pairs)
    assert len(covered) == 2 * len(pairs), serialize(code)
    keeps = 0
    for x, _tx, y, _ty, alternating in bigons(eng):
        assert (sign[x] == sign[y]) == alternating, serialize(code)
        if alternating:
            continue
        # the bigon's corner (d, e = succ d) at x, and the corners opposite
        # it at x and y, succ e and succ(other d)
        other = [band[0] for band in F.ribbon.band_at]
        d = next(d for d in range(4 * x, 4 * x + 4) if succ[other[succ[d]]] == other[d] and other[d] >> 2 == y)
        if cap[succ[succ[d]]] != cap[succ[other[d]]]:
            assert frozenset((x, y)) in sites, serialize(code)
            keeps += 1
    assert all(site & covered for site in sites), serialize(code)
    return len(pairs), keeps


def test_bigons_are_disjoint_r2_sites():
    codes = poked_corpus()
    folded = [assert_bigons_are_disjoint_r2_sites(code) for code in codes]
    assert sum(n for n, _k in folded) > 250, folded
    # every poke of the corpus is folded, or overlaps a folded bigon; most
    # folded R2 bigons are deletion sites, and some are look-alikes
    assert sum(1 for n, _k in folded if n) > 200
    r2 = sum(len([b for b in bigons(states._Engine(realize(code))) if not b[4]]) for code in codes)
    assert 100 < sum(k for _n, k in folded) < r2 < sum(n for n, _k in folded) - 50, (folded, r2)


@given(poked_diagrams(max_crossings=7))
@settings(max_examples=60, deadline=None)
def test_bigons_are_disjoint_r2_sites_random(code):
    assert assert_bigons_are_disjoint_r2_sites(code)[0] > 0


def _kinds(text):
    """(R2 pairs, alternating pairs, kinks) of a code's engine."""
    eng = states._Engine(realize(parse_code(text)))
    alternating = sum(alt for *_b, alt in bigons(eng))
    return len(bigons(eng)) - alternating, alternating, len(eng.kinks)


def test_premise_folds_look_alikes_and_alternating_bigons():
    # one strand over at both crossings, signs opposite, and a two-corner
    # cap: an R2 bigon, and each crossing a kink inside it
    for text in POKES:
        assert _kinds(text) == (1, 0, 2), text
    # bars in pairs leave the bands unflipped; one bar flips them
    assert _kinds("U1+ B B U2- O2- O1+") == (1, 0, 2)
    assert _kinds("U1+ B U2- O2- B O1+")[:2] == (0, 0)
    # on the torus the bigon's opposite corners lie on one cap: its
    # deletion would drop a handle, but the state sum folds it all the same
    assert _kinds(LOOK_ALIKE) == (1, 0, 0)
    # alternating bigons: the trefoil's three share crossings, so one folds;
    # a sigma^2 twist region of n crossings folds n // 2
    assert _kinds(serialize(dict(classical_fixtures())["trefoil"])) == (0, 1, 0)
    for n in range(2, 8):
        assert _kinds(serialize(braid_closure([(1, 1)] * n, 2)))[:2] == (0, n // 2), n
    # equal signs with bands over and under at both ends: neither kind
    assert _kinds("U1+ U2+ O2+ O1+")[:2] == (0, 0)
    # a kink on an alternating bigon's crossing folds as a kink, and the
    # bigon is traced as it stands
    for text in KINKED:
        eng = states._Engine(realize(parse_code(text)))
        assert not any(alt for *_b, alt in bigons(eng)) and len(eng.kinks) >= 2, text


def test_a_kink_inside_a_folded_bigon_is_not_spread():
    # O x O y U y U x alone: both crossings are kinks inside the bigon.
    # Folded, one state is traced and none is spread; with a bit fixed, the
    # other crossing's kink folds as a kink, and every state is counted
    for text in POKES:
        code = parse_code(text)
        F = realize(code)
        eng = states._engine(F)
        assert len(eng.kinks) == 2 and len(bigons(eng)) == 1
        full = states.sum_counts(F, 0, 4, False)
        folded = states.sum_counts(F, 0, 4, True)
        assert sum(by_signature(folded).values()) == 1 and sum(by_signature(full).values()) == 4
        assert bracket_of(by_signature(folded)) == bracket_of(by_signature(full))
        for lo, hi in ((0, 2), (2, 4), (1, 3)):
            assert by_signature(states.sum_counts(F, lo, hi, True)) == by_signature(states.sum_counts(F, lo, hi, False))


def test_alternating_folds_count_every_state():
    # an alternating bigon's three turned-back states share one signature:
    # the traced one counts twice at its own key and once at one more disk
    # circle and one B-splice more or less, so a sum that folds only kinks
    # and alternating bigons has the unfolded table, key for key, on every
    # range, at half the traced leaves per bigon
    rng = random.Random(39)
    codes = [braid_closure([(1, e)] * n, 2) for n in range(2, 9) for e in (1, -1)]
    codes += [parse_code(text) for text in KINKED]
    codes += [twisted(code, rng) for code in corpus_twisted(39, 60, 6)]
    codes += [twisted(twisted(code, rng, 1), rng, -1) for code in corpus_twisted(40, 30, 4)]
    folded = {0: 0, 1: 0}
    for code in codes:
        F = realize(code)
        eng = states._engine(F)
        if any(not alt for *_b, alt in bigons(eng)):
            continue
        for _x, tx, _y, _ty, _alt in bigons(eng):
            folded[tx] += 1
        n = 1 << F.ribbon.n_crossings
        lo = rng.randrange(n + 1)
        for a, b in ((0, n), (lo, rng.randrange(lo, n + 1))):
            assert by_signature(states.sum_counts(F, a, b, True)) == by_signature(states.sum_counts(F, a, b, False)), \
                (serialize(code), a, b)
    # both through bits occur, so both spread directions are checked
    assert min(folded.values()) > 20, folded


def assert_fold_keeps_polynomials(code, lo, hi):
    n = 1 << len(code.crossing_ids)
    eng = states._engine(realize(code))
    full = by_signature(states.sum_counts(realize(code), 0, n, False))
    folded = states.sum_counts(realize(code), 0, n, True)
    r2 = sum(1 for *_b, alt in bigons(eng) if not alt)
    assert sum(by_signature(folded).values()) == n >> 2 * r2, serialize(code)
    assert bracket_of(by_signature(folded)) == bracket_of(full), serialize(code)
    assert double_of(by_signature(folded)) == double_of(full), serialize(code)
    # the double bracket and R, folded off the leaf keys, with and without
    # the fold
    for normalize in (False, True):
        got = brackets._double(states.sum_counts(realize(code), 0, n, True, "double"), normalize)
        assert got == brackets._double(states.sum_counts(realize(code), 0, n, False, "double"), normalize)
    # a range folds the bigons whose bits its blocks leave free
    part = by_signature(states.sum_counts(realize(code), lo, hi, True))
    whole = by_signature(states.sum_counts(realize(code), lo, hi, False))
    assert bracket_of(part) == bracket_of(whole), (serialize(code), lo, hi)
    assert sum(part.values()) <= sum(whole.values())
    part = states.sum_counts(realize(code), lo, hi, True, "double")
    whole = states.sum_counts(realize(code), lo, hi, False, "double")
    assert brackets._double(part, True) == brackets._double(whole, True), (serialize(code), lo, hi)


def test_fold_keeps_polynomials_on_the_corpus():
    rng = random.Random(7)
    for code in poked_corpus():
        n = 1 << len(code.crossing_ids)
        lo = rng.randrange(n + 1)
        assert_fold_keeps_polynomials(code, lo, rng.randrange(lo, n + 1))


def test_twists_and_look_alikes_match_the_arrow_oracle():
    # the surface-free oracle sums every state of the Gauss code: the
    # engine's arrow specialization must agree where it folds look-alikes
    # and alternating bigons, kinked ones included
    rng = random.Random(8)
    codes = [parse_code(text) for text in KINKED + [LOOK_ALIKE]]
    codes += [braid_closure([(1, e)] * n, 2) for n in range(2, 7) for e in (1, -1)]
    codes += [twisted(code, rng) for code in corpus_twisted(8, 40, 5)]
    codes += [look_alike_in(code, rng) for code in corpus_twisted(9, 40, 5)]
    kinds = {False: 0, True: 0}
    for code in codes:
        for *_b, alt in bigons(states._engine(realize(code))):
            kinds[alt] += 1
        assert engine_arrow(code) == arrow_bracket(code), serialize(code)
    assert min(kinds.values()) > 30, kinds


def _cli_text(code, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "-i", serialize(code)]) == 0
    return out.getvalue()


@given(st.one_of(poked_diagrams(kinds=("R2", "twist", "look-alike")), diagrams(max_crossings=9)),
       st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_folding_bigons_keeps_every_output_byte(code, workers, data):
    # c <= 9, bars <= 4, 1-3 components, R2 pokes, sigma^(+-2) twists and
    # look-alikes; worker tables come back through pickle in this process
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
            assert sum(by_signature(table).values()) <= 1 << len(moved.crossing_ids) - 2, (serialize(code), spec)
            checked += 1
    assert checked == 6 * 30


def test_five_hundred_pokes_sum_under_the_default_recursion_limit():
    # 500 R2 pokes on the virtual trefoil's strand: 1,002 crossings, of
    # which the fold traces 2.  The block's pass draws the 1,000 folded
    # ones, so the descent is as deep as the traced bits, and R is the
    # trefoil's
    pokes = " ".join(f"O{x}+ O{x + 1}- U{x + 1}- U{x}+" for x in range(3, 1003, 2))
    code = parse_code(f"O1+ O2+ U1+ U2+ {pokes}")
    assert len(code.crossing_ids) == 1002
    assert brackets.normalized(code) == brackets.normalized(parse_code("O1+ O2+ U1+ U2+"))


def test_folded_worker_ranges_merge_to_the_same_brackets():
    # real worker processes: ranges whose high bits split a bigon trace it
    # as it stands, and the merged polynomials still agree.  The second
    # code has an alternating bigon, on its two top crossings, and a
    # look-alike, so 2 and 3 workers split on their bits
    codes = [parse_code("O1+ O3+ O4- U4- U3+ O2+ U1+ U2+ O5- O6+ U6+ U5-"), parse_code(TWIST)]
    assert len(bigons(states._engine(realize(codes[0])))) == 2
    assert sorted(b[4] for b in bigons(states._engine(realize(codes[1])))) == [False, True]
    for code in codes:
        for cmd in ("bracket", "invariant"):
            texts = {w: _cli_text(code, cmd, "--workers", str(w)) for w in (1, 2, 3)}
            with pytest.MonkeyPatch.context() as mp:
                count_every_state(mp)
                texts[0] = _cli_text(code, cmd)
            assert len(set(texts.values())) == 1, texts


def traced_leaves(code) -> int:
    """The states a folded one-worker sum of `code` traces: every crossing
    bit but the free kinks', two bits per R2 bigon, whose kinks fold with
    it, and one per alternating bigon."""
    eng = states._engine(realize(code))
    r2 = {i for x, _tx, y, _ty, alt in bigons(eng) if not alt for i in (x, y)}
    alternating = sum(alt for *_b, alt in bigons(eng))
    return 1 << len(code.crossing_ids) - len(eng.kinks.keys() - r2) - len(r2) - alternating


def statesum_pool():
    """The 81 codes of the benchmark's `statesum` pool, c = 12-16."""
    pool = json.loads((Path(__file__).parent.parent / "bench" / "reference.json").read_text())
    return [parse_code(item["text"]) for item in pool["pools"]["statesum"]]


def block_leaves(code) -> int:
    """The leaves a folded one-block sum of `code` traces: its counts with
    every spread made the identity."""
    F = realize(code)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states, "_spread", lambda *_args: [(0, 1)])
        return sum(states._Engine(F).block(0, F.ribbon.n_crossings, True).values())


FOLDED = [TWIST] + KINKED + POKES


def test_the_statesum_pool_traces_a_fifth_fewer_leaves():
    # the 81 inputs of the benchmark's `statesum` pool: 917,504 states, of
    # which 390,592 are traced with every R1 kink, R2 bigon and alternating
    # bigon folded (509,184 when R2 bigons folded only where their deletion
    # kept the surface, and no alternating bigon did)
    codes = statesum_pool()
    assert len(codes) == 81 and sum(1 << len(code.crossing_ids) for code in codes) == 917_504
    leaves = sum(map(traced_leaves, codes))
    assert leaves == 390_592, leaves
    # and the formula counts what a block traces
    for code in codes + [parse_code(text) for text in FOLDED]:
        assert block_leaves(code) == traced_leaves(code), serialize(code)


def test_the_fold_plan_traces_what_the_formula_counts():
    # the engine's plan against `traced_leaves`, its independent restatement
    codes = statesum_pool() + [parse_code(text) for text in FOLDED]
    planned = [1 << states._Engine(realize(code)).plan.bits for code in codes]
    assert planned == list(map(traced_leaves, codes))
    assert sum(planned[:81]) == 390_592


def guard_price(code) -> int:
    """The N of the 2^N traced states for which `invariant --max-crossings
    0` refuses `code`, or 0 where it sums it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(["invariant", "--max-crossings", "0", "-i", serialize(code)])
        except SystemExit as e:
            assert e.code == 1 and not out.getvalue(), (serialize(code), e.code, out.getvalue())
            return int(re.search(r" means 2\^(\d+) traced states, ", err.getvalue()).group(1))
    assert out.getvalue() and not err.getvalue(), serialize(code)
    return 0


def test_the_guard_prices_what_the_sum_traces():
    for text in FOLDED:
        code = parse_code(text)
        assert block_leaves(code) == 1 << guard_price(code), text


@given(st.one_of(poked_diagrams(kinds=("R2", "twist", "look-alike")), diagrams(max_crossings=9)))
@settings(max_examples=60, deadline=None)
def test_the_guard_prices_what_the_sum_traces_random(code):
    assert block_leaves(code) == 1 << guard_price(code), serialize(code)
