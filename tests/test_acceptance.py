"""Acceptance criteria, one verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the verdict lines; every
criterion is also a hard assertion.  Corpora are seeded and shared across
criteria through module-scoped fixtures, so the whole module is
deterministic.
"""

import contextlib
import io
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import cli, verify
from polebracket.brackets import (
    double_bracket,
    normalized,
    ribbon_normalized,
    specialize_bracket,
    surface_pole_bracket,
)
from polebracket.codes import parse_code, random_diagram, serialize, writhe
from polebracket.laurent import MultiLaurent, delta
from polebracket.moves import MoveError, MoveSpec, apply_move, t1_delete_sites
from polebracket.oracle import classical_kauffman_oracle
from polebracket.polewords import L, MARK, R, index, make_word
from polebracket.states import check_nonseparation, check_pole_balance, sum_counts
from polebracket.surfaces import build_ribbon, realize
from polebracket.verify import (
    classical_fixtures,
    corpus_classical,
    corpus_twisted,
    move_invariance,
)

from reference import assemble_from_table, confluence_oracle
from test_identities import relabel
# the word moves live beside the pole-word tests, their other user
from test_polewords import random_equivalent
from test_reference_engine import diagrams

SEED = 20260815
A = MultiLaurent.A
M = MultiLaurent.M


def _verdict(num, label, ok, detail=""):
    # bypass capture so the verdict lines land in any pytest log
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}{detail}", file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {label}{detail}"


@pytest.fixture(scope="module")
def twisted_corpus():
    return corpus_twisted(SEED, 200)


@pytest.fixture(scope="module")
def classical_corpus():
    return corpus_classical(SEED + 1, 50)


def test_criterion_1_worked_example_table():
    rows = [
        (3, 0, "L1"),
        (1, 1, "L0"),
        (1, 1, "L0"),
        (1, 1, "L0"),
        (-3, 1, "L2"),
        (-1, 2, "L0"),
        (-1, 0, "L3"),
        (-1, 0, "L3"),
    ]
    t0 = time.perf_counter()
    out = assemble_from_table(rows)
    elapsed = time.perf_counter() - t0
    ok = (
        out["L0"] == (2 * A(1) - A(-3)) * delta()
        and out["L1"] == A(3)
        and out["L2"] == A(-3) * delta()
        and elapsed < 0.001
    )
    _verdict(1, "worked-example table assembly", ok, f" ({elapsed * 1e6:.0f} us)")


def _move_sweep(corpus, invariants, seed=SEED):
    """`move_invariance` over a corpus with one Random(seed), given each
    diagram's R, as `check` runs it: (sites checked, failures)."""
    rng = random.Random(seed)
    checked, failures = 0, []
    for code, before in zip(corpus, invariants):
        n, bad = move_invariance(code, build_ribbon(code), before, rng)
        checked += n
        failures += bad
    return checked, failures


def test_criterion_2_move_invariance(twisted_corpus):
    t0 = time.perf_counter()
    checked, failures = _move_sweep(twisted_corpus, map(normalized, twisted_corpus))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _verdict(
        2,
        "R invariant under every applicable move site",
        ok,
        f" ({len(twisted_corpus)} diagrams, {checked} applications, {len(failures)} failures, {elapsed:.0f}s)",
    )


def _site_by_site(corpus, seed=SEED):
    """Each move site of the sweep, summed on its own: (sites checked,
    failures, the distinct moved ribbons per diagram other than its own,
    in the order first met)."""
    rng = random.Random(seed)
    checked, failures, ribbons = 0, [], []
    for code in corpus:
        before = normalized(code)
        moved = {}
        for spec in verify.all_move_sites(code, rng):
            checked += 1
            try:
                after = apply_move(code, spec)
                ok = normalized(after) == before
                moved[build_ribbon(after)] = None
            except MoveError:
                ok = False
            if not ok:
                failures.append((code, spec))
        moved.pop(build_ribbon(code), None)
        ribbons.append(list(moved))
    return checked, failures, ribbons


def test_move_sweep_reads_R_off_given_doubles(monkeypatch):
    # `check` passes each diagram's R, folded off the leaf keys of its one
    # state sum, to `move_invariance`, which sums each distinct moved
    # ribbon other than the diagram's own exactly once
    corpus = corpus_twisted(SEED, 12)
    checked, failures, ribbons = _site_by_site(corpus)
    invariants = [normalized(code) for code in corpus]
    summed = []
    monkeypatch.setattr(verify, "ribbon_normalized",
                        lambda ribbon: summed.append(ribbon) or ribbon_normalized(ribbon))
    assert _move_sweep(corpus, invariants) == (checked, failures)
    assert len(summed) == sum(map(len, ribbons)) > 0
    assert summed == [r for per in ribbons for r in per]


_SWEEP_CORPORA = [(SEED, 40)] + [(seed, 6) for seed in range(1, 5)]


def test_move_sweep_sums_no_T1_or_T2_site(monkeypatch):
    # the memo's answers: on the acceptance corpus and the twisted corpora
    # of `check` at seeds 1-4, the sweep agrees with a site-by-site sum, it
    # sums each distinct moved ribbon once, and a T1 insert, T1 delete or
    # T2 site keeps the ribbon, so it is answered without a sum
    site, summed_at, t_sites = [None], [], [0]

    def applying(code, spec):
        site[0] = spec
        t_sites[0] += spec.kind in ("T1", "T2")
        return apply_move(code, spec)

    for seed, count in _SWEEP_CORPORA:
        corpus = corpus_twisted(seed, count)
        checked, failures, ribbons = _site_by_site(corpus, seed)
        invariants = [normalized(code) for code in corpus]
        summed_at.clear()
        with monkeypatch.context() as m:
            m.setattr(verify, "apply_move", applying)
            m.setattr(verify, "ribbon_normalized",
                      lambda ribbon: summed_at.append(site[0]) or ribbon_normalized(ribbon))
            assert _move_sweep(corpus, invariants, seed) == (checked, failures)
        assert len(summed_at) == sum(map(len, ribbons))
        assert not [spec for spec in summed_at if spec.kind in ("T1", "T2")]
    assert t_sites[0] > 100


def test_move_sweep_answers_each_site_by_its_own_ribbon(monkeypatch):
    # with a stand-in sum that returns the moved diagram's ribbon, a site
    # fails iff its ribbon differs from the diagram's: a memo keyed by
    # anything coarser than the ribbon passes a site it should fail
    monkeypatch.setattr(verify, "ribbon_normalized", lambda ribbon: ribbon)
    for seed, count in _SWEEP_CORPORA:
        corpus = corpus_twisted(seed, count)
        rng = random.Random(seed)
        expected = [
            (code, spec)
            for code in corpus
            for spec in verify.all_move_sites(code, rng)
            if build_ribbon(apply_move(code, spec)) != build_ribbon(code)
        ]
        invariants = [normalized(code) for code in corpus]
        assert _move_sweep(corpus, invariants, seed)[1] == expected


def _cli_text(code, *argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "-i", serialize(code)]) == 0
    return out.getvalue()


@settings(max_examples=40, deadline=None)
@given(diagrams(max_crossings=7), st.data())
def test_equal_ribbons_have_equal_writhe_and_invariant(code, data):
    # the memo's premise: codes made from one another by T1 insertions,
    # T1 deletions and T2 have one ribbon, and then equal writhe and equal
    # `invariant` bytes
    gaps = [(ci, g) for ci, comp in enumerate(code.components) for g in range(len(comp) + 1)]
    codes = [code, apply_move(code, MoveSpec("T2", "rewrite", ()))]
    for _ in range(data.draw(st.integers(1, 3))):
        codes.append(apply_move(codes[-1], MoveSpec("T1", "insert", data.draw(st.sampled_from(gaps)))))
    deletions = t1_delete_sites(codes[-1])
    if deletions:
        codes.append(apply_move(codes[-1], data.draw(st.sampled_from(deletions))))
    assert len({build_ribbon(c) for c in codes}) == 1
    assert len({writhe(c) for c in codes}) == 1
    assert len({_cli_text(c, "invariant") for c in codes}) == 1


@settings(max_examples=40, deadline=None)
@given(diagrams(max_crossings=7), st.data())
def test_relabeling_crossings_in_order_keeps_the_ribbon(code, data):
    # the memo's key holds no crossing ids: an increasing relabeling with
    # gaps, which moves every id, gives an equal ribbon, and the same
    # `bracket`, `bracket --json` and `invariant` bytes
    ids = code.crossing_ids
    gaps = data.draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))
    new_id = {cid: cid + 1 + shift for cid, shift in zip(ids, itertools.accumulate(gaps))}
    relabeled = relabel(code, new_id)
    assert build_ribbon(relabeled) == build_ribbon(code)
    for argv in (["bracket"], ["bracket", "--json"], ["invariant"]):
        assert _cli_text(relabeled, *argv) == _cli_text(code, *argv), argv


def test_move_sweep_fails_each_site_whose_refused_ribbon_repeats(monkeypatch):
    # a refused sum stores nothing: an insert draw that repeats a refused
    # one is summed again, and refused again, so both sites fail
    code = parse_code("O1+ O2+ U1+ U2+")
    spec = MoveSpec("R1+", "insert", (0, 1), 0)
    refused = []

    def refusing(ribbon):
        refused.append(ribbon)
        raise AssertionError("a curve of positive index separates")

    monkeypatch.setattr(verify, "all_move_sites", lambda _code, _rng: [spec, spec])
    monkeypatch.setattr(verify, "ribbon_normalized", refusing)
    checked, failures = move_invariance(code, build_ribbon(code), normalized(code), random.Random(SEED))
    assert (checked, failures) == (2, [(code, spec), (code, spec)])
    assert len(refused) == 2 and refused[0] == refused[1]


def test_move_sweep_fails_a_site_whose_moved_sum_raises(monkeypatch, capsys):
    # a moved diagram whose sum refuses a curve fails its site, as a site
    # that `apply_move` rejects does: `check` prints FAIL and exits 3, with
    # no traceback
    refused = []

    def refusing(ribbon):
        if ribbon.n_crossings >= 3:
            refused.append(ribbon)
            raise AssertionError("a curve of positive index separates")
        return ribbon_normalized(ribbon)

    monkeypatch.setattr(verify, "ribbon_normalized", refusing)
    assert cli.main(["check", "--seed", "1", "--count", "2"]) == 3
    out, err = capsys.readouterr()
    moves = [line for line in out.splitlines() if "move invariance of R" in line]
    assert refused and moves[0].startswith("FAIL")
    assert moves[0].endswith(f"checked, {len(refused)} failures)")
    assert "Traceback" not in out + err and "all checks passed" not in out


def test_criterion_3_classical_specialization(classical_corpus):
    diagrams = list(classical_fixtures()) + [
        (f"random {i}", c) for i, c in enumerate(classical_corpus)
    ]
    bad = []
    for name, code in diagrams:
        F = realize(code)
        if any(not p.orientable or p.genus for p in F.pieces):
            bad.append((name, "not a sphere union"))
            continue
        value = double_bracket(code)
        if value != classical_kauffman_oracle(code) or not value.pure_A():
            bad.append((name, "oracle mismatch"))
    _verdict(
        3,
        "double bracket equals the planar Kauffman oracle on classical codes",
        not bad,
        f" ({len(diagrams)} diagrams{'; ' + repr(bad[:3]) if bad else ''})",
    )


@pytest.fixture(scope="module")
def state_sweep(twisted_corpus, classical_corpus):
    t1_bad = 0
    l2_bad = []
    states = 0
    for code in twisted_corpus + classical_corpus:
        F = realize(code)
        table = sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)
        states += sum(table.counts.values())
        t1_bad += check_nonseparation(table)
        l2_bad += check_pole_balance(F)
    assert states == sum(1 << len(c.crossing_ids) for c in twisted_corpus + classical_corpus)
    return states, t1_bad, l2_bad


def test_criterion_4_nonseparation(state_sweep):
    states, t1_bad, _ = state_sweep
    _verdict(
        4,
        "no positive-index curve separates",
        not t1_bad,
        f" ({states} states, {t1_bad} violations)",
    )


def test_criterion_5_pole_balance(state_sweep):
    states, _, l2_bad = state_sweep
    _verdict(
        5,
        "regions balance I-poles against O-poles",
        not l2_bad,
        f" ({states} states, {len(l2_bad)} violations)",
    )


def test_criterion_6_specialization_identity(twisted_corpus, classical_corpus):
    bad = 0
    diagrams = twisted_corpus + classical_corpus
    for code in diagrams:
        if specialize_bracket(surface_pole_bracket(code)) != double_bracket(code):
            bad += 1
    _verdict(
        6,
        "surface pole bracket specializes to the double bracket",
        bad == 0,
        f" ({len(diagrams)} diagrams, {bad} mismatches)",
    )


def test_criterion_7_fixture_values():
    checks = [
        normalized(parse_code("EMPTY")) == delta(),
        normalized(parse_code("B")) == M(),
        normalized(parse_code("O1+ U1+")) == delta(),
        normalized(parse_code("O1- U1-")) == delta(),
        normalized(parse_code("O1+ O2+ U1+ U2+")).uses_d(1),
    ]
    reports = {
        "trefoil": realize(parse_code("O1- U2- O3- U1- O2- U3-")).report(),
        "virtual trefoil": realize(parse_code("O1+ O2+ U1+ U2+")).report(),
        "one-bar loop": realize(parse_code("B")).report(),
    }
    checks += [
        reports["trefoil"]["pieces"] == [{"orientable": True, "genus": 0}],
        reports["virtual trefoil"]["pieces"] == [{"orientable": True, "genus": 1}],
        reports["one-bar loop"]["pieces"] == [{"orientable": False, "crosscaps": 1}],
    ]
    _verdict(7, "pinned fixture values and surface reports", all(checks))


def test_criterion_8_confluence_and_index_invariance():
    rng = random.Random(SEED)
    confluent = 0
    for _ in range(1000):
        poles = rng.randrange(0, 11)
        marks = rng.randrange(0, 5)
        items = [rng.choice((L, R)) for _ in range(poles)] + [MARK] * marks
        rng.shuffle(items)
        if confluence_oracle(make_word(items), max_poles=10):
            confluent += 1
    stable = 0
    for _ in range(1000):
        poles = rng.randrange(0, 11)
        marks = rng.randrange(0, 5)
        items = [rng.choice((L, R)) for _ in range(poles)] + [MARK] * marks
        rng.shuffle(items)
        w = make_word(items)
        if index(w) == index(random_equivalent(w, rng)):
            stable += 1
    ok = confluent == 1000 and stable == 1000
    _verdict(
        8,
        "pole reduction is confluent and index is equivalence-invariant",
        ok,
        f" ({confluent}/1000 confluent, {stable}/1000 stable)",
    )


def test_criterion_9_determinism_and_speed():
    code = random_diagram(SEED, 12, 0)
    t0 = time.perf_counter()
    v1 = normalized(code, workers=1)
    elapsed = time.perf_counter() - t0
    v2 = normalized(code, workers=2)
    v8 = normalized(code, workers=8)
    same = v1.to_text() == v2.to_text() == v8.to_text()
    ok = elapsed < 10.0 and same
    _verdict(
        9,
        "12-crossing R under 10 s and bit-identical across 1/2/8 workers",
        ok,
        f" ({elapsed:.2f}s single-threaded)",
    )
