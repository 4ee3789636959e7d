"""Acceptance criteria, one verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the verdict lines; every
criterion is also a hard assertion.  Corpora are seeded and shared across
criteria through module-scoped fixtures, so the whole module is
deterministic.
"""

import random
import sys
import time

import pytest

from polebracket import verify
from polebracket.brackets import (
    double_bracket,
    normalized,
    specialize_bracket,
    surface_pole_bracket,
)
from polebracket.codes import parse_code, random_diagram
from polebracket.laurent import MultiLaurent, delta
from polebracket.moves import MoveError, apply_move
from polebracket.oracle import classical_kauffman_oracle
from polebracket.polewords import L, MARK, R, index, make_word
from polebracket.states import check_nonseparation, check_pole_balance, sum_counts
from polebracket.surfaces import build_ribbon, cap_boundaries
from polebracket.verify import (
    classical_fixtures,
    corpus_classical,
    corpus_twisted,
    sweep_move_invariance,
)

from reference import assemble_from_table, confluence_oracle
# the word moves live beside the pole-word tests, their other user
from test_polewords import random_equivalent

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


def test_criterion_2_move_invariance(twisted_corpus):
    t0 = time.perf_counter()
    doubles = [double_bracket(code) for code in twisted_corpus]
    checked, failures = sweep_move_invariance(twisted_corpus, doubles, SEED)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    _verdict(
        2,
        "R invariant under every applicable move site",
        ok,
        f" ({len(twisted_corpus)} diagrams, {checked} applications, {len(failures)} failures, {elapsed:.0f}s)",
    )


def test_move_sweep_reads_R_off_given_doubles(monkeypatch):
    # `check` passes the state sweep's double brackets to the move sweep:
    # it reads each diagram's R off them, and sums only the moved diagrams
    corpus = corpus_twisted(SEED, 12)
    rng = random.Random(SEED)
    checked, failures = 0, []
    for code in corpus:
        before = normalized(code)
        for spec in verify.all_move_sites(code, rng):
            checked += 1
            try:
                ok = normalized(apply_move(code, spec)) == before
            except MoveError:
                ok = False
            if not ok:
                failures.append((code, spec))
    doubles = [double_bracket(code) for code in corpus]
    summed = []
    monkeypatch.setattr(verify, "normalized", lambda code: summed.append(code) or normalized(code))
    assert sweep_move_invariance(corpus, doubles, SEED) == (checked, failures)
    assert len(summed) == checked > 0


def test_criterion_3_classical_specialization(classical_corpus):
    diagrams = list(classical_fixtures()) + [
        (f"random {i}", c) for i, c in enumerate(classical_corpus)
    ]
    bad = []
    for name, code in diagrams:
        F = cap_boundaries(build_ribbon(code))
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
        F = cap_boundaries(build_ribbon(code))
        counts = sum_counts(F, 0, 1 << F.ribbon.n_crossings)
        states += sum(counts.values())
        t1_bad += check_nonseparation(counts)
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
        "trefoil": cap_boundaries(build_ribbon(parse_code("O1- U2- O3- U1- O2- U3-"))).report(),
        "virtual trefoil": cap_boundaries(build_ribbon(parse_code("O1+ O2+ U1+ U2+"))).report(),
        "one-bar loop": cap_boundaries(build_ribbon(parse_code("B"))).report(),
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
