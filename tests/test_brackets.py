"""Bracket values against independently derivable anchors.

The classical fixtures are checked against a separate planar Kauffman
bracket implementation (the oracle) rather than against values computed by
the code under test.  The int-table assembly of both brackets (the pole
bracket from a signature-labelled count table, the double bracket and R
from an (M, d)-labelled one, both packed by `reference.count_table`), of
`specialize_bracket` and
of `assemble_from_table` (`tests/reference.py`, which folds state-table
rows through the signature-keyed `fold` there) is checked against the plain
`MultiLaurent` assembly below, one product and sum per count-table key, and
against the signature-keyed reference assembly, on random count tables.
"""

import os
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from polebracket import brackets, states
from polebracket.brackets import (
    BracketValue,
    double_bracket,
    normalized,
    specialize_bracket,
    surface_pole_bracket,
)
from polebracket.codes import parse_code, random_diagram, writhe
from polebracket.laurent import MultiLaurent, delta, minus_A_pow
from polebracket.oracle import classical_kauffman_oracle
from polebracket.states import classify_state, enumerate_states
from polebracket.surfaces import realize
from polebracket.verify import braid_closure, classical_fixtures, corpus_classical, corpus_twisted, twisted_fixtures
from reference import assemble_from_table, bracket_of, count_table, double_of

A = MultiLaurent.A
M = MultiLaurent.M
d = MultiLaurent.d


def test_unknot():
    assert double_bracket(parse_code("EMPTY")) == delta()
    assert normalized(parse_code("EMPTY")) == delta()


def test_kink_values_and_normalization():
    plus = parse_code("O1+ U1+")
    minus = parse_code("O1- U1-")
    assert double_bracket(plus) == -A(3) * delta()
    assert double_bracket(minus) == -A(-3) * delta()
    assert normalized(plus) == delta()
    assert normalized(minus) == delta()


def test_R_is_the_double_bracket_times_the_writhe_monomial():
    # R is folded off the leaf keys with each A-exponent shifted and the
    # signs flipped, the writhe read off the ribbon: it must be the product
    # with (-A)^(-3 writhe), the writhe summed over the code's signs, and
    # print the same bytes
    codes = [code for _name, code in classical_fixtures() + twisted_fixtures()]
    codes += corpus_twisted(5, 30, 5)
    assert {writhe(code) % 2 for code in codes} == {0, 1}
    for code in codes:
        got = normalized(code)
        want = minus_A_pow(-3 * writhe(code)) * double_bracket(code)
        assert got == want and got.to_text() == want.to_text() and got.to_json() == want.to_json(), code


def test_writhe_off_the_ribbon_is_the_sum_of_signs():
    # a disk is positive iff bit 1 of its second dart is 0
    codes = [code for s in range(1, 6) for code in corpus_twisted(s, 200)]
    codes += [code for s in range(1, 3) for code in corpus_classical(s)]
    codes += [code for _name, code in classical_fixtures() + twisted_fixtures()]
    assert {writhe(code) for code in codes} >= set(range(-5, 6))
    for code in codes:
        assert states._engine(realize(code)).writhe == writhe(code), code


def test_one_bar_loop_is_M():
    assert double_bracket(parse_code("B")) == M()
    assert normalized(parse_code("B")) == M()
    assert double_bracket(parse_code("B B")) == delta()


def test_trefoil_matches_jones_shape():
    # closure of three positive braid letters; standard bracket
    # -A^-4 - A^-12 + A^-16 times delta after normalization
    tref = braid_closure([(1, 1)] * 3, 2)
    expect = delta() * (-A(-16) + A(-12) + A(-4))
    assert normalized(tref) == expect
    # mirror via the all-negative code
    mirror = parse_code("O1- U2- O3- U1- O2- U3-")
    assert normalized(mirror) == delta() * (-A(16) + A(12) + A(4))


def test_virtual_trefoil_uses_d1():
    vt = double_bracket(parse_code("O1+ O2+ U1+ U2+"))
    assert vt == A(2) + d(1) * (1 - A(-4))
    assert vt.uses_d(1)
    assert normalized(parse_code("O1+ O2+ U1+ U2+")).uses_d(1)


def test_classical_fixture_oracle_equality():
    for name, code in classical_fixtures():
        value = double_bracket(code)
        assert value == classical_kauffman_oracle(code), name
        assert value.pure_A(), name


def test_surface_pole_bracket_kink():
    b = surface_pole_bracket(parse_code("O1+ U1+"))
    # no essential curves on the sphere: single empty-signature class
    assert list(b.classes) == [()]
    assert b.classes[()] == A(1) * delta() ** 2 + A(-1) * delta()


def test_surface_pole_bracket_virtual_trefoil_classes():
    b = surface_pole_bracket(parse_code("O1+ O2+ U1+ U2+"))
    sigs = list(b.classes)
    # every state leaves one essential non-separating curve on the torus,
    # of index 0 or 1; the index-1 class is what specializes to d_1
    assert len(sigs) == 2
    assert all(len(sig) == 1 for sig in sigs)
    assert {sig[0][0] for sig in sigs} == {0, 1}
    assert all(not sig[0][2] for sig in sigs)


def test_specialization_identity_fixtures():
    for text in ("EMPTY", "B", "B B", "O1+ U1+", "O1+ O2+ U1+ U2+", "B O1+ B U1+",
                 "O1- U2- O3- U1- O2- U3-"):
        code = parse_code(text)
        assert specialize_bracket(surface_pole_bracket(code)) == double_bracket(code)


def test_worker_determinism_small():
    code = parse_code("O1- U2- O3- U1- O2- U3-")
    assert double_bracket(code, workers=1) == double_bracket(code, workers=2)


def test_pool_is_capped_at_cpu_count(monkeypatch):
    sizes = []
    surfaces = []       # per surface build: was it inside a job?
    in_job = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            sizes.append(len(jobs))
            out = []
            for job in jobs:
                in_job.append(True)
                out.append(fn(job))
                in_job.pop()
            return out

    build_surface = brackets.realize

    def counted_surface(code):
        surfaces.append(bool(in_job))
        return build_surface(code)

    code = parse_code("O1- U2- O3- U1- O2- U3-\nO4+ U5+ O6+ U4+ O5+ U6+")
    expect = double_bracket(code, workers=1)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(brackets, "realize", counted_surface)
    for cpus, pool_size in ((2, 2), (None, 1), (64, 8)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        surfaces.clear()
        assert double_bracket(code, workers=8) == expect
        # the pool shrinks to the CPUs, the split stays at eight mask ranges
        assert sizes == [pool_size, 8]
        # each job builds its own surface; the parent builds none
        assert surfaces == [True] * 8


def _full_sum(F):
    return states.sum_counts(F, 0, 1 << F.ribbon.n_crossings, False, "both")


def _pair(table, part):
    # the two brackets the `check` battery reads off one "both" sum
    return brackets._bracket(table), brackets._double(part, False)


def test_one_both_sum_gives_both_brackets():
    # on a fresh surface, and on one whose curve-class cache the state
    # walker has filled
    for text in ("EMPTY", "B", "O1+ O2+ U1+ U2+", "B O1+ B U1+", "O1- U2- O3- U1- O2- U3-\nB B"):
        code = parse_code(text)
        expect = (surface_pole_bracket(code), double_bracket(code))
        assert _pair(*_full_sum(realize(code))) == expect
        F = realize(code)
        for s in enumerate_states(F):
            classify_state(F, s)
        assert states._engine(F).cache
        assert _pair(*_full_sum(F)) == expect


def test_delta_rows_are_the_binomial_rows():
    # each row is made by the recurrence C(k, j + 1) = C(k, j) (k - j) / (j + 1)
    for k in range(201):
        sign = -1 if k & 1 else 1
        assert brackets._delta_row(k) == tuple((2 * k - 4 * j, sign * comb(k, j)) for j in range(k + 1))


def test_assemble_from_table_worked_example():
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
    out = assemble_from_table(rows)
    assert out["L0"] == (2 * A(1) - A(-3)) * delta()
    assert out["L1"] == A(3)
    assert out["L2"] == A(-3) * delta()
    assert out["L3"] == 2 * A(-1)


def test_bracket_value_equality_and_text():
    b1 = surface_pole_bracket(parse_code("O1+ U1+"))
    b2 = surface_pole_bracket(parse_code("O1+ U1+"))
    assert b1 == b2
    assert isinstance(b1.to_text(), str) and b1.to_text()
    assert isinstance(b1.to_json(), list)


def test_oracle_rejects_nonplanar():
    with pytest.raises(ValueError):
        classical_kauffman_oracle(parse_code("O1+ O2+ U1+ U2+"))


# ---------------------------------------------------------------------------
# the slow reference assembly: one MultiLaurent product and sum per key


def _ref_delta_powers(n):
    powers = [MultiLaurent.one()]
    for _ in range(n):
        powers.append(powers[-1] * delta())
    return powers


def ref_double_from_counts(counts):
    # collapse each class to (one-sided count, indices >= 1); the signature
    # is sorted by index, so the indices come out sorted
    dcounts = {}
    for (sig, nat, iness), count in counts.items():
        mob = sum(1 for curve in sig if curve[1])
        key = (nat, iness, mob, tuple(curve[0] for curve in sig if curve[0] >= 1))
        dcounts[key] = dcounts.get(key, 0) + count
    dpow = _ref_delta_powers(max((k[1] for k in dcounts), default=0))
    total = MultiLaurent.zero()
    for (nat, iness, nonori, idxs), count in sorted(dcounts.items()):
        term = MultiLaurent.A(nat) * count * dpow[iness]
        if nonori:
            term = term * MultiLaurent.M(nonori)
        for i in idxs:
            term = term * MultiLaurent.d(i)
        total = total + term
    return total


def ref_bracket_from_counts(counts):
    dpow = _ref_delta_powers(max((k[2] for k in counts), default=0))
    classes = {}
    for (sig, nat, iness), count in sorted(counts.items()):
        coeff = MultiLaurent.A(nat) * count * dpow[iness]
        classes[sig] = classes.get(sig, MultiLaurent.zero()) + coeff
    return BracketValue(classes)


def ref_specialize_bracket(b):
    total = MultiLaurent.zero()
    for sig, coeff in b.items():
        factor = MultiLaurent.one()
        mob = sum(1 for (_i, m, _s, _h) in sig if m)
        if mob:
            factor = factor * MultiLaurent.M(mob)
        for (idx, _m, _s, _h) in sig:
            if idx >= 1:
                factor = factor * MultiLaurent.d(idx)
        total = total + coeff * factor
    return total


def ref_assemble_from_table(rows):
    out = {}
    for (nat, iness, label) in rows:
        term = MultiLaurent.A(nat) * _ref_delta_powers(iness)[iness]
        out[label] = out.get(label, MultiLaurent.zero()) + term
    return out


_curve = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(min_value=0, max_value=1), max_size=3).map(tuple),
)
_signature = st.lists(_curve, max_size=4).map(lambda curves: tuple(sorted(curves)))


@st.composite
def count_tables(draw):
    """(c, {(signature, natural, iness): count}, writhe) of a c-crossing
    diagram, c <= 12: negative naturals, up to ten inessential curves,
    counts up to 2^40; a few signatures, naturals and counts, so that keys
    share classes and terms cancel.  A natural is c - 2 B, B <= c being the
    B-splices, and |writhe| <= c."""
    c = draw(st.integers(min_value=0, max_value=12))
    counts = draw(st.dictionaries(
        st.tuples(
            st.sampled_from([(), ((1, False, False, (1,)),)]) | _signature,
            st.integers(min_value=0, max_value=c).map(lambda b: c - 2 * b),
            st.integers(min_value=0, max_value=10),
        ),
        st.integers(min_value=1, max_value=1 << 40),
        max_size=30,
    ))
    return c, counts, draw(st.integers(min_value=-c, max_value=c))


@given(count_tables())
@settings(max_examples=200, deadline=None)
def test_int_table_assembly_matches_reference(drawn):
    # the bracket folds the signature-labelled count table; the double
    # bracket and R fold the (M, d)-labelled one, which has no signature
    c, counts, w = drawn
    table = count_table(counts, c)
    bracket = brackets._bracket(table)
    assert bracket == ref_bracket_from_counts(counts) == bracket_of(counts)
    assert bracket.to_text() == ref_bracket_from_counts(counts).to_text()
    assert_printers_match_reference(bracket)
    part = count_table(counts, c, w, brackets._collapse)
    double = brackets._double(part, False)
    assert double == ref_double_from_counts(counts) == double_of(counts)
    assert double.to_text() == ref_double_from_counts(counts).to_text()
    invariant = brackets._double(part, True)
    assert invariant == minus_A_pow(-3 * w) * ref_double_from_counts(counts)
    assert invariant.to_text() == (minus_A_pow(-3 * w) * double).to_text()
    assert specialize_bracket(bracket) == ref_specialize_bracket(bracket) == double
    rows = [(nat, iness, sig) for (sig, nat, iness) in counts]
    assert assemble_from_table(rows) == ref_assemble_from_table(rows)


def test_int_table_assembly_of_the_empty_table():
    empty = count_table({}, 0)
    assert brackets._bracket(empty) == ref_bracket_from_counts({}) == BracketValue({})
    for normalize in (False, True):
        assert brackets._double(count_table({}, 0, 0, brackets._collapse), normalize) == ref_double_from_counts({}) == 0
    assert double_of({}) == 0
    assert specialize_bracket(BracketValue({})) == ref_specialize_bracket(BracketValue({})) == 0
    # no state gives 0 for both brackets, so the specialization identity holds
    assert specialize_bracket(brackets._bracket(empty)) == brackets._double(count_table({}, 0, 0, brackets._collapse), False)
    assert assemble_from_table([]) == ref_assemble_from_table([]) == {}


# ---------------------------------------------------------------------------
# the slow reference printers: `BracketValue.to_text` and `to_json` as they
# read before each distinct curve entry and coefficient was printed once,
# with the A-polynomial printer they called then


def ref_a_poly_text(apoly):
    out = []
    for a in sorted(apoly, reverse=True):
        c = apoly[a]
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        if a == 0:
            part = str(mag)
        else:
            apart = "A" if a == 1 else f"A^{a}"
            part = apart if mag == 1 else f"{mag}*{apart}"
        out.append(sign + part)
    return "".join(out)


def ref_bracket_text(b):
    parts = []
    for sig, coeff in sorted(b.classes.items()):
        label = "[" + ", ".join(
            f"(i={idx},m={int(mob)},s={int(sep)},h={''.join(map(str, hom))})"
            for (idx, mob, sep, hom) in sig
        ) + "]"
        apoly = {a: c for (a, _m, _d), c in coeff.terms.items()}
        parts.append(f"({ref_a_poly_text(apoly)})*{label}")
    return " + ".join(parts) if parts else "0"


def ref_bracket_json(b):
    out = []
    for sig, coeff in sorted(b.classes.items()):
        out.append(
            {
                "curves": [
                    {"index": idx, "mobius": bool(mob), "separating": bool(sep), "hom": list(hom)}
                    for (idx, mob, sep, hom) in sig
                ],
                "coeff": [
                    {"a": a, "m": m, "d": {str(i): e for i, e in d}, "coeff": coeff.terms[(a, m, d)]}
                    for (a, m, d) in sorted(coeff.terms)
                ],
            }
        )
    return out


def assert_printers_match_reference(b):
    # class by class, so that a mismatch names its first class quickly
    assert b.to_text().split(" + ") == ref_bracket_text(b).split(" + ")
    assert b.to_json() == ref_bracket_json(b)


def test_bracket_printers_match_reference_on_fixtures_and_corpus():
    codes = [code for _n, code in classical_fixtures() + twisted_fixtures()]
    for code in codes + corpus_twisted(7, 60):
        assert_printers_match_reference(surface_pole_bracket(code))


@st.composite
def _diagrams(draw):
    """c <= 8, bars <= 4, 1 to 3 components."""
    c = draw(st.integers(min_value=0, max_value=8))
    b = draw(st.integers(min_value=0, max_value=4))
    k = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_diagram(seed, c, b, min(k, max(1, 2 * c + b)))


@given(_diagrams())
@settings(max_examples=40, deadline=None)
def test_bracket_printers_match_reference_random(code):
    assert_printers_match_reference(surface_pole_bracket(code))


# random_diagram(11, 13, 0): h1 = 14 and 1,694 classes
HIGH_GENUS = (
    "O6- O13+ U9- O5+ O4+ U8+ O3- U6- U11+ U4+ U12+ U5+ U7+ U2- O10- U1- O2- O9- O1- U3- O12+ U13+"
    " O11+ O8+ O7+ U10-"
)


def test_bracket_printers_match_reference_at_high_genus():
    # curve entries repeat across classes, and so do coefficients
    code = parse_code(HIGH_GENUS)
    assert realize(code).h1_dim >= 8
    b = surface_pole_bracket(code)
    assert len(b.classes) >= 1000
    entries = [e for sig in b.classes for e in sig]
    assert len(set(entries)) < len(entries)
    assert len({tuple(sorted(c.terms.items())) for c in b.classes.values()}) < len(b.classes)
    assert_printers_match_reference(b)
