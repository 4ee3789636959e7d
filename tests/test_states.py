import pytest

from polebracket import cli, verify
from polebracket.brackets import _double, double_bracket
from polebracket.codes import parse_code, random_diagram
from polebracket.polewords import MARK
from polebracket.states import (
    _Classes,
    _Engine,
    check_pole_balance,
    check_nonseparation,
    classify_state,
    enumerate_states,
    splice_curves,
    state_report,
    sum_counts,
)
from polebracket.surfaces import realize
from reference import count_table, nonseparation_of


def test_state_count_is_two_to_the_crossings():
    code = parse_code("O1- U2- O3- U1- O2- U3-")
    F = realize(code)
    states = list(enumerate_states(F))
    assert len(states) == 8
    assert sorted({s.natural for s in states}) == [-3, -1, 1, 3]


def test_natural_tracks_splice_mask():
    code = parse_code("O1+ U2+ U1+ O2+")
    F = realize(code)
    for mask in range(4):
        s = splice_curves(F, mask)
        assert s.natural == 2 - 2 * bin(mask).count("1")


def test_kink_states_on_sphere():
    code = parse_code("O1+ U1+")
    F = realize(code)
    a = splice_curves(F, 0)   # coherent: two circles
    b = splice_curves(F, 1)   # incoherent: one circle, two poles
    cls_a = classify_state(F, a)
    cls_b = classify_state(F, b)
    iness_a = sum(cl.inessential for cl in cls_a)
    nonori_a = sum(cl.mobius for cl in cls_a)
    iness_b = sum(cl.inessential for cl in cls_b)
    assert len(a.curves) == 2 and iness_a == 2 and nonori_a == 0
    assert len(b.curves) == 1 and iness_b == 1
    assert sum(1 for c in b.curves for x in c.word if x != MARK) == 2
    assert all(cl.index == 0 for cl in cls_b)


def test_virtual_trefoil_has_index_one_curve():
    code = parse_code("O1+ O2+ U1+ U2+")
    F = realize(code)
    found = set()
    for s in enumerate_states(F):
        for cl in classify_state(F, s):
            found.add((cl.index, cl.inessential))
    assert (1, False) in found  # an essential curve with one irreducible pole pair


def test_one_bar_loop_state_is_mobius():
    code = parse_code("B")
    F = realize(code)
    s = splice_curves(F, 0)
    cls = classify_state(F, s)
    iness = sum(cl.inessential for cl in cls)
    nonori = sum(cl.mobius for cl in cls)
    assert len(s.curves) == 1 and nonori == 1 and iness == 0
    assert cls[0].mobius and not cls[0].separating


def test_structure_checks_clean_on_fixtures():
    for text in ("EMPTY", "O1+ U1+", "O1+ O2+ U1+ U2+", "B O1+ B U1+", "O1- U2- O3- U1- O2- U3-"):
        code = parse_code(text)
        F = realize(code)
        assert check_nonseparation(sum_counts(F, 0, 1 << F.ribbon.n_crossings, False)) == 0
        assert check_pole_balance(F) == []


def test_state_report_shape():
    code = parse_code("O1+ U1+")
    F = realize(code)
    rep = state_report(F, splice_curves(F, 1))
    assert rep["mask"] == 1 and rep["natural"] == -1
    assert len(rep["curves"]) == 1
    curve = rep["curves"][0]
    assert set(curve) == {"poles", "index", "inessential", "separating", "mobius", "hom"}


def test_pole_balance_random_sample():
    for seed in range(8):
        code = random_diagram(seed, 4, 2)
        assert check_pole_balance(realize(code)) == []


def test_class_table_unpacks_every_homology_bit():
    # `_Classes` unpacks a class a byte at a time; every width, including
    # 0 and widths that end mid-byte, gives the per-bit tuple.  Ids count up
    # from 1 (0 is the disk), one per key, and a key seen again keeps its id
    for h1 in range(25):
        classes = _Classes(h1)
        ids = {}
        for hom in {0, (1 << h1) - 1, 0x5A5A5A & ((1 << h1) - 1), 1 << max(h1 - 1, 0)}:
            hom &= (1 << h1) - 1
            for idx, flip in ((0, 0), (3, 1)):
                key = idx << (h1 + 1) | hom << 1 | flip
                ids.setdefault(key, len(ids) + 1)
                sid = classes[key]
                assert sid == ids[key] and len(classes.entries) == len(ids) + 1
                assert classes.entries[sid] == (
                    idx, bool(flip), hom == 0, tuple((hom >> i) & 1 for i in range(h1)))


def poles(eng):
    """(bit, a, b) of each pole chord (a, b), a < b, that a splice bit
    draws, read off the engine's `items`, by bit and then by a."""
    return sorted((row[0], row[j], row[j + 1]) for pair in eng.items for row in pair
                  for j in (1, 6) if row[j + 4])


def edit_pole(eng, bit, a, edit):
    """`eng` with the pole (arc, kind) of the chord that splice bit `bit`
    draws from dart a, its lower dart, replaced by edit(arc, kind) in
    `items`.  The sum reads it there, and the walker's step table, made on
    first walk, is made from it: pass a fresh engine to reach both."""
    i = a >> 2
    pair = list(eng.items[i])
    row = pair[bit]
    j = 1 if row[1] == a else 6
    pair[bit] = row[:j + 3] + edit(*row[j + 3:j + 5]) + row[j + 5:]
    eng.items = eng.items[:i] + (tuple(pair),) + eng.items[i + 1:]
    return eng


def _flip_side(eng, bit, a):
    # the pole of the other side has arc 2 - v (the arc of a reversed odd word)
    return edit_pole(eng, bit, a, lambda v, k: (2 - v, k))


def test_nonseparation_check_reads_a_disk_curve_own_index():
    # a curve that bounds a disk separates, so its index must be 0; the
    # count table keeps no entry for it, and the engine refuses a separating
    # curve of positive index instead.  Flip the side of one pole on a fresh
    # engine: the classical trefoil lies on a sphere, so the curve through
    # that pole still bounds a disk, now with a positive index, and both the
    # state sum and the walker must raise.  Unflipped, neither does
    code = parse_code("O1- U2- O3- U1- O2- U3-")
    F = realize(code)
    assert check_nonseparation(sum_counts(F, 0, 8, False)) == 0
    for s in enumerate_states(F):
        classify_state(F, s)
    seen = 0
    for bit, a, _b in poles(_Engine(F)):
        F._state_engine = _flip_side(_Engine(F), bit, a)
        with pytest.raises(AssertionError, match="positive index separates"):
            sum_counts(F, 0, 8, False)
        F._state_engine = _flip_side(_Engine(F), bit, a)
        with pytest.raises(AssertionError, match="positive index separates"):
            for s in enumerate_states(F):
                classify_state(F, s)
        seen += 1
    assert seen == 6


def test_engine_refuses_a_separating_essential_curve_of_positive_index():
    # a two-sided curve of class 0 separates whether or not it bounds a
    # disk.  On this genus-2 code, flipping the side of splice bit 0's pole
    # chords (8, 9) or (10, 11) gives a positive index to a curve that cuts
    # the surface into two tori: no disk, but it separates, so both the
    # state sum and the walker must raise.  Unflipped, neither does
    code = parse_code("U2- O4+ U3- O2- O6- U5- U1+ U4+ O3- B B O1+ O5- U6-")
    F = realize(code)
    assert check_nonseparation(sum_counts(F, 0, 64, False)) == 0
    for s in enumerate_states(F):
        classify_state(F, s)
    for a, b in ((8, 9), (10, 11)):
        assert (0, a, b) in poles(_Engine(F))
        F._state_engine = _flip_side(_Engine(F), 0, a)
        with pytest.raises(AssertionError, match="positive index separates"):
            sum_counts(F, 0, 64, False)
        F._state_engine = _flip_side(_Engine(F), 0, a)
        with pytest.raises(AssertionError, match="positive index separates"):
            for s in enumerate_states(F):
                classify_state(F, s)


def test_nonseparation_counts_each_separating_entry_times_its_count():
    # a synthetic count table of a 3-crossing diagram: an entry of positive
    # index that separates counts once per state of its key, and once per
    # copy in a signature, as the signature-keyed reference counts it
    bad = (2, False, True, ())
    ok = [(1, False, False, (1,)), (0, False, True, ()), (3, True, False, (1,))]
    counts = {((ok[0], bad), 1, 0): 3, ((bad, bad), -1, 2): 5, ((ok[1], ok[2]), 3, 1): 7}
    assert check_nonseparation(count_table(counts, 3)) == nonseparation_of(counts) == 3 + 2 * 5
    clean = {k: n for k, n in counts.items() if bad not in k[0]}
    assert check_nonseparation(count_table(clean, 3)) == nonseparation_of(clean) == 0
    assert check_nonseparation(count_table({}, 0)) == 0


def _no_walk(*_args):
    raise AssertionError("the state sweep walked a curve")


def test_state_sweep_sums_once_and_walks_no_state(monkeypatch):
    # one full-range `sum_counts` per battery diagram feeds both checks,
    # both brackets and the move sweep or oracle; no curve is walked or
    # looked up, and every state is counted
    seed, count = 3, 8
    diagrams = verify.corpus_twisted(seed, count) + verify.corpus_classical(seed + 1, 2)
    diagrams += [code for _n, code in verify.classical_fixtures()]
    expect = [double_bracket(code) for code in diagrams]
    sums, doubles = [], []
    monkeypatch.setattr(verify, "sum_counts",
                        lambda F, lo, hi, fold, want: sums.append((F, lo, hi, fold)) or sum_counts(F, lo, hi, fold, want))

    def double_of(part, normalize):
        value = _double(part, normalize)
        if not normalize:
            doubles.append(value)
        return value

    monkeypatch.setattr(verify, "_double", double_of)
    monkeypatch.setattr(_Engine, "walk", _no_walk)
    monkeypatch.setattr(_Engine, "lookup", _no_walk)
    results = verify.run_battery(seed, count)
    assert [F.ribbon.n_crossings for F, _lo, _hi, _fold in sums] == [len(c.crossing_ids) for c in diagrams]
    # every state is counted: the base sums fold no R2 bigon
    assert all(lo == 0 and hi == 1 << F.ribbon.n_crossings and not fold for F, lo, hi, fold in sums)
    checked = {label: n for label, n, _bad in results}
    assert checked["essential curves never separate"] == sum(1 << len(c.crossing_ids) for c in diagrams)
    assert checked["specialization identity"] == len(diagrams)
    assert checked["classical bracket oracle"] == len(diagrams) - count
    assert all(bad == [] for _label, _n, bad in results)
    assert doubles == expect


def _flip_first_pole(F):
    """A fresh engine of `F` with the side of its first pole chord flipped,
    if it has one."""
    eng = _Engine(F)
    found = poles(eng)
    return _flip_side(eng, *found[0][:2]) if found else eng


def test_check_prints_a_fail_line_when_a_sum_refuses(monkeypatch, capsys):
    # the battery sums on engines with a pole side flipped, as above; each
    # sum that raises is one non-separation failure, so `check` prints a
    # FAIL line and exits 3, with no traceback.  A diagram whose sum raised
    # gets no other check
    refused = []

    def faulty_sum(F, lo, hi, fold, want):
        F._state_engine = _flip_first_pole(F)
        try:
            return sum_counts(F, lo, hi, fold, want)
        except AssertionError as err:
            refused.append(str(err))
            raise

    monkeypatch.setattr(verify, "sum_counts", faulty_sum)
    assert cli.main(["check", "--seed", "1", "--count", "2"]) == 3
    out, err = capsys.readouterr()
    assert refused and set(refused) == {"a curve of positive index separates"}
    line = f"FAIL  essential curves never separate (67 checked, {len(refused)} failures)"
    assert line in out.splitlines()
    assert "Traceback" not in out + err and "all checks passed" not in out


def _no_chords(*_args):
    raise AssertionError("the walker built a chord tuple")


def test_walker_builds_no_geometry(monkeypatch):
    # `splice_curves` keeps each curve's key and word and builds no chord
    # tuple or `EmbeddedCurve`, which the `states` command never prints;
    # `classify_state` may read the chords off a key for its disk tests
    fixtures = verify.twisted_fixtures() + verify.classical_fixtures()
    walked = []
    with monkeypatch.context() as mp:
        mp.setattr(_Engine, "chords_of", _no_chords)
        for code in [code for _n, code in fixtures] + verify.corpus_twisted(7, 40):
            F = realize(code)
            walked.append((F, [splice_curves(F, m) for m in range(1 << F.ribbon.n_crossings)]))
    assert sum(len(ss) for _F, ss in walked) > 1000
    for F, ss in walked:
        for s in ss:
            assert len(classify_state(F, s)) == len(s.curves) > 0
            assert all(type(c.key) is int and type(c.word) is tuple for c in s.curves)
