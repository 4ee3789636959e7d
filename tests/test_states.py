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
)
from polebracket.surfaces import build_ribbon, cap_boundaries


def _surface(code):
    return cap_boundaries(build_ribbon(code))


def test_state_count_is_two_to_the_crossings():
    code = parse_code("O1- U2- O3- U1- O2- U3-")
    F = _surface(code)
    states = list(enumerate_states(F))
    assert len(states) == 8
    assert sorted({s.natural for s in states}) == [-3, -1, 1, 3]


def test_natural_tracks_splice_mask():
    code = parse_code("O1+ U2+ U1+ O2+")
    F = _surface(code)
    for mask in range(4):
        s = splice_curves(F, mask)
        assert s.natural == 2 - 2 * bin(mask).count("1")


def test_kink_states_on_sphere():
    code = parse_code("O1+ U1+")
    F = _surface(code)
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
    F = _surface(code)
    found = set()
    for s in enumerate_states(F):
        for cl in classify_state(F, s):
            found.add((cl.index, cl.inessential))
    assert (1, False) in found  # an essential curve with one irreducible pole pair


def test_one_bar_loop_state_is_mobius():
    code = parse_code("B")
    F = _surface(code)
    s = splice_curves(F, 0)
    cls = classify_state(F, s)
    iness = sum(cl.inessential for cl in cls)
    nonori = sum(cl.mobius for cl in cls)
    assert len(s.curves) == 1 and nonori == 1 and iness == 0
    assert cls[0].mobius and not cls[0].separating


def test_structure_checks_clean_on_fixtures():
    for text in ("EMPTY", "O1+ U1+", "O1+ O2+ U1+ U2+", "B O1+ B U1+", "O1- U2- O3- U1- O2- U3-"):
        code = parse_code(text)
        F = _surface(code)
        for s in enumerate_states(F):
            assert check_nonseparation(F, s) == []
            assert check_pole_balance(F, s) == []


def test_state_report_shape():
    code = parse_code("O1+ U1+")
    F = _surface(code)
    rep = state_report(F, splice_curves(F, 1))
    assert rep["mask"] == 1 and rep["natural"] == -1
    assert len(rep["curves"]) == 1
    curve = rep["curves"][0]
    assert set(curve) == {"poles", "index", "inessential", "separating", "mobius", "hom"}


def test_pole_balance_random_sample():
    for seed in range(8):
        code = random_diagram(seed, 4, 2)
        F = _surface(code)
        for s in enumerate_states(F):
            assert check_pole_balance(F, s) == []


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


def test_nonseparation_check_reads_a_disk_curve_own_index():
    # a curve that bounds a disk separates, so the non-separation result
    # gives it index 0.  Flip the side of one pole on a fresh engine: the
    # classical trefoil lies on a sphere, so the curve through that pole
    # still bounds a disk, and the check must see its index, now positive
    code = parse_code("O1- U2- O3- U1- O2- U3-")
    F = _surface(code)
    seen = 0
    for bit in (0, 1):
        for a in range(12):
            eng = _Engine(F)
            b = eng.step[bit][a][0]
            if a > b or eng.side[bit][a] < 0:
                continue
            eng.side[bit][a] ^= 1
            eng.side[bit][b] ^= 1
            F._state_engine = eng
            bad = [v for s in enumerate_states(F) for v in check_nonseparation(F, s)]
            assert bad and all(cl.inessential and cl.index > 0 for _m, _ch, cl in bad)
            seen += 1
    assert seen == 6
