"""R and each state's curve kinds against `surface_oracle.py`, which reads
them off the Gauss code alone.

`test_arrow.py` checks the state trace and the pole-word indices, but its
oracle weighs every curve delta times its label, so it forgets the disk
test.  This oracle makes its own: it counts each state's regions on the
ports, with no ribbon, caps, homology or cutter from `surfaces`.  So a
fault in the ribbon's rotations, the corner rule, the cap table or the
disk test shows here even though the engine and the reference engine of
`test_reference_engine.py` would share it.

Disks and essential curves of index 0 differ by delta, and an essential
curve separates only in rare states, so `SEPARATING` pins codes that have
one: without them, an oracle that let every separating curve bound a disk
would still agree on nearly every code.  State by state, two two-sided
curves must share the engine's Z/2 class just when the oracle finds that
their union bounds, which does not depend on the engine's basis.
"""

from collections import Counter
from itertools import combinations

from hypothesis import given, settings

from polebracket import states
from polebracket.brackets import normalized
from polebracket.codes import parse_code, serialize
from polebracket.states import classify_state, enumerate_states, pole_regions
from polebracket.surfaces import realize
from polebracket.verify import (
    classical_fixtures, corpus_classical, corpus_twisted, random_diagram, twisted_fixtures,
)

from surface_oracle import bounding_pairs, oracle_normalized, oracle_states, pieces
from test_reference_engine import diagrams

NAMED = ["EMPTY\nEMPTY", "B\nO1+ U1+", "O1+ U1+\nEMPTY", "O1- U2- O3- U1- O2- U3-\nB B",
         "B O1+ B U1+\nB", "O1+ O2- U1+ U2-"]

# 429 codes: every surface kind up to c = 9, split diagrams and bare loops
R_CORPUS = [code for seed in range(1, 7) for code in corpus_twisted(seed, 40)]
R_CORPUS += corpus_classical(1, 50)
R_CORPUS += [code for _n, code in classical_fixtures() + twisted_fixtures()]
R_CORPUS += [random_diagram(s, 6 + s % 4, s % 3, 1 + s % 2) for s in range(120)]
R_CORPUS += [parse_code(text) for text in NAMED]

# `random_diagram(s, 7 + s % 3, s // 3 % 4, 1 + s // 12 % 3)` over s < 900:
# the first 24 codes with a state holding an essential separating curve
SEPARATING = [parse_code(text) for text in (
    "B U1+ B O4- U5- O3- U2- O2- O7-\nU3- U6+ B U4- O1+ O6+ U7- O5-",
    "O1- O3+ U3+ O4- U5-\nU4- O7- O8+ U1-\nO5- O2+ O6+ U7- U2+ U6+ U8+",
    "U7- B U4+ U1+ U8+\nU6- O7- O4+\nU3+ O3+ O5+ O1+ O6- U2+ U5+ O8+ O2+",
    "O7- U2- U1+ O5+ U4+ U7- O4+ O2- U3- O3- O6+ B O1+ U5+ U6+",
    "B O4- U6- U2- O5+ O6- U3- B O2- U5+ B O3- O7- U7- U4- U1- O1-",
    "U4+ O6- O9+ O4+ U6- O8- O3- U9+\nO1- O5- U8- O7+ U5- U2- U1- U7+ U3- O2-",
    "O3+ U7- O1+ U2+ B O2+ O7- O4- O5+ O6+ U8+ O8+\nB U1+ U3+ U5+ U4- U6+",
    "U3- B U4+ O5- U7-\nB O4+ U6- O3- O7-\nU2- O1+ O6- U5- O2- U1+",
    "O3+ U5- U7- U8- U1- U2+ U3+\nO7- B O5-\nO6- O9- O4- O8- B O2+ O1- U9- U4- U6-",
    "B O4+ O2- U4+ U2-\nO7- U7- O8+ U5- U3- O1+ O3-\nO6- O5- U8+ U6- U1+",
    "O4- U9- U3- B U6- U8- U5+ O2-\nB U4- O1+ O7+ B O9- U7+ O8- O6- O5+ U1+\nO3- U2-",
    "O4+ U4+ U5- U1- O7- B U3+ U2+ O6- O3+ O8- U6- O2+ U7- B O5- O1- U8-",
    "U2+ O5- O4+ U5- O2+ O6+ U3- U6+ O3-\nU4+ O1+ O7+ U1+ U7+",
    "U1- O4+ U3- O6+ U2+ B O3- U7+ O2+ U6+\nU4+ O1- B U5- O7+ B O5-",
    "U6- U2- O7+ U1- U7+ O6- U3- B U4-\nU8- B O3- O2- O4- U5+ B O1- O8- O5+",
    "U5- O7+ O6+ O2- O4- O5-\nO8- U7+ U8- O1- U2- O3-\nU3- U4- U1- U6+",
    "U5+ O2+ U3- B U2+ O1- O4+ U4+\nO5+ U7+ U1- O6+ O3- U6+ O7+",
    "O3- O2- O9+ O8+ U5+\nU7- U6- U9+ O5+ O7-\nO6- O4+ U2- U3- U1- U4+ U8+ O1-",
    "U7+ U3+ U1- U4+ O4+ U6+ O7+ O5- O3+ U2- B O2- B B U5- O1- O6+",
    "O4+ O2- O1+ U2- U1+ U7- O6- O3- O7- B\nU3- U6- O5- B B U4+ U5-",
    "O9+ B U5+ O7- O6+\nU9+ O1+ U7-\nO2+ O8+ O5+ U6+ U8+ U4+ O4+ U1+ O3- U2+ U3-",
    "U3- U5+ B O3- O7+ O6-\nO4+ U2+ U4+ U1- O2+ O1-\nB U6- U7+ O5+",
    "O5+ U2+ O8+ U7+ U3- U6+ O1- O4+\nU5+ U4+ B B O6+ O7+ B O3- O2+ U8+ U1-",
    "O1- U8- B O5+\nO7+ U3+ O2- O6+ O3+ U7+ B\nU6+ U2- U1- B O8- U5+ U4+ O4+",
)]

# c <= 10, state by state
STATE_CORPUS = corpus_twisted(7, 60, 10) + [
    random_diagram(s, 10, s % 4, 1 + s % 3) for s in range(12)
]


def test_R_matches_oracle_on_corpus():
    for code in R_CORPUS + SEPARATING:
        assert oracle_normalized(code) == normalized(code), serialize(code)


@given(diagrams(max_crossings=9))
@settings(max_examples=30, deadline=None)
def test_R_matches_oracle(code):
    assert oracle_normalized(code) == normalized(code)


def _engine_label(cl) -> tuple:
    if cl.inessential:
        return ("disk",)
    if cl.mobius:
        return ("one-sided", cl.index)
    return ("essential", cl.index, cl.separating)


def assert_states_match_oracle(code) -> Counter:
    """Compare each state's B-splices, curve kinds and regions' pole loads
    (`pole_regions`), and whether two two-sided curves share a Z/2 class
    (`hom_class`) with whether their union bounds (`bounding_pairs`).  On
    the oracle's own regions, check that each region balances its poles
    and that no essential curve of positive index separates.  Returns the
    number of essential separating curves, and of pairs of two-sided
    curves of one nonzero class."""
    F = realize(code)
    walked = zip(enumerate_states(F), pole_regions(F), oracle_states(code), strict=True)
    # an oracle curve is matched to the engine's by the band at its port,
    # whose bit is in the key of exactly one curve of the state
    band_at, nc = F.ribbon.band_at, states._engine(F).n_chords
    found = Counter()
    for s, regions, (b, labels, loads, euler, curves) in walked:
        where = (serialize(code), s.choice)
        assert s.natural == F.ribbon.n_crossings - 2 * b, where
        classes = classify_state(F, s)
        assert Counter(map(_engine_label, classes)) == Counter(labels), where
        assert Counter(regions) == loads, where
        assert all(i == o for i, o in loads), where
        for label in labels:
            if label[0] == "essential" and label[2]:
                assert label[1] == 0, where
                found["essential separating"] += 1
        hom = [next(cl.hom_class for cv, cl in zip(s.curves, classes) if cv.key >> nc >> band_at[p][2] & 1)
               for *_curve, p in curves]
        pairs = bounding_pairs(euler, curves)
        for i, j in combinations([i for i, cv in enumerate(curves) if not cv[0]], 2):
            assert (hom[i] == hom[j]) == ((i, j) in pairs), where + (i, j)
            if hom[i] == hom[j] and any(hom[i]):
                found["one nonzero class"] += 1
    return found


def test_states_match_oracle():
    found = Counter()
    for code in STATE_CORPUS:
        found += assert_states_match_oracle(code)
    assert found["one nonzero class"] > 0, found


def test_separating_corpus_matches_oracle_state_by_state():
    for code in SEPARATING:
        assert assert_states_match_oracle(code)["essential separating"] > 0, serialize(code)


def test_pieces_match_info():
    for code in R_CORPUS + SEPARATING:
        F = realize(code)
        assert Counter((p.euler, p.orientable) for p in F.pieces) == pieces(code), serialize(code)
