"""Moves, and why R2 deletions are guarded.

apply_move rewrites a code in place of drawing pictures: insertions are
always legal, but a rewrite is only a move when the circle it sweeps
bounds a disk on the canonical realization and the surgery leaves the
surface type alone.  The token checks already give the disk for R2 and
R3, and an R3 triangle slide or a T3 bar slide never changes the surface,
so only an R2 deletion is guarded, by comparing the surface before and
after.  Two four-crossing-pattern look-alikes show the guard earning its
keep.
"""

import random

from polebracket import (
    MoveError,
    MoveSpec,
    apply_move,
    insert_sites,
    normalized,
    parse_code,
    r2_delete_sites,
    realize,
    serialize,
)

base = parse_code("O1+ O2+ U1+ U2+")
r0 = normalized(base)
print("base:", serialize(base).strip(), " R =", r0)
print()

# pile five random insertions on top; R never moves
rng = random.Random(7)
code = base
for step in range(5):
    spec = rng.choice(insert_sites(code, rng))
    code = apply_move(code, spec)
    assert normalized(code) == r0
    print(f"  +{spec.kind:<2} insert -> {serialize(code).strip()}")
print("R unchanged after 5 insertions:", normalized(code) == r0)
print()

# same O/U token pattern, opposite fates
planar = parse_code("U1+ U2- O2- O1+")   # realization is a sphere
torus = parse_code("U1+ U2- O1+ O2-")    # realization is a torus
for name, c in (("planar poke", planar), ("torus wrap ", torus)):
    F = realize(c)
    print(f"{name}: {serialize(c).strip()}  surface {F.report()['pieces']}")
    sites = r2_delete_sites(c)
    for spec in sites:
        after = apply_move(c, spec)
        print(f"    delete {spec.site} -> {serialize(after).strip() or 'EMPTY'}")
    if not sites:
        # force the textual candidate through anyway to see the guard speak
        try:
            apply_move(c, MoveSpec("R2", "delete", (0, 0, 0, 2)))
        except MoveError as e:
            print(f"    no legal site; forcing (0, 0, 0, 2) -> refused: {e}")
