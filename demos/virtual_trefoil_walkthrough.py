"""End-to-end tour of one diagram: the virtual trefoil.

Parses the code, reports the canonical realization surface, walks every
state with its loop count and pole word classes, then prints the three
bracket layers and the normalized invariant.
"""

from polebracket import (
    double_bracket,
    enumerate_states,
    normalized,
    parse_code,
    realize,
    serialize,
    state_report,
    surface_pole_bracket,
    writhe,
)

code = parse_code("O1+ O2+ U1+ U2+")
print("diagram:", serialize(code).strip())
print("writhe :", writhe(code))

F = realize(code)
print("surface:", F.report())
print()

print("states (mask = smoothing choice per crossing):")
for s in enumerate_states(F):
    r = state_report(F, s)
    tags = [
        f"index {c['index']}" + (" inessential" if c["inessential"] else "")
        for c in r["curves"]
    ]
    print(f"  mask {r['mask']:02b}  natural {r['natural']:+d}  curves [{', '.join(tags)}]")
print()

b = surface_pole_bracket(code)
print("surface pole bracket:")
print(b.to_text())
print()
print("double bracket:", double_bracket(code))
print("invariant R  :", normalized(code))
