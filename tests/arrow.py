"""A surface-free state sum: the arrow specialization of the surface pole
bracket, read off the Gauss code alone.

The arrow polynomial of Dye and Kauffman ("Virtual crossing number and the
arrow polynomial", JKTR 2009) and Miyazawa's polynomial (JKTR 2008) need no
surface, and N. Kamada's twisted-link invariant (Topology Appl. 2012)
generalizes them.  In the same spirit every state curve here contributes
delta times a label: M for a one-sided curve, d_i for a two-sided curve of
index i, with d_0 = 1.  The engine's output specializes to the same sum:
each signature's coefficient times delta per essential curve, M per
one-sided curve and d_i per curve of index i >= 1.

Nothing here comes from `states`, `surfaces` or `brackets`: no darts,
chords, bands or caps, and the index of a curve is taken by the
step-by-step rewriting `reference.reduce`, not in closed form.  The
conventions are re-derived from the code:

- Ports 4k + (oi, ui, oo, uo) at the k-th smallest crossing id, in the
  counterclockwise order (oi, ui, oo, uo) at a positive crossing and
  (oi, uo, oo, ui) at a negative one.  Naming that order (r0, r1, r2, r3),
  the A-splice pairs (r1, r2) and (r3, r0), the B-splice (r0, r1) and
  (r2, r3); a state's natural exponent is c - 2 (B-splices).
- A splice pair that joins two in-ports or two out-ports is a pole.  Its
  side, read from the port a curve enters it by, is 0 when the partner is
  that port's counterclockwise successor, else 1.
- Arcs run from each visit's out-port to the next visit's in-port along the
  component, flipped when an odd number of bars lies between them.  A
  component with no visits is one curve, one-sided when its bars are odd.
- A curve's word lists its poles' sides and a mark per flipped arc, in the
  order it meets them.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

from polebracket.codes import Bar, TwistedGaussCode, Visit
from polebracket.laurent import MultiLaurent, delta
from polebracket.polewords import MARK

from reference import reduce


@cache
def _index(word: tuple) -> int:
    return sum(1 for x in reduce(word) if x != MARK) // 2


def _ports(code: TwistedGaussCode):
    """(counterclockwise successor per port, splice pairs per crossing for
    the A- and the B-splice, far end and flip per arc end, flips of the bare
    loops)."""
    k_of = {cid: k for k, cid in enumerate(code.crossing_ids)}
    succ, splices = {}, []
    for cid, sign in sorted(code.signs().items()):
        oi, ui, oo, uo = (4 * k_of[cid] + j for j in range(4))
        r0, r1, r2, r3 = (oi, ui, oo, uo) if sign > 0 else (oi, uo, oo, ui)
        succ.update({r0: r1, r1: r2, r2: r3, r3: r0})
        splices.append((((r1, r2), (r3, r0)), ((r0, r1), (r2, r3))))
    arcs, bare = {}, []
    for comp in code.components:
        visits = [i for i, t in enumerate(comp) if isinstance(t, Visit)]
        if not visits:
            bare.append(sum(isinstance(t, Bar) for t in comp) & 1)
            continue
        for i, j in zip(visits, visits[1:] + visits[:1]):
            between = comp[i + 1:j] if i < j else comp[i + 1:] + comp[:j]
            flip = sum(isinstance(t, Bar) for t in between) & 1
            out = 4 * k_of[comp[i].crossing] + (2 if comp[i].over else 3)
            into = 4 * k_of[comp[j].crossing] + (0 if comp[j].over else 1)
            arcs[out] = (into, flip)
            arcs[into] = (out, flip)
    return succ, splices, arcs, bare


def _curves(partner: dict, succ: dict, arcs: dict):
    """(a port it passes, one-sided, index) of each curve of a state, given
    each port's splice partner."""
    seen = set()
    for start in partner:
        if start in seen:
            continue
        word, flips, port = [], 0, start
        while True:
            other = partner[port]
            seen.update((port, other))
            if (port % 4 < 2) == (other % 4 < 2):
                word.append(0 if succ[port] == other else 1)
            port, flip = arcs[other]
            if flip:
                word.append(MARK)
                flips ^= 1
            if port == start:
                break
        yield start, flips, _index(tuple(word))


def arrow_bracket(code: TwistedGaussCode) -> MultiLaurent:
    """Sum over the 2^c states of A^(c - 2 B-splices) times delta * label
    per curve."""
    succ, splices, arcs, bare = _ports(code)
    c = len(splices)
    states = Counter()
    for mask in range(1 << c):
        partner = {}
        for k, pairs in enumerate(splices):
            for a, b in pairs[mask >> k & 1]:
                partner[a], partner[b] = b, a
        labels = Counter((flips, idx) for _p, flips, idx in _curves(partner, succ, arcs))
        labels.update((flip, 0) for flip in bare)
        states[c - 2 * mask.bit_count(), frozenset(labels.items())] += 1
    out = MultiLaurent()
    d = delta()
    for (nat, labels), count in states.items():
        term = MultiLaurent.const(count) * MultiLaurent.A(nat)
        for (one_sided, idx), n in labels:
            label = MultiLaurent.M() if one_sided else MultiLaurent.one()
            if idx:
                label = label * MultiLaurent.d(idx)
            term = term * (d * label) ** n
        out = out + term
    return out
