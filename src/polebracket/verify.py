"""Verification corpus and property sweeps.

Everything here is deterministic in the seed.  The fixture lists feed the
classical-specialization and fixture-value checks; the random corpora feed
the move-invariance, non-separation, pole-balance, and specialization-identity
sweeps.  Classical fixtures are produced by braid closure so their planarity
is by construction, not by luck.
"""

from __future__ import annotations

import random

from .brackets import bracket_pair, normalized, specialize_bracket, writhe_normalize
from .codes import TwistedGaussCode, Visit, make_code, parse_code, random_diagram
from .moves import (
    MoveError,
    apply_move,
    insert_sites,
    r1_delete_sites,
    r2_delete_sites,
    r3_sites,
    t1_delete_sites,
    t3_sites,
)
from .oracle import classical_kauffman_oracle
from .states import check_nonseparation, check_pole_balance, sum_counts
from .surfaces import build_ribbon, cap_boundaries


# ---------------------------------------------------------------------------
# braid closures


def braid_closure(word, strands: int) -> TwistedGaussCode:
    """Close the braid given by (index, exponent) letters, index in
    1..strands-1.  A positive letter crosses the strand at `index` over its
    right neighbour."""
    if strands < 1:
        raise ValueError("strands must be >= 1")
    occupant = list(range(strands))
    tokens: list[list] = [[] for _ in range(strands)]
    for cid, (i, e) in enumerate(word, start=1):
        if not (1 <= i < strands) or e not in (1, -1):
            raise ValueError(f"bad braid letter ({i}, {e})")
        a, b = occupant[i - 1], occupant[i]
        tokens[a].append(Visit(cid, e > 0, e))
        tokens[b].append(Visit(cid, e < 0, e))
        occupant[i - 1], occupant[i] = b, a
    end_pos = {occupant[p]: p for p in range(strands)}
    comps = []
    seen: set[int] = set()
    for s in range(strands):
        if s in seen:
            continue
        comp: list = []
        cur = s
        while True:
            seen.add(cur)
            comp.extend(tokens[cur])
            cur = end_pos[cur]
            if cur == s:
                break
        comps.append(comp)
    return make_code(comps)


# ---------------------------------------------------------------------------
# fixtures


def classical_fixtures() -> list[tuple[str, TwistedGaussCode]]:
    """Named classical diagrams whose realization is a sphere union."""
    return [
        ("unknot", parse_code("EMPTY")),
        ("kink+", parse_code("O1+ U1+")),
        ("kink-", parse_code("O1- U1-")),
        ("poke unknot", parse_code("U1+ U2- O2- O1+")),
        ("double kink", parse_code("O1+ U1+ O2- U2-")),
        ("slide unknot", parse_code("O1+ U2+ U3- U1+ O2+ O3-")),
        ("trefoil", braid_closure([(1, 1)] * 3, 2)),
        ("figure-eight", braid_closure([(1, 1), (2, -1), (1, 1), (2, -1)], 3)),
    ]


def twisted_fixtures() -> list[tuple[str, TwistedGaussCode]]:
    return [
        ("one-bar loop", parse_code("B")),
        ("two-bar loop", parse_code("B B")),
        ("virtual trefoil", parse_code("O1+ O2+ U1+ U2+")),
        ("barred kink", parse_code("B O1+ B U1+")),
        ("trefoil", parse_code("O1- U2- O3- U1- O2- U3-")),
    ]


# ---------------------------------------------------------------------------
# corpora


def corpus_twisted(
    seed: int, count: int = 200, max_crossings: int = 8
) -> list[TwistedGaussCode]:
    """Random twisted diagrams, <= max_crossings crossings and <= 4 bars each."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        c = rng.randrange(0, max_crossings + 1)
        b = rng.randrange(0, 5)
        k = 2 if rng.randrange(4) == 0 and 2 * c + b >= 2 else 1
        out.append(random_diagram(seed * 100003 + i, c, b, components=k))
    return out


def corpus_classical(seed: int, count: int = 50) -> list[TwistedGaussCode]:
    """Random braid closures of 1 to 7 crossings; planar by construction."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.randrange(2, 5)
        length = rng.randrange(1, 8)
        word = [
            (rng.randrange(1, strands), rng.choice((1, -1))) for _ in range(length)
        ]
        out.append(braid_closure(word, strands))
    return out


# ---------------------------------------------------------------------------
# sweeps; each returns (checked count, failure list)


def all_move_sites(code: TwistedGaussCode, rng) -> list:
    return (
        r1_delete_sites(code)
        + r2_delete_sites(code)
        + r3_sites(code)
        + t1_delete_sites(code)
        + t3_sites(code)
        + insert_sites(code, rng)
    )


def sweep_move_invariance(diagrams, doubles, seed: int = 0):
    """R of each diagram, read off its double bracket in `doubles`, against
    R after each move site; a site that `apply_move` rejects fails too."""
    rng = random.Random(seed)
    checked = 0
    failures = []
    for code, double in zip(diagrams, doubles, strict=True):
        before = writhe_normalize(code, double)
        for spec in all_move_sites(code, rng):
            checked += 1
            try:
                ok = normalized(apply_move(code, spec)) == before
            except MoveError:
                # a site the enumerators offer must be one the move takes
                ok = False
            if not ok:
                failures.append((code, spec))
    return checked, failures


def sweep_states(diagrams):
    """Non-separation and pole-balance checks over every state, the
    specialization identity and each diagram's double bracket, from one
    state sum per diagram and no state walk.  Non-separation is read off
    the sum's count table, one failure per (state, curve) that breaks it;
    pole balance is counted on the surface's caps, one failure per
    unbalanced region of a state."""
    states = 0
    t1_bad = []
    l2_bad = []
    spec_bad = []
    doubles = []
    for code in diagrams:
        F = cap_boundaries(build_ribbon(code))
        counts = sum_counts(F, 0, 1 << F.ribbon.n_crossings)
        states += sum(counts.values())
        t1_bad += [code] * check_nonseparation(counts)
        l2_bad += [(code, v) for v in check_pole_balance(F)]
        bracket, double = bracket_pair(counts)
        if specialize_bracket(bracket) != double:
            spec_bad.append(code)
        doubles.append(double)
    return states, t1_bad, l2_bad, spec_bad, doubles


def sweep_classical_oracle(diagrams, doubles):
    """Double brackets of classical diagrams against the planar oracle."""
    failures = []
    for code, value in zip(diagrams, doubles):
        if value != classical_kauffman_oracle(code) or not value.pure_A():
            failures.append(code)
    return len(diagrams), failures


def run_battery(seed: int, count: int):
    """The `check` subcommand's battery; count scales the corpus sizes.
    Returns a list of (label, checked, failures)."""
    twisted = corpus_twisted(seed, count)
    classical = corpus_classical(seed + 1, max(1, count // 4))
    classical += [code for _name, code in classical_fixtures()]
    # the state sweep sums every diagram once; the move sweep reads the
    # twisted diagrams' R off those sums
    diagrams = twisted + classical
    states, t1_bad, l2_bad, spec_bad, doubles = sweep_states(diagrams)
    checked, bad = sweep_move_invariance(twisted, doubles[:len(twisted)], seed)
    results = [("move invariance of R", checked, bad)]
    results.append(("essential curves never separate", states, t1_bad))
    results.append(("region pole balance", states, l2_bad))
    results.append(("specialization identity", len(diagrams), spec_bad))
    checked, bad = sweep_classical_oracle(classical, doubles[len(twisted):])
    results.append(("classical bracket oracle", checked, bad))
    return results
