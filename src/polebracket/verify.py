"""Verification corpus and the `check` battery.

Everything here is deterministic in the seed.  The fixture lists feed the
classical-specialization and fixture-value checks; the random corpora feed
`run_battery`, which checks each diagram in one pass: pole balance,
non-separation, the specialization identity, and then R under every move
site (twisted diagrams) or the planar oracle (classical ones).  The move
sweep sums each distinct realization once, keyed by the moved diagram's
ribbon: the sum reads nothing else, and the ribbon's rotations fix every
crossing's sign, so the key is exact; a miss sums from that ribbon, with
its bigons folded.  The diagram's own sum folds none, because the
battery counts and checks every state.  Classical fixtures are produced by
braid closure so their planarity is by construction, not by luck.
"""

from __future__ import annotations

import random

from .brackets import _bracket, _double, ribbon_normalized, specialize_bracket
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
from .surfaces import build_ribbon, realize


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
# the battery


def all_move_sites(code: TwistedGaussCode, rng) -> list:
    return (
        r1_delete_sites(code)
        + r2_delete_sites(code)
        + r3_sites(code)
        + t1_delete_sites(code)
        + t3_sites(code)
        + insert_sites(code, rng)
    )


def move_invariance(code: TwistedGaussCode, ribbon, before, rng):
    """R of `code`, `before`, against R after each move site drawn from
    `rng`; a site fails if R changes, `apply_move` rejects it or the moved
    sum raises.  `ribbon` is the code's own `build_ribbon`.  Returns
    (checked, [(code, site), ...]).

    Each distinct realization is summed once: R is kept per moved ribbon,
    starting from the code's own.  This is exact, because everything the
    sum reads is the ribbon, and its rotations fix every crossing's sign,
    so equal ribbons have equal writhe and equal R.  T1 and T2 sites, and
    insert draws that repeat, sum nothing, nor do diagrams that differ only
    in their crossing labels: the ribbon keeps none.  A miss sums from the
    ribbon it was keyed by, with its bigons folded, which every R2 insert
    makes.  A rejected move or a refused sum stores nothing, so each such
    site fails."""
    seen = {ribbon: before}
    sites = all_move_sites(code, rng)
    failures = []
    for spec in sites:
        try:
            moved = apply_move(code, spec)
            key = build_ribbon(moved)
            if key not in seen:
                seen[key] = ribbon_normalized(key)
            ok = seen[key] == before
        except (MoveError, AssertionError):
            # a site the enumerators offer must be one the move takes, and
            # the moved diagram's sum must not refuse a curve
            ok = False
        if not ok:
            failures.append((code, spec))
    return len(sites), failures


def run_battery(seed: int, count: int):
    """The `check` subcommand's battery; count scales the corpus sizes.
    Returns a list of (label, checked, failures).  One state sum per
    diagram, and no state walk: pole balance is counted on the surface's
    caps (one failure per unbalanced region of a state), non-separation is
    read off its signature-labelled count table (one per (state, curve)
    that breaks it), the surface pole bracket comes from that table, and the
    double bracket and R from the same sum's (M, d)-labelled table.  That
    sum folds no bigon, so it counts,
    and checks, every state; the move sweep's sums fold them, and it keys
    the diagram by the surface's own ribbon.  A sum that raises
    AssertionError (the engine refused a curve) is one non-separation
    failure with all its states checked, and its diagram gets no other
    check."""
    twisted = corpus_twisted(seed, count)
    classical = corpus_classical(seed + 1, max(1, count // 4))
    classical += [code for _name, code in classical_fixtures()]
    rng = random.Random(seed)
    states = summed = moved = oracled = 0
    move_bad, t1_bad, l2_bad, spec_bad, oracle_bad = [], [], [], [], []
    for i, code in enumerate(twisted + classical):
        F = realize(code)
        l2_bad += [(code, v) for v in check_pole_balance(F)]
        try:
            table, part = sum_counts(F, 0, 1 << F.ribbon.n_crossings, False, "both")
        except AssertionError:
            states += 1 << F.ribbon.n_crossings
            t1_bad.append(code)
            continue
        states += sum(table.counts.values())
        t1_bad += [code] * check_nonseparation(table)
        bracket, double = _bracket(table), _double(part, False)
        summed += 1
        if specialize_bracket(bracket) != double:
            spec_bad.append(code)
        if i < len(twisted):
            checked, bad = move_invariance(code, F.ribbon, _double(part, True), rng)
            moved += checked
            move_bad += bad
        else:
            oracled += 1
            if double != classical_kauffman_oracle(code) or not double.pure_A():
                oracle_bad.append(code)
    return [
        ("move invariance of R", moved, move_bad),
        ("essential curves never separate", states, t1_bad),
        ("region pole balance", states, l2_bad),
        ("specialization identity", summed, spec_bad),
        ("classical bracket oracle", oracled, oracle_bad),
    ]
