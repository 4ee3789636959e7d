"""Assembly of the three bracket invariants from state sums.

The surface pole bracket keeps, per state, the class of its essential
curves; classes are keyed here by a computable signature: the sorted
multiset of (index, mobius, separating, homology class) over essential
curves.  The double bracket collapses the class to M^(one-sided count) times
a product of d_index variables, with d_0 = 1 and inessential curves each
contributing a delta factor.  The normalized invariant multiplies by
(-A)^(-3 writhe).

Both brackets read one state-sum table, keyed by (signature, natural,
inessential count); the double bracket collapses its keys instead of
running a second sum.  State evaluation partitions the splice bitmask range
across processes when asked; counts merge by exact integer addition, so
worker count never changes a single output bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .codes import TwistedGaussCode, parse_code, serialize, writhe
from .laurent import MultiLaurent, delta, minus_A_pow
from .states import sum_counts
from .surfaces import ClosedSurface, build_ribbon, cap_boundaries

Signature = tuple  # sorted per-curve tuples (index, mobius, separating, hom)


class BracketValue:
    """Signature-keyed value of the surface pole bracket; coefficients are
    Laurent polynomials in A only."""

    __slots__ = ("classes",)

    def __init__(self, classes: dict):
        cleaned = {}
        for sig, coeff in classes.items():
            if coeff:
                for (a, m, d), _c in coeff.terms.items():
                    if m or d:
                        raise ValueError("bracket coefficients must use A only")
                cleaned[sig] = coeff
        self.classes = cleaned

    def __eq__(self, other):
        return isinstance(other, BracketValue) and self.classes == other.classes

    def __repr__(self):
        return f"BracketValue({self.classes!r})"

    def items(self):
        return sorted(self.classes.items())

    def to_json(self) -> list:
        out = []
        for sig, coeff in self.items():
            out.append(
                {
                    "curves": [
                        {
                            "index": idx,
                            "mobius": bool(mob),
                            "separating": bool(sep),
                            "hom": list(hom),
                        }
                        for (idx, mob, sep, hom) in sig
                    ],
                    "coeff": coeff.to_json_terms(),
                }
            )
        return out

    def to_text(self) -> str:
        parts = []
        for sig, coeff in self.items():
            label = "[" + ", ".join(
                f"(i={idx},m={int(mob)},s={int(sep)},h={''.join(map(str, hom))})"
                for (idx, mob, sep, hom) in sig
            ) + "]"
            parts.append(f"({coeff.to_text()})*{label}")
        return " + ".join(parts) if parts else "0"


def _surface(code: TwistedGaussCode) -> ClosedSurface:
    return cap_boundaries(build_ribbon(code))


def _worker_counts(args):
    text, lo, hi = args
    return list(sum_counts(_surface(parse_code(text)), lo, hi).items())


def _counts(code: TwistedGaussCode, workers: int = 1) -> dict:
    total = 1 << len(code.crossing_ids)
    if workers <= 1 or total < 4 * workers:
        return sum_counts(_surface(code), 0, total)
    # the workers build their own surfaces; the parent needs none
    text = serialize(code)
    bounds = [total * i // workers for i in range(workers + 1)]
    jobs = [(text, bounds[i], bounds[i + 1]) for i in range(workers)]
    counts: dict = {}
    # the masks are still cut into `workers` jobs; the pool size only caps
    # how many processes run them at once
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        for part in pool.map(_worker_counts, jobs):
            for k, v in part:
                counts[k] = counts.get(k, 0) + v
    return counts


def _delta_powers(n: int) -> list[MultiLaurent]:
    powers = [MultiLaurent.one()]
    for _ in range(n):
        powers.append(powers[-1] * delta())
    return powers


def _double_from_counts(counts: dict) -> MultiLaurent:
    # collapse each class to (one-sided count, indices >= 1); the signature
    # is sorted by index, so the indices come out sorted
    dcounts: dict = {}
    for (sig, nat, iness), count in counts.items():
        mob = sum(1 for curve in sig if curve[1])
        key = (nat, iness, mob, tuple(curve[0] for curve in sig if curve[0] >= 1))
        dcounts[key] = dcounts.get(key, 0) + count
    if not dcounts:
        return MultiLaurent.one()
    dpow = _delta_powers(max(k[1] for k in dcounts))
    total = MultiLaurent.zero()
    for (nat, iness, nonori, idxs), count in sorted(dcounts.items()):
        term = MultiLaurent.A(nat) * count * dpow[iness]
        if nonori:
            term = term * MultiLaurent.M(nonori)
        for i in idxs:
            term = term * MultiLaurent.d(i)
        total = total + term
    return total


def _bracket_from_counts(counts: dict) -> BracketValue:
    dpow = _delta_powers(max((k[2] for k in counts), default=0))
    classes: dict = {}
    for (sig, nat, iness), count in sorted(counts.items()):
        coeff = MultiLaurent.A(nat) * count * dpow[iness]
        classes[sig] = classes.get(sig, MultiLaurent.zero()) + coeff
    return BracketValue(classes)


def double_bracket(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return _double_from_counts(_counts(code, workers))


def surface_pole_bracket(code: TwistedGaussCode, workers: int = 1) -> BracketValue:
    return _bracket_from_counts(_counts(code, workers))


def bracket_pair(F: ClosedSurface) -> tuple[BracketValue, MultiLaurent]:
    """(surface pole bracket, double bracket) from one state sum on F."""
    counts = sum_counts(F, 0, 1 << F.ribbon.n_crossings)
    return _bracket_from_counts(counts), _double_from_counts(counts)


def specialize_bracket(b: BracketValue) -> MultiLaurent:
    """Collapse bracket classes to the double-bracket variables: each curve
    of a signature becomes d_index (d_0 = 1), one-sided curves contribute M."""
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


def normalized(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return minus_A_pow(-3 * writhe(code)) * double_bracket(code, workers)


def assemble_from_table(rows) -> dict:
    """Pure assembly Sum A^natural * delta^iness per class label from rows
    (natural, iness_count, label); reproduces printed state tables."""
    out: dict = {}
    for (nat, iness, label) in rows:
        term = MultiLaurent.A(nat) * _delta_powers(iness)[iness]
        out[label] = out.get(label, MultiLaurent.zero()) + term
    return out
