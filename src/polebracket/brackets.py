"""Assembly of the three bracket invariants from state sums.

The surface pole bracket keeps, per state, the class of its essential
curves; classes are keyed here by a computable signature: the sorted
multiset of (index, mobius, separating, homology class) over essential
curves.  The double bracket collapses the class to M^(one-sided count) times
a product of d_index variables, with d_0 = 1 and inessential curves each
contributing a delta factor.  The normalized invariant multiplies by
(-A)^(-3 writhe).

Both brackets read one state-sum count table (`states.CountTable`), whose
int keys pack a signature id, the inessential count and the B-splice
count, beside the list of distinct signatures; the double bracket
collapses its signatures instead of running a second sum.  One routine,
`_fold`, makes one pass over the int keys and adds each key's count times
a row of binomial coefficients (delta^n, expanded once per process) into an
{A-exponent: int} table per label, and each bracket is a choice of label
per signature id: the signature itself, or its (M, d) part (the double
bracket), so each distinct signature is hashed or collapsed once.  The
bracket's tables become A-only polynomials in one pass
(`laurent.a_polys`), and `BracketValue.to_text` formats each distinct
curve entry and each distinct coefficient once.  The sums here fold R2
bigons (see `states`): their tables hold fewer states than `check`'s, but
every polynomial is the same.  State evaluation
partitions the splice bitmask range across processes when asked; each
worker returns its count table, whose signature ids are its own, and the
parent re-keys them by signature and adds the counts exactly, so worker
count never changes a single output bit.  The process pool, and with it
`multiprocessing`, is imported only when a sum runs on more than one
worker, so a one-worker call loads neither.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb
from operator import itemgetter

from .codes import TwistedGaussCode, writhe
from .laurent import MultiLaurent, _a_poly_text, a_polys
from .states import CountTable, sum_counts
from .surfaces import ClosedSurface, RibbonComplex, realize

Signature = tuple  # sorted per-curve tuples (index, mobius, separating, hom)


class BracketValue:
    """Signature-keyed value of the surface pole bracket; coefficients are
    Laurent polynomials in A only."""

    __slots__ = ("classes",)

    def __init__(self, classes: dict):
        cleaned = dict(classes)  # a copy keeps its keys' hashes
        for sig in [sig for sig, coeff in classes.items() if not coeff.terms]:
            del cleaned[sig]
        # the distinct monomials of all coefficients, each checked once
        monos = {mono for coeff in cleaned.values() for mono in coeff.terms}
        if any(m or d for _a, m, d in monos):
            raise ValueError("bracket coefficients must use A only")
        self.classes = cleaned

    def __eq__(self, other):
        return isinstance(other, BracketValue) and self.classes == other.classes

    def __repr__(self):
        return f"BracketValue({self.classes!r})"

    def items(self):
        """(signature, coefficient) pairs in signature order."""
        return sorted(self.classes.items(), key=itemgetter(0))

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
                    "coeff": coeff.to_json(),
                }
            )
        return out

    def to_text(self) -> str:
        """"(coefficient)*[curves]" per class, in signature order, joined by
        " + ".  Each distinct curve entry and each distinct coefficient is
        formatted once; a coefficient is printed as the A-polynomial it is,
        with `_a_poly_text`."""
        curve, poly = _CurveText(), _PolyText()
        parts = [
            f"({poly[tuple(coeff.terms.items())]})*[{', '.join(map(curve.__getitem__, sig))}]"
            for sig, coeff in self.items()
        ]
        return " + ".join(parts) if parts else "0"


class _CurveText(dict):
    """Signature entry -> its text, made on first use."""

    def __missing__(self, entry):
        idx, mob, sep, hom = entry
        text = self[entry] = f"(i={idx},m={int(mob)},s={int(sep)},h={''.join(map(str, hom))})"
        return text


class _PolyText(dict):
    """The (monomial, coefficient) items of an A-only polynomial -> its
    text, made on first use."""

    def __missing__(self, items):
        text = self[items] = _a_poly_text({a: c for (a, _m, _d), c in items})
        return text


def _worker_counts(args):
    code, lo, hi = args
    return sum_counts(realize(code), lo, hi, True)


def _counts(code: TwistedGaussCode, workers: int = 1) -> CountTable:
    total = 1 << len(code.crossing_ids)
    if workers <= 1 or total < 4 * workers:
        return sum_counts(realize(code), 0, total, True)
    # the workers build their own surfaces; the parent needs none
    bounds = [total * i // workers for i in range(workers + 1)]
    jobs = [(code, bounds[i], bounds[i + 1]) for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor

    # the masks are still cut into `workers` jobs; the pool size only caps
    # how many processes run them at once.  Each job's signature ids are its
    # own, and `CountTable.add` re-keys them by signature
    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        parts = iter(pool.map(_worker_counts, jobs))
        table = next(parts)
        for part in parts:
            table.add(part)
    return table


@cache
def _delta_row(k: int) -> tuple[tuple[int, int], ...]:
    """delta^k = (-1)^k Sum_j C(k, j) A^(2k - 4j), as (exponent, coefficient)
    pairs; each row is expanded once per process."""
    return tuple((2 * k - 4 * j, -comb(k, j) if k & 1 else comb(k, j)) for j in range(k + 1))


def _fold(table: CountTable, labels: list) -> dict:
    """Per label, Sum count * A^nat * delta^iness over a count table, the
    label of a key being labels[s] for its signature id s: one {A-exponent:
    int} table per label, in the order labels first appear.  Each label is
    hashed once, and each key is read as the ints it packs: nat = c - 2
    B-splices."""
    tables: dict = {}
    by_sig = [tables.setdefault(label, {}) for label in labels]
    counts, c, pb, sh = table.counts, table.c, table.pc_bits, table.shift
    pc_mask, iness_mask = (1 << pb) - 1, (1 << (sh - pb)) - 1
    rows = list(map(_delta_row, range(max((key >> pb & iness_mask for key in counts), default=0) + 1)))
    for key, count in counts.items():
        t = by_sig[key >> sh]
        nat = c - 2 * (key & pc_mask)
        for e, co in rows[key >> pb & iness_mask]:
            a = nat + e
            t[a] = t.get(a, 0) + co * count
    return tables


def _collapse(sig: Signature) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The (M, d) part a class collapses to: M per one-sided curve, d_index
    per curve with index >= 1 (d_0 = 1), as (M exponent, d exponents)."""
    mob = 0
    d: dict = {}
    for idx, m, _s, _h in sig:
        if m:
            mob += 1
        if idx >= 1:
            d[idx] = d.get(idx, 0) + 1
    return mob, tuple(sorted(d.items()))


def _double_from_counts(table: CountTable) -> MultiLaurent:
    tables = _fold(table, [_collapse(sig) for sig in table.sigs])
    return MultiLaurent({(a, m, d): c for (m, d), t in tables.items() for a, c in t.items()})


def _bracket_from_counts(table: CountTable) -> BracketValue:
    return BracketValue(a_polys(_fold(table, table.sigs)))


def double_bracket(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return _double_from_counts(_counts(code, workers))


def surface_pole_bracket(code: TwistedGaussCode, workers: int = 1) -> BracketValue:
    return _bracket_from_counts(_counts(code, workers))


def bracket_pair(table: CountTable) -> tuple[BracketValue, MultiLaurent]:
    """(surface pole bracket, double bracket) from one `sum_counts` table,
    which its caller also reads: the `check` battery counts each diagram's
    non-separation violations off it, checks the specialization identity on
    the pair, and reads R for the move sweep off the double bracket."""
    return _bracket_from_counts(table), _double_from_counts(table)


def specialize_bracket(b: BracketValue) -> MultiLaurent:
    """Collapse bracket classes to the double-bracket variables: each curve
    of a signature becomes d_index (d_0 = 1), one-sided curves contribute M."""
    table: dict = {}
    for sig, coeff in b.classes.items():
        m, d = _collapse(sig)
        for (a, _m, _d), c in coeff.terms.items():
            mono = (a, m, d)
            table[mono] = table.get(mono, 0) + c
    return MultiLaurent(table)


def writhe_normalize(code: TwistedGaussCode, double: MultiLaurent) -> MultiLaurent:
    """R = (-A)^(-3 writhe) times `double`, the code's double bracket: each
    A-exponent shifts by k = -3 writhe, and the signs flip when k is odd."""
    k = -3 * writhe(code)
    sign = -1 if k % 2 else 1
    return MultiLaurent({(a + k, m, d): sign * c for (a, m, d), c in double.terms.items()})


def normalized(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return writhe_normalize(code, double_bracket(code, workers))


def ribbon_normalized(code: TwistedGaussCode, ribbon: RibbonComplex) -> MultiLaurent:
    """`normalized(code)`, summed from `ribbon`, the code's own
    `build_ribbon`, in one process: the move sweep keys each moved diagram
    by its ribbon, so it has the ribbon already."""
    table = sum_counts(ClosedSurface(ribbon), 0, 1 << ribbon.n_crossings, True)
    return writhe_normalize(code, _double_from_counts(table))
