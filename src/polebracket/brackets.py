"""Assembly of the three bracket invariants from state sums.

The surface pole bracket keeps, per state, the class of its essential
curves; classes are keyed here by a computable signature: the sorted
multiset of (index, mobius, separating, homology class) over essential
curves.  The double bracket collapses the class to M^(one-sided count) times
a product of d_index variables, with d_0 = 1 and inessential curves each
contributing a delta factor.  The normalized invariant multiplies by
(-A)^(-3 writhe).

The surface pole bracket reads one state-sum count table
(`states.CountTable`), whose int keys pack a signature id, the inessential
count and the B-splice count, beside the list of distinct signatures.
`_fold` makes one pass over the int keys and adds each key's count times a
row of binomial coefficients (delta^n, expanded once per process) into an
{A-exponent: int} table per signature, so each distinct signature is
hashed once.  The bracket's tables become A-only polynomials in one pass
(`laurent.a_polys`), and `BracketValue.to_text` formats each distinct
curve entry and each distinct coefficient once.  The double bracket and R
build no signature: they are read straight off the state sum's leaf keys
(`states.DoubleCounts`), whose keys pack an (M, d) label in place of the
signature id, and `_fold_double` folds them the same way, per label, with
R's writhe shift applied as it folds.  `check` folds both from one sum and
compares the signature-collapsed bracket with that double bracket.  The sums
here fold bigons (see `states`): their tables hold fewer states than
`check`'s, but every polynomial is the same.  State evaluation partitions
the splice bitmask range across processes when asked; each worker returns
its count table, whose signature ids are its own, and the parent re-keys
them by signature and adds the counts exactly, or its double counts, whose
labels are the same in every process, and the parent adds them as they are;
so worker count never changes a single output bit.  The process pool, and
with it `multiprocessing`, is imported only when a sum runs on more than one
worker, so a one-worker call loads neither.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb
from operator import itemgetter

from .codes import TwistedGaussCode
from .laurent import MultiLaurent, _a_poly_text, a_polys
from .states import CountTable, DoubleCounts, sum_counts
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
    code, lo, hi, want = args
    return sum_counts(realize(code), lo, hi, True, want)


def _counts(code: TwistedGaussCode, workers: int = 1, want: str = "table"):
    """The `sum_counts` result `want` asks for ("table" or "double") of
    the code's full range, the range cut into `workers` jobs."""
    total = 1 << len(code.crossing_ids)
    if workers <= 1 or total < 4 * workers:
        return sum_counts(realize(code), 0, total, True, want)
    # the workers build their own surfaces; the parent needs none
    bounds = [total * i // workers for i in range(workers + 1)]
    jobs = [(code, bounds[i], bounds[i + 1], want) for i in range(workers)]
    from concurrent.futures import ProcessPoolExecutor

    # the masks are still cut into `workers` jobs; the pool size only caps
    # how many processes run them at once.  Each count table's signature
    # ids are its own, and `CountTable.add` re-keys them by signature;
    # double-bracket labels are the same everywhere, so those add as they are
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


def _fold_double(part: DoubleCounts, normalize: bool) -> MultiLaurent:
    """The double bracket, or with `normalize` R, of a sum's double counts:
    Sum count * A^nat * delta^iness per (M, d) label, one {A-exponent: int}
    table each, and then each label unpacked once to its (M, d) part.  R
    multiplies by (-A)^(-3 writhe): every A-exponent shifts by k = -3
    writhe, and the signs flip when k is odd."""
    c, pb, sh, width = part.c, part.pc_bits, part.shift, part.width
    pc_mask, iness_mask, field = (1 << pb) - 1, (1 << (sh - pb)) - 1, (1 << width) - 1
    k = -3 * part.writhe if normalize else 0
    sign = -1 if k & 1 else 1
    tables: dict = {}
    for key, count in part.counts.items():
        t = tables.get(key >> sh)
        if t is None:
            t = tables[key >> sh] = {}
        nat = c - 2 * (key & pc_mask) + k
        count *= sign
        for e, co in _delta_row(key >> pb & iness_mask):
            a = nat + e
            t[a] = t.get(a, 0) + co * count
    terms: dict = {}
    for label, t in tables.items():
        # field 0 holds M's exponent, field i >= 1 d_i's
        d, i, rest = [], 1, label >> width
        while rest:
            if rest & field:
                d.append((i, rest & field))
            rest >>= width
            i += 1
        m, d = label & field, tuple(d)
        for a, co in t.items():
            terms[a, m, d] = co
    return MultiLaurent(terms)


def _bracket_from_counts(table: CountTable) -> BracketValue:
    return BracketValue(a_polys(_fold(table, table.sigs)))


def double_bracket(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return _fold_double(_counts(code, workers, "double"), False)


def surface_pole_bracket(code: TwistedGaussCode, workers: int = 1) -> BracketValue:
    return _bracket_from_counts(_counts(code, workers))


def bracket_pair(table: CountTable, part: DoubleCounts) -> tuple[BracketValue, MultiLaurent]:
    """(surface pole bracket, double bracket) from the count table and the
    double counts of one `sum_counts` call, which its caller also reads:
    the `check` battery counts each diagram's non-separation violations off
    the table and checks the specialization identity on the pair, which
    compares the signature-collapsed bracket with the double bracket folded
    off the leaf keys."""
    return _bracket_from_counts(table), _fold_double(part, False)


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


def normalized(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return _fold_double(_counts(code, workers, "double"), True)


def ribbon_normalized(ribbon: RibbonComplex) -> MultiLaurent:
    """R of the code whose `build_ribbon` is `ribbon`, summed in one
    process: the move sweep keys each moved diagram by its ribbon, so it
    has the ribbon already, and the writhe is read off its rotations."""
    part = sum_counts(ClosedSurface(ribbon), 0, 1 << ribbon.n_crossings, True, "double")
    return _fold_double(part, True)
