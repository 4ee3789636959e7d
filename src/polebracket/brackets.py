"""Assembly of the three bracket invariants from state sums.

The surface pole bracket keeps, per state, the class of its essential
curves; classes are keyed here by a computable signature: the sorted
multiset of (index, mobius, separating, homology class) over essential
curves.  The double bracket collapses the class to M^(one-sided count) times
a product of d_index variables, with d_0 = 1 and inessential curves each
contributing a delta factor.  The normalized invariant multiplies by
(-A)^(-3 writhe).

All three read one kind of state-sum count table (`states.CountTable`):
a row of counts per label, each keyed by an int that packs the inessential
count and the B-splice count.  The sum labels each state once per table
it is asked for: by its signature for the surface pole bracket, or by the
(M, d) part that the double bracket and R keep of it, for which no
signature is built.
`_fold` makes one pass over each row and adds each key's count times a
row of binomial coefficients (delta^n, expanded once per process) into an
{A-exponent: int} table per label, with R's writhe shift applied as it
folds.  The bracket's tables become A-only polynomials in one pass
(`laurent.a_polys`), and `BracketValue.to_text` formats each distinct
curve entry and each distinct coefficient once; the (M, d) tables become
one `MultiLaurent`.  `check` takes both tables from one sum and compares
the signature-collapsed bracket with that double bracket.  The sums here
fold bigons (see `states`): their tables hold fewer states than
`check`'s, but every polynomial is the same.  State evaluation partitions
the splice bitmask range across processes when asked; each worker returns
its count table, and the parent adds the rows label by label, exactly,
so worker count never changes a single output bit.  The process pool,
and with it `multiprocessing`, is imported only when a sum runs on more
than one worker, so a one-worker call loads neither.
"""

from __future__ import annotations

import os
from functools import cache
from math import comb
from operator import itemgetter
from typing import Iterator

from .codes import TwistedGaussCode
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
    # how many processes run them at once
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


def _fold(table: CountTable, k: int) -> Iterator[dict]:
    """Per label, Sum count * A^nat * delta^iness over its row of a count
    table, times (-A)^k: one {A-exponent: int} table per label, in label
    order, each made as it is read, so a reader that keeps only its
    polynomial holds one at a time.  Each key is read as the ints it packs,
    nat = c - 2 B-splices; every A-exponent shifts by k, and the signs flip
    when k is odd."""
    pb = table.pc_bits
    pc_mask = (1 << pb) - 1
    c, sign = table.c + k, -1 if k & 1 else 1
    for row in table.rows:
        t = {}
        for key, count in row.items():
            nat = c - 2 * (key & pc_mask)
            count *= sign
            for e, co in _delta_row(key >> pb):
                a = nat + e
                t[a] = t.get(a, 0) + co * count
        yield t


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


def _bracket(table: CountTable) -> BracketValue:
    """The surface pole bracket of a signature-labelled count table."""
    return BracketValue(a_polys(zip(table.labels, _fold(table, 0))))


def _double(table: CountTable, normalize: bool) -> MultiLaurent:
    """The double bracket, or with `normalize` R, of an (M, d)-labelled
    count table: R multiplies by (-A)^(-3 writhe)."""
    tables = _fold(table, -3 * table.writhe if normalize else 0)
    return MultiLaurent({(a, m, d): co for (m, d), t in zip(table.labels, tables) for a, co in t.items()})


def double_bracket(code: TwistedGaussCode, workers: int = 1) -> MultiLaurent:
    return _double(_counts(code, workers, "double"), False)


def surface_pole_bracket(code: TwistedGaussCode, workers: int = 1) -> BracketValue:
    return _bracket(_counts(code, workers))


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
    return _double(_counts(code, workers, "double"), True)


def ribbon_normalized(ribbon: RibbonComplex) -> MultiLaurent:
    """R of the code whose `build_ribbon` is `ribbon`, summed in one
    process: the move sweep keys each moved diagram by its ribbon, so it
    has the ribbon already, and the writhe is read off its rotations."""
    return _double(sum_counts(ClosedSurface(ribbon), 0, 1 << ribbon.n_crossings, True, "double"), True)
