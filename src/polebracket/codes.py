"""Twisted Gauss codes: parsing, validation, writhe, random diagrams.

A twisted link diagram is stored as a list of components, each a cyclic
sequence of tokens.  A token is either a crossing visit (O or U, a positive
crossing id, and the crossing sign) or a bar B marking a half-twist on the
arc.  Virtual crossings are deliberately not represented: the surface
realization attaches nothing at them, so a signed Gauss code with bars
already determines the twisted link, and the virtual moves plus T2 hold by
construction.

Text format (.tgc): one component per line, whitespace-separated tokens
O<id><sign> / U<id><sign> / B, id in ASCII decimal digits, sign in {+,-}
(U+2212 reads as -); '#' starts a comment; a component with no tokens at
all is written as the single token EMPTY.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple, Sequence, Union


class CodeError(ValueError):
    """Raised for malformed .tgc text or invalid token structure."""


class Visit(NamedTuple):
    """One pass of a strand through a crossing, as an immutable named
    tuple.  Its hash is hash((crossing, over, sign)), which fixes the order
    in which a set of visits iterates."""

    crossing: int
    over: bool
    sign: int  # +1 or -1

    def __repr__(self) -> str:
        return token_text(self)


class Bar:
    """A half-twist on an arc.  Every bar equals every other, and hashes
    as the empty tuple; it has no fields, so it cannot be changed."""

    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "B"


BAR = Bar()

Token = Union[Visit, Bar]


def token_text(tok: Token) -> str:
    if isinstance(tok, Bar):
        return "B"
    return f"{'O' if tok.over else 'U'}{tok.crossing}{'+' if tok.sign > 0 else '-'}"


class TwistedGaussCode(NamedTuple):
    """A validated code, as an immutable named tuple of its components."""

    components: tuple[tuple[Token, ...], ...]

    @property
    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.signs()))

    def signs(self) -> dict[int, int]:
        """Crossing id -> sign, read in one pass over the code."""
        return {
            tok.crossing: tok.sign
            for comp in self.components
            for tok in comp
            if isinstance(tok, Visit)
        }

    def __repr__(self) -> str:
        return f"TwistedGaussCode<{serialize(self).strip().replace(chr(10), ' / ')}>"


def _validate(components: Sequence[Sequence[Token]]) -> None:
    """Raise CodeError unless every crossing id >= 1 has one O visit and one
    U visit with one sign, +1 or -1.  One pass files each visit's sign under
    its id on the O side or the U side, and a valid code has two equal
    sides with no id filed twice; only an invalid one runs `_first_fault`,
    which names the fault."""
    over: dict[int, int] = {}
    under: dict[int, int] = {}
    n = 0
    for comp in components:
        for tok in comp:
            if isinstance(tok, Visit):
                n += 1
                (over if tok.over else under)[tok.crossing] = tok.sign
    if (
        over == under
        and 2 * len(over) == n
        and min(over, default=1) >= 1
        and set(over.values()) <= {1, -1}
    ):
        return
    _first_fault(components)


def _first_fault(components: Sequence[Sequence[Token]]) -> None:
    """Raise CodeError on the first fault of a code: a bad id or sign,
    visits component by component, then crossings by id: a count other
    than two, two visits on one side, or two signs."""
    seen: dict[int, list[Visit]] = {}
    for ci, comp in enumerate(components):
        for tok in comp:
            if isinstance(tok, Visit):
                if tok.crossing < 1:
                    raise CodeError(f"component {ci + 1}: crossing id must be >= 1")
                if tok.sign not in (1, -1):
                    raise CodeError(f"component {ci + 1}: sign must be +1 or -1")
                seen.setdefault(tok.crossing, []).append(tok)
    for cid, visits in sorted(seen.items()):
        if len(visits) != 2:
            raise CodeError(
                f"crossing {cid} visited {len(visits)} time(s); need exactly one O and one U"
            )
        a, b = visits
        if a.over == b.over:
            role = "O" if a.over else "U"
            raise CodeError(f"crossing {cid} has two {role} visits; need one O and one U")
        if a.sign != b.sign:
            raise CodeError(f"crossing {cid} has mismatched signs on its two visits")


def make_code(components: Iterable[Iterable[Token]]) -> TwistedGaussCode:
    comps = tuple(tuple(c) for c in components)
    _validate(comps)
    return TwistedGaussCode(comps)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_SIGN = {"+": 1, "-": -1}


def parse_code(text: str) -> TwistedGaussCode:
    """Parse .tgc text into a validated code.

    A visit token is read by slicing: O or U, then ASCII digits (so a
    digit of another script, which `int` would read, is a bad token), then
    the sign.  Errors carry the 1-based component index and token offset.
    """
    components: list[tuple[Token, ...]] = []
    comp_no = 0
    for raw_line in text.replace("−", "-").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        comp_no += 1
        words = line.split()
        if "EMPTY" in words:
            if len(words) != 1:
                raise CodeError(
                    f"component {comp_no}: EMPTY must be the only token on its line"
                )
            components.append(())
            continue
        toks: list[Token] = []
        for off, w in enumerate(words):
            if w == "B":
                toks.append(BAR)
                continue
            head, digits, sign = w[0], w[1:-1], _SIGN.get(w[-1])
            if sign is None or head not in "OU" or not (digits.isascii() and digits.isdigit()):
                raise CodeError(
                    f"component {comp_no}, token {off + 1}: bad token {w!r}"
                )
            # the named tuple, made without its Python-level __new__
            toks.append(tuple.__new__(Visit, (int(digits), head == "O", sign)))
        components.append(tuple(toks))
    return make_code(components)


def serialize(code: TwistedGaussCode) -> str:
    """Emit .tgc text; literal inverse of parse_code (round-trips exactly)."""
    lines = []
    for comp in code.components:
        lines.append(" ".join(token_text(t) for t in comp) if comp else "EMPTY")
    return "\n".join(lines) + ("\n" if lines else "")


def writhe(code: TwistedGaussCode) -> int:
    """Sum of crossing signs, each crossing counted once."""
    return sum(code.signs().values())


# ---------------------------------------------------------------------------
# random diagrams for the verification corpus
# ---------------------------------------------------------------------------


def random_diagram(
    seed: int, crossings: int, bars: int, components: int = 1
) -> TwistedGaussCode:
    """Deterministic pseudo-random valid code with the requested counts.

    Validity, not any particular value, is the contract.  Raises on
    infeasible parameter combinations (components exceeding the available
    strand supply 2*crossings + bars, except that a single bare loop is
    always allowed).
    """
    if crossings < 0 or bars < 0:
        raise ValueError("crossings and bars must be >= 0")
    if components < 1:
        raise ValueError("components must be >= 1")
    if components > max(1, 2 * crossings + bars):
        raise ValueError("components exceeding available strands")
    rng = random.Random(seed)
    visits: list[Token] = []
    for cid in range(1, crossings + 1):
        sign = rng.choice((1, -1))
        visits.append(Visit(cid, True, sign))
        visits.append(Visit(cid, False, sign))
    rng.shuffle(visits)
    comps: list[list[Token]] = [[] for _ in range(components)]
    # deal one visit to each component first so none is accidentally bare
    for i, tok in enumerate(visits):
        if i < components:
            comps[i].append(tok)
        else:
            comps[rng.randrange(components)].append(tok)
    for _ in range(bars):
        c = comps[rng.randrange(components)]
        c.insert(rng.randrange(len(c) + 1), BAR)
    return make_code(comps)
