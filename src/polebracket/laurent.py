"""Exact Laurent arithmetic in A, M and the index variables d_1, d_2, ...

The coefficient ring of the double bracket is Z[A, A^-1, M, d_1, d_2, ...].
A is invertible, M and the d_i are free commuting variables (no relation such
as M^2 = 1 is imposed).  A monomial is the triple

    (a_exp, m_exp, d_exps)

where d_exps is a tuple of (i, e) pairs sorted by i, with i >= 1 and e >= 1.
d_0 never appears: the convention d_0 = 1 is applied at assembly time.
Coefficients are arbitrary-precision ints; there is no floating point here.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Monomial = tuple[int, int, tuple[tuple[int, int], ...]]

_ONE_MONO: Monomial = (0, 0, ())


def _mul_mono(p: Monomial, q: Monomial) -> Monomial:
    a1, m1, d1 = p
    a2, m2, d2 = q
    if not d1:
        d = d2
    elif not d2:
        d = d1
    else:
        acc = dict(d1)
        for i, e in d2:
            acc[i] = acc.get(i, 0) + e
        d = tuple(sorted(acc.items()))
    return (a1 + a2, m1 + m2, d)


class MultiLaurent:
    """Immutable-by-convention sparse polynomial: dict monomial -> nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        """Keeps the nonzero coefficients of `terms`; `+` and `*` build their
        results here too, so this and `a_polys` are the places that drop zeros."""
        self.terms = {mono: c for mono, c in terms.items() if c} if terms else {}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "MultiLaurent":
        return MultiLaurent()

    @staticmethod
    def one() -> "MultiLaurent":
        return MultiLaurent({_ONE_MONO: 1})

    @staticmethod
    def const(n: int) -> "MultiLaurent":
        return MultiLaurent({_ONE_MONO: n})

    @staticmethod
    def A(k: int = 1) -> "MultiLaurent":
        return MultiLaurent({(k, 0, ()): 1})

    @staticmethod
    def M(k: int = 1) -> "MultiLaurent":
        return MultiLaurent({(0, k, ()): 1})

    @staticmethod
    def d(i: int, e: int = 1) -> "MultiLaurent":
        if i < 1 or e < 1:
            raise ValueError("d variables carry index >= 1 and exponent >= 1")
        return MultiLaurent({(0, 0, ((i, e),)): 1})

    # -- arithmetic --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.terms == (MultiLaurent.const(other)).terms
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "MultiLaurent":
        return MultiLaurent({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, int):
            other = MultiLaurent.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MultiLaurent(out)

    __radd__ = __add__

    def __sub__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, int):
            other = MultiLaurent.const(other)
        return self + (-other)

    def __rsub__(self, other: int) -> "MultiLaurent":
        return MultiLaurent.const(other) - self

    def __mul__(self, other: "MultiLaurent | int") -> "MultiLaurent":
        if isinstance(other, int):
            return MultiLaurent({m: c * other for m, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mul_mono(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return MultiLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiLaurent":
        if k < 0:
            raise ValueError("negative powers are only defined for A; use A(-k)")
        out = MultiLaurent.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- variable queries ----------------------------------------------------

    def pure_A(self) -> bool:
        """True when no monomial carries M or any d variable."""
        return all(m == 0 and not d for (_a, m, d) in self.terms)

    def uses_d(self, i: int) -> bool:
        return any(any(j == i for (j, _e) in d) for (_a, _m, d) in self.terms)

    # -- rendering ---------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic text form, e.g. "-A^3*d_1 + M*(-A^2-A^-2)".

        Terms are grouped by their (M, d) part; groups are ordered by
        (m_exp, d_exps) ascending, and each group's A-polynomial is printed
        with exponents descending.
        """
        if not self.terms:
            return "0"
        groups: dict[tuple[int, tuple[tuple[int, int], ...]], dict[int, int]] = {}
        for (a, m, d), c in self.terms.items():
            groups.setdefault((m, d), {})[a] = c
        pieces: list[str] = []
        for (m, d) in sorted(groups):
            apoly = groups[(m, d)]
            body = _a_poly_text(apoly)
            prefix = _var_text(m, d)
            if not prefix:
                pieces.append(body)
            elif len(apoly) > 1:
                pieces.append(f"{prefix}*({body})")
            elif body == "1":
                pieces.append(prefix)
            elif body == "-1":
                pieces.append("-" + prefix)
            else:
                pieces.append(f"{body}*{prefix}")
        out = pieces[0]
        for p in pieces[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def to_json(self) -> list[dict]:
        """Sorted term list [{"a": int, "m": int, "d": {"1": int}, "coeff": int}]."""
        rows = []
        for (a, m, d) in sorted(self.terms):
            rows.append(
                {
                    "a": a,
                    "m": m,
                    "d": {str(i): e for i, e in d},
                    "coeff": self.terms[(a, m, d)],
                }
            )
        return rows

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"MultiLaurent<{self.to_text()}>"


class _Monomials(dict):
    """A-exponent -> its monomial (a, 0, ()), made on first use."""

    def __missing__(self, a: int) -> Monomial:
        mono = self[a] = (a, 0, ())
        return mono


def a_polys(tables: Iterable) -> dict:
    """{label: Sum c A^a} of (label, {a: c}) pairs, in one pass that drops
    the zero c.  The polynomials share one monomial tuple per exponent, so
    the thousands of coefficients of a bracket hold a few dozen in all."""
    monos = _Monomials()
    out = {}
    for label, table in tables:
        p = out[label] = object.__new__(MultiLaurent)
        p.terms = {monos[a]: c for a, c in table.items() if c}
    return out


def _a_poly_text(apoly: dict[int, int]) -> str:
    # compact signed sum over A-exponents, descending: "-A^2-A^-2"
    out = []
    for a in sorted(apoly, reverse=True):
        c = apoly[a]
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        if a == 0:
            part = str(mag)
        else:
            apart = "A" if a == 1 else f"A^{a}"
            part = apart if mag == 1 else f"{mag}*{apart}"
        out.append(sign + part)
    return "".join(out)


def _var_text(m: int, d: tuple[tuple[int, int], ...]) -> str:
    fs = []
    if m == 1:
        fs.append("M")
    elif m > 1:
        fs.append(f"M^{m}")
    for i, e in d:
        fs.append(f"d_{i}" if e == 1 else f"d_{i}^{e}")
    return "*".join(fs)


def delta() -> MultiLaurent:
    """The loop weight -A^2 - A^-2."""
    return MultiLaurent({(2, 0, ()): -1, (-2, 0, ()): -1})


def minus_A_pow(k: int) -> MultiLaurent:
    """(-A)^k for any integer k, as (-1)^k A^k."""
    return MultiLaurent({(k, 0, ()): -1 if k % 2 else 1})
