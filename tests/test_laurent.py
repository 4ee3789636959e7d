import pytest
from hypothesis import given, strategies as st

from polebracket.laurent import MultiLaurent, delta, minus_A_pow


def test_zero_one_identities():
    z = MultiLaurent.zero()
    o = MultiLaurent.one()
    assert not z
    assert o
    assert z + o == o
    assert o * z == z
    assert o * o == o
    assert z == 0 and o == 1


def test_delta_value():
    # the loop value -A^2 - A^-2
    assert delta() == -MultiLaurent.A(2) - MultiLaurent.A(-2)
    assert (delta() ** 2).to_text() == "A^4+2+A^-4"


def test_minus_A_pow():
    assert minus_A_pow(0) == 1
    assert minus_A_pow(1) == -MultiLaurent.A(1)
    assert minus_A_pow(-3) == -MultiLaurent.A(-3)
    assert minus_A_pow(2) == MultiLaurent.A(2)
    assert minus_A_pow(3) * minus_A_pow(-3) == 1


def test_d_variable_rules():
    with pytest.raises(ValueError):
        MultiLaurent.d(0)
    with pytest.raises(ValueError):
        MultiLaurent.d(1, 0)
    p = MultiLaurent.d(1) * MultiLaurent.d(2) * MultiLaurent.d(1)
    assert p.uses_d(1) and p.uses_d(2) and not p.uses_d(3)
    assert not p.pure_A()
    assert MultiLaurent.A(5).pure_A()
    assert not MultiLaurent.M().pure_A()


def test_text_rendering_deterministic():
    p = MultiLaurent.A(3) - MultiLaurent.M() * MultiLaurent.A(-1) + MultiLaurent.d(2)
    assert p.to_text() == p.to_text()
    assert "M" in p.to_text() and "d_2" in p.to_text()
    assert MultiLaurent.zero().to_text() == "0"


def test_json_terms_round_data():
    p = MultiLaurent.A(-2) * 3 + MultiLaurent.M(2) * MultiLaurent.d(1)
    terms = p.to_json()
    assert isinstance(terms, list) and all("coeff" in t for t in terms)


_scalars = st.integers(min_value=-4, max_value=4)


@st.composite
def _polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    p = MultiLaurent.zero()
    for _ in range(n):
        c = draw(_scalars)
        a = draw(st.integers(min_value=-5, max_value=5))
        m = draw(st.integers(min_value=0, max_value=2))
        term = MultiLaurent.A(a) * c * MultiLaurent.M(m) if m else MultiLaurent.A(a) * c
        if draw(st.booleans()):
            term = term * MultiLaurent.d(draw(st.integers(min_value=1, max_value=3)))
        p = p + term
    return p


@given(_polys(), _polys(), _polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == MultiLaurent.zero()
    # the constructor drops zeros for every result, so none is ever stored
    for result in (p + q, p - q, p * q):
        assert 0 not in result.terms.values()


@given(_polys())
def test_hash_consistent_with_eq(p):
    q = p + MultiLaurent.zero()
    assert p == q and hash(p) == hash(q)
