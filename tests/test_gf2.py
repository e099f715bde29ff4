"""Bitmask F2 linear algebra against brute-force oracles."""

from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from floersplice import gf2

vectors = st.lists(st.integers(0, 255), min_size=0, max_size=6)


def span_set(vs):
    out = {0}
    for v in vs:
        out |= {x ^ v for x in out}
    return out


@given(vectors)
def test_rank_matches_span_size(vs):
    assert 2 ** gf2.rank(vs) == len(span_set(vs))


@given(vectors, st.integers(0, 255))
def test_solve(vs, target):
    combo = gf2.solve(vs, target)
    if combo is None:
        assert target not in span_set(vs)
    else:
        out = 0
        for i in gf2.bits(combo):
            out ^= vs[i]
        assert out == target


@given(vectors)
def test_span_basis(vs):
    basis = gf2.span_basis(vs)
    assert span_set(basis) == span_set(vs)
    assert gf2.rank(basis) == len(basis)


@given(vectors, vectors)
def test_intersect(u, w):
    expected = span_set(u) & span_set(w)
    basis = gf2.intersect(u, w)
    assert span_set(basis) == expected
    assert gf2.rank(basis) == len(basis)


@given(vectors, st.integers(0, 255))
def test_apply_columns(cols, v):
    v &= (1 << len(cols)) - 1
    out = 0
    for i in gf2.bits(v):
        out ^= cols[i]
    assert gf2.apply_columns(cols, v) == out


@given(st.lists(st.integers(0, 63), min_size=3, max_size=3),
       st.lists(st.integers(0, 7), min_size=6, max_size=6))
def test_compose(outer_bits, inner):
    outer = outer_bits + [0, 0, 0]
    comp = gf2.compose(outer, inner)
    for j, col in enumerate(inner):
        assert comp[j] == gf2.apply_columns(outer, col)


def test_row_and_transpose():
    cols = [0b011, 0b101]
    assert gf2.row_of(cols, 0) == 0b11
    assert gf2.row_of(cols, 1) == 0b01
    assert gf2.row_of(cols, 2) == 0b10


def test_bits():
    assert gf2.bits(0) == []
    assert gf2.bits(0b1011) == [0, 1, 3]
