"""Bitmask F2 linear algebra against brute-force oracles."""

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


# Up to 40 sparse vectors below 2**300, zeros and repeats allowed: a few set
# bits each, two thirds of them drawn from the low or the top 8, so that
# vectors share top bits and depend on each other.
sparse = st.sets(st.integers(0, 7) | st.integers(292, 299) | st.integers(8, 291), max_size=4).map(
    lambda bs: sum(1 << b for b in bs)
)
wide_vectors = st.lists(sparse, max_size=20).flatmap(
    lambda vs: st.lists(st.sampled_from(vs), max_size=40) if vs else st.just([])
)


def tag(vs):
    """vs[i] << len(vs) | 1 << i, the tagging echelon's callers use."""
    return [v << len(vs) | 1 << i for i, v in enumerate(vs)]


@given(wide_vectors)
def test_rank_matches_echelon_on_wide_vectors(vs):
    """rank's copy of the loop keeps as many pivots as echelon, tagged or not."""
    assert gf2.rank(vs) == len(gf2.echelon(vs)[0]) == len(gf2.echelon(tag(vs), len(vs))[0])


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
def test_echelon_tags(vs):
    """Each residue's tag bits name inputs, its own and earlier ones, whose
    XOR is its high part; the high part is 0 exactly when the input lies in
    the span of the earlier inputs."""
    n = len(vs)
    untagged = gf2.echelon(vs)[1]
    for i, res in enumerate(gf2.echelon(tag(vs), n)[1]):
        high, combo = res >> n, res & ((1 << n) - 1)
        named = 0
        for j in gf2.bits(combo):
            named ^= vs[j]
        assert combo >> i == 1
        assert high == named == untagged[i]
        assert (high == 0) == (vs[i] in span_set(vs[:i]))


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


@given(vectors, st.integers(0, 255) | st.integers(0, 7).map(lambda i: 1 << i))
def test_apply_sparse_matches_the_dense_columns(cols, v):
    """apply_sparse over the nonzero columns alone equals apply_columns over
    all of them, for zero, one-bit and wider vectors."""
    v &= (1 << len(cols)) - 1
    nonzero = {i: col for i, col in enumerate(cols) if col}
    assert gf2.apply_sparse(nonzero, v) == gf2.apply_columns(cols, v)


def test_bits():
    assert gf2.bits(0) == []
    assert gf2.bits(0b1011) == [0, 1, 3]


# Sparse vectors up to 2**5000: a few set bits, possibly far apart.
sparse = st.sets(st.integers(0, 4999), max_size=12).map(lambda s: sum(1 << i for i in s))
WIDE_COLS = [(i * 0x9E3779B97F4A7C15) % (1 << 64) for i in range(5000)]


@given(sparse)
def test_set_bit_visits_match_per_bit_reference(v):
    """bits and apply_columns visit only the set bits; the result is that of
    a scan over every bit position up to the top one."""
    positions = [i for i in range(v.bit_length()) if (v >> i) & 1]
    assert gf2.bits(v) == positions
    out = 0
    for i in positions:
        out ^= WIDE_COLS[i]
    assert gf2.apply_columns(WIDE_COLS, v) == out
