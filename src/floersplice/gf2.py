"""F2 linear algebra on int bitmasks.

Vectors are Python ints (bit i = coordinate i); a matrix is a list of
column bitmasks, or a sparse dict of its nonzero columns (index -> column).
Everything here is exact and deterministic.

Elimination is one loop, `echelon`: each vector is reduced by the kept
residue with its top bit until that bit is new, and kept there.  A caller
that needs combinations tags input i as `v << shift | 1 << i` and passes
`shift`: the tags ride below the eliminated bits, so each residue's low
bits name the inputs it sums, and a residue below 1 << shift is a relation
among them.  `rank` keeps its own copy of the loop: homology calls it
twice per box row, where the call and residue list of `echelon` cost a
survey a few percent of its rows per second, and the benchmark tracer
wraps `gf2.rank` by name.
"""

from __future__ import annotations


def apply_columns(cols: list[int], v: int) -> int:
    """Matrix times vector: XOR of the columns selected by v's bits.

    Visits only the set bits, lowest first, so a sparse v costs its bit
    count, not its top bit.
    """
    out = 0
    while v:
        low = v & -v
        out ^= cols[low.bit_length() - 1]
        v ^= low
    return out


def apply_sparse(cols: dict[int, int], v: int) -> int:
    """apply_columns over a dict of the nonzero columns: a column without an entry is zero."""
    if not v & (v - 1):  # one bit or none, as most vectors the durable check applies to
        return cols.get(v.bit_length() - 1, 0)
    out = 0
    while v:
        low = v & -v
        out ^= cols.get(low.bit_length() - 1, 0)
        v ^= low
    return out


def rank(vectors: list[int]) -> int:
    """Rank of the span of the given vectors: echelon's loop, counting the pivots."""
    pivots: dict[int, int] = {}  # top bit -> kept residue
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            w = pivots.get(top)
            if w is None:
                pivots[top] = v
                break
            v ^= w
    return len(pivots)


def echelon(vectors: list[int], shift: int = 0) -> tuple[dict[int, int], list[int]]:
    """Reduce each vector, in order, against the residues kept before it.

    Returns (pivots, residues): pivots maps each kept residue's top bit to
    it; residues[i] is vector i's residue.  Only bits from `shift` up are
    eliminated, so with tagged inputs a residue's bits below `shift` name
    the inputs it sums, and it is below 1 << shift exactly when its input's
    high part lies in the span of the earlier ones.
    """
    pivots: dict[int, int] = {}
    residues = []
    for v in vectors:
        while v >> shift:
            top = v.bit_length() - 1
            w = pivots.get(top)
            if w is None:
                pivots[top] = v
                break
            v ^= w
        residues.append(v)
    return pivots, residues


def solve(basis: list[int], target: int) -> int | None:
    """Coefficients c (bitmask) with XOR of basis[i] over bits of c == target.

    Returns None when target is outside the span.
    """
    n = len(basis)
    res = echelon([b << n | 1 << i for i, b in enumerate(basis)] + [target << n], n)[1][-1]
    return None if res >> n else res


def in_span(vectors: list[int], target: int) -> bool:
    return echelon(vectors + [target])[1][-1] == 0


def span_basis(vectors: list[int]) -> list[int]:
    """A reduced basis of the span, deterministic in input order."""
    return [res for res in echelon(vectors)[1] if res]


def intersect(u: list[int], w: list[int]) -> list[int]:
    """Basis of span(u) & span(w), by stacking kernels.

    A vector in the intersection is A*x = B*y; solve [A | B] * (x, y) = 0
    and read off the A*x parts of the kernel: the residues of the tagged
    columns of [A | B] that fall below the tags' shift.
    """
    u = span_basis(u)
    w = span_basis(w)
    if not u or not w:
        return []
    n, mask = len(u) + len(w), (1 << len(u)) - 1
    _, residues = echelon([v << n | 1 << i for i, v in enumerate(u + w)], n)
    kernel = [res for res in residues if not res >> n]
    return span_basis([vec for combo in kernel if (vec := apply_columns(u, combo & mask))])


def bits(v: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
