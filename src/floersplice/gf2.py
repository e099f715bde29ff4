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


def reduced_basis(vectors: list[int]) -> list[int]:
    """The span's reduced echelon basis, by ascending top bit: no vector has
    another's top bit set, so the basis depends on the span alone."""
    basis: list[int] = []
    for v in sorted(echelon(vectors)[0].values()):  # distinct top bits: ascending
        for w in basis:
            if v >> (w.bit_length() - 1) & 1:
                v ^= w
        basis.append(v)
    return basis


def solve(basis: list[int], targets: list[int]) -> list[int] | None:
    """Coefficients c (bitmask) of each target: XOR of basis[i] over bits of c == target.

    One elimination for all targets: the basis goes in tagged, the targets
    untagged after it, so a target's residue below the shift is its
    coefficients.  An in-span target's residue is never kept as a pivot, so
    each is solved against the basis alone.  Returns None when any target
    is outside the span.
    """
    n = len(basis)
    tagged = [b << n | 1 << i for i, b in enumerate(basis)]
    residues = echelon(tagged + [t << n for t in targets], n)[1][n:]
    return None if any(res >> n for res in residues) else residues


def in_span(vectors: list[int], target: int) -> bool:
    return echelon(vectors + [target])[1][-1] == 0


def bits(v: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
