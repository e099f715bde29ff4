"""F2 linear algebra on int bitmasks.

Vectors are Python ints (bit i = coordinate i); a matrix is a list of
column bitmasks, or a sparse dict of its nonzero columns (index -> column).
Everything here is exact and deterministic.
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
    """Rank of the span of the given vectors."""
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


class Echelon:
    """Incremental echelon basis, keeping expression coefficients.

    Each vector added carries a tag, a bit index.  reduce(v) returns
    (residue, combination): v minus the basis vectors whose tags the
    combination bitmask names.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}  # pivot bit -> (vector, combo)

    @staticmethod
    def _top(v: int) -> int:
        return v.bit_length() - 1

    def reduce(self, v: int) -> tuple[int, int]:
        combo = 0
        while v:
            t = self._top(v)
            if t not in self.pivots:
                break
            w, c = self.pivots[t]
            v ^= w
            combo ^= c
        return v, combo

    def add(self, v: int, tag: int) -> tuple[int, int]:
        """Reduce v, tagged by bit `tag`, and keep its residue if nonzero.

        Returns (residue, combination): the residue is the XOR of the added
        vectors whose tags the combination names, v's own tag included, and
        it is 0 exactly when v lies in the span of the vectors added before.
        """
        res, combo = self.reduce(v)
        combo ^= 1 << tag
        if res:
            self.pivots[self._top(res)] = (res, combo)
        return res, combo


def solve(basis: list[int], target: int) -> int | None:
    """Coefficients c (bitmask) with XOR of basis[i] over bits of c == target.

    Returns None when target is outside the span.
    """
    ech = Echelon()
    for i, b in enumerate(basis):
        ech.add(b, i)
    res, combo = ech.reduce(target)
    return None if res else combo


def in_span(vectors: list[int], target: int) -> bool:
    return solve(vectors, target) is not None


def span_basis(vectors: list[int]) -> list[int]:
    """A reduced basis of the span, deterministic in input order."""
    out: list[int] = []
    ech = Echelon()
    for i, v in enumerate(vectors):
        res, _ = ech.add(v, i)
        if res:
            out.append(res)
    return out


def intersect(u: list[int], w: list[int]) -> list[int]:
    """Basis of span(u) & span(w), by stacking kernels.

    A vector in the intersection is A*x = B*y; solve [A | B] * (x, y) = 0
    and read off the A*x parts of the kernel.
    """
    u = span_basis(u)
    w = span_basis(w)
    if not u or not w:
        return []
    kernel: list[int] = []
    ech = Echelon()
    for j, col in enumerate(u + w):
        res, combo = ech.add(col, j)
        if res == 0:
            kernel.append(combo)
    mask = (1 << len(u)) - 1
    out = [vec for combo in kernel if (vec := apply_columns(u, combo & mask))]
    return span_basis(out)


def bits(v: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out
