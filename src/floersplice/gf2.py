"""Dense F2 linear algebra on int bitmasks.

Vectors are Python ints (bit i = coordinate i); a matrix is a list of
column bitmasks.  Everything here is exact and deterministic.
"""

from __future__ import annotations


def apply_columns(cols: list[int], v: int) -> int:
    """Matrix times vector: XOR of the columns selected by v's bits."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= cols[i]
        v >>= 1
        i += 1
    return out


def compose(outer: list[int], inner: list[int]) -> list[int]:
    """Columns of outer . inner (inner applied first)."""
    return [apply_columns(outer, c) for c in inner]


def row_of(cols: list[int], i: int) -> int:
    """Row i of a column-major matrix, as a bitmask over column indices."""
    r = 0
    for j, c in enumerate(cols):
        if (c >> i) & 1:
            r |= 1 << j
    return r


def rank(vectors: list[int]) -> int:
    """Rank of the span of the given vectors."""
    ech = Echelon()
    return sum(ech.add(v, 0) for v in vectors)  # combinations are unused: one tag


class Echelon:
    """Incremental reduced echelon basis, keeping expression coefficients.

    add(v, tag) reduces v against the basis; reduce(v) returns (residue,
    combination) where combination is the bitmask of tags used.
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

    def add(self, v: int, tag: int) -> bool:
        """Insert v (tagged by bit `tag`); returns False if v was dependent."""
        res, combo = self.reduce(v)
        if res == 0:
            return False
        self.pivots[self._top(res)] = (res, combo ^ (1 << tag))
        return True


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
        res, _ = ech.reduce(v)
        if res:
            ech.add(v, i)
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
    cols = list(u) + list(w)
    n = len(cols)
    kernel: list[int] = []
    ech = Echelon()
    for j in range(n):
        res, combo = ech.reduce(cols[j])
        combo ^= 1 << j
        if res == 0:
            kernel.append(combo)
        else:
            ech.pivots[res.bit_length() - 1] = (res, combo)
    out = []
    for combo in kernel:
        vec = 0
        for i in range(len(u)):
            if (combo >> i) & 1:
                vec ^= u[i]
        if vec:
            out.append(vec)
    return span_basis(out)


def bits(v: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    i = 0
    while v:
        if v & 1:
            out.append(i)
        v >>= 1
        i += 1
    return out
