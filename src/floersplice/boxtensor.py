"""Box tensor product of a type A and a type D module.

Generators are idempotent-matched pairs, graded by the sum of the factor
gradings.  The differential collects three kinds of contributions, summed
over F2:

  (a) a directed path in the type D side with labels in the six Reeb
      labels, paired against an operation whose input word equals the
      path's label sequence;
  (b) a single identity-labeled edge on the type D side, which acts as
      the internal differential on the right factor;
  (c) an empty-word operation (m_1) on the type A side.

Counted mod 2, the type D paths that spell a word are one composite map
(TypeDModule.composite), so (a) pairs each operation with the map of its
word.  The sum is finite because the type A side has finitely many words.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .algebra import EMPTY
from .typed import TypeDModule, solve_gradings
from .typea import TypeAModule


@dataclass
class ChainComplex:
    labels: list[tuple[str, str]]   # (type A generator id, type D generator id)
    gradings: list[int]
    boundary: list[int]             # column bitmasks

    def dim(self, grading: int) -> int:
        return sum(1 for g in self.gradings if g == grading)

    def d_squared_is_zero(self) -> bool:
        square = gf2.compose(self.boundary, self.boundary)
        return not any(square)

    def boundary_flips_grading(self) -> bool:
        for j, col in enumerate(self.boundary):
            for i in gf2.bits(col):
                if self.gradings[i] == self.gradings[j]:
                    return False
        return True

    def index_of(self, a_id: str, d_id: str) -> int:
        return self.labels.index((a_id, d_id))

    def row(self, i: int) -> int:
        return gf2.row_of(self.boundary, i)


def box_tensor(a: TypeAModule, d: TypeDModule) -> ChainComplex:
    """Pair a type A module with a type D module.

    Raises ValueError when both sides are unbounded or when the type D side
    has an identity-labeled cycle.
    """
    if not a.bounded and not d.bounded:
        raise ValueError("box tensor requires at least one bounded side")
    if d.gradings is None:
        d = solve_gradings(d)

    pairs: list[tuple[int, int]] = []
    pair_index: dict[tuple[int, int], int] = {}
    for ai, ag in enumerate(a.generators):
        for di, dg in enumerate(d.generators):
            if ag.idempotent == dg.idempotent:
                pair_index[ai, di] = len(pairs)
                pairs.append((ai, di))

    gradings = [
        (a.generators[ai].grading + d.gradings[di]) % 2 for ai, di in pairs
    ]

    boundary = [0] * len(pairs)

    def add(src: tuple[int, int], dst: tuple[int, int]) -> None:
        boundary[pair_index[src]] ^= 1 << pair_index[dst]

    ops = a.by_word

    # (c) internal differential of the type A side
    for src, dst in ops.get((), []):
        idem = a.generators[src].idempotent
        for di, dg in enumerate(d.generators):
            if dg.idempotent == idem:
                add((src, di), (dst, di))

    # (b) identity-labeled edges of the type D side
    for dsrc, label, ddst in sorted(d.edges):
        if label == EMPTY:
            idem = d.generators[dsrc].idempotent
            for ai, ag in enumerate(a.generators):
                if ag.idempotent == idem:
                    add((ai, dsrc), (ai, ddst))

    # (a) Reeb-labeled paths, as the composite map of each nonempty word
    for word, arrows in ops.items():
        if word:
            for start, ends in d.composite(word).cols.items():
                for end in gf2.bits(ends):
                    for asrc, adst in arrows:
                        add((asrc, start), (adst, end))

    labels = [(a.generators[ai].id, d.generators[di].id) for ai, di in pairs]
    return ChainComplex(labels, gradings, boundary)
