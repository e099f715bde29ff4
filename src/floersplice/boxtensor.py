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

Type D paths longer than the type A module's maximal word length cannot
pair and are not enumerated, which keeps the sum finite whenever at least
one side is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .algebra import EMPTY, REEB_LABELS
from .typed import TypeDModule, solve_gradings, walk_paths
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
    d_bounded = d.is_bounded()
    if not a.bounded and not d_bounded:
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

    parity: dict[tuple[int, int], int] = {}

    def add(src: tuple[int, int], dst: tuple[int, int]) -> None:
        key = (pair_index[src], pair_index[dst])
        parity[key] = parity.get(key, 0) ^ 1

    ops = a.ops_by_word()

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

    # (a) Reeb-labeled paths, depth-capped by the longest pairable word
    paths = walk_paths(
        d.out_edges(REEB_LABELS), lambda labels, label: labels + (label,), (), a.max_word_length
    )
    for start, end, labels, _ in paths:
        for asrc, adst in ops.get(labels, []):
            add((asrc, start), (adst, end))

    boundary = [0] * len(pairs)
    for (src_i, dst_i), p in parity.items():
        if p:
            boundary[src_i] |= 1 << dst_i

    labels = [(a.generators[ai].id, d.generators[di].id) for ai, di in pairs]
    return ChainComplex(labels, gradings, boundary)
