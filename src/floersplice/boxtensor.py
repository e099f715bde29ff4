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

Only the pairs at either end of a nonzero entry are listed; the rest are
counted per grading from the factors (dim C_g sums #A(i, ga) * #D(i, gd)
over idempotents i, ga + gd = g), so cost follows entries, not dimension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import gf2
from .algebra import EMPTY
from .typed import TypeDModule
from .typea import TypeAModule


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # a grading byte -> its binary digit


@dataclass
class ChainComplex:
    labels: list[tuple[str, str]]   # (type A generator id, type D generator id)
    gradings: list[int]
    boundary: list[int]             # column bitmasks
    untouched: tuple[int, int] = (0, 0)  # generators outside labels, per grading: all isolated

    def dim(self, grading: int) -> int:
        return self.untouched[grading] + self.gradings.count(grading)

    def d_squared_is_zero(self) -> bool:
        return not any(gf2.compose(self.boundary, self.boundary))

    def boundary_flips_grading(self) -> bool:
        """Whether every entry joins opposite gradings: each column misses the
        mask of the generators graded like it."""
        odd = int(bytes(reversed(self.gradings)).translate(_DIGITS) or b"0", 2)
        same = (~odd, odd)
        return not any(col & same[g] for col, g in zip(self.boundary, self.gradings))


def box_tensor(a: TypeAModule, d: TypeDModule) -> ChainComplex:
    """Pair a type A module with a type D module.

    Lists the touched pairs in (type A index, type D index) order.  An
    untouched pair has no incident entry, so the guards and the homology
    read the whole complex.  Raises ValueError when a was pruned against
    a type D module other than d (different generators or edges): it lacks
    the operations that d would pair.
    """
    b = a.against
    if b is not None and b is not d and (b.generators, b.edges) != (d.generators, d.edges):
        raise ValueError("type A module was pruned against another type D module")

    count: Counter = Counter()  # (source pair, target pair) -> entries, summed mod 2 below
    ops = a.by_word

    # (c) internal differential of the type A side
    if () in ops:
        iota = (d.iota_indices(0), d.iota_indices(1))
        for src, dst in ops[()]:
            for di in iota[a.generators[src].idempotent]:
                count[(src, di), (dst, di)] += 1

    # (b) identity-labeled edges of the type D side, from its single-label map
    for dsrc, ends in d.composite((EMPTY,)).cols.items():
        for ddst in gf2.bits(ends):
            for ai, ag in enumerate(a.generators):
                if ag.idempotent == d.generators[dsrc].idempotent:
                    count[(ai, dsrc), (ai, ddst)] += 1

    # (a) Reeb-labeled paths, as the composite map of each nonempty word
    for word, arrows in ops.items():
        if word:
            for start, ends in d.composite(word).cols.items():
                for end in gf2.bits(ends):
                    for asrc, adst in arrows:
                        count[(asrc, start), (adst, end)] += 1

    entries = [entry for entry, k in count.items() if k % 2]
    pairs = sorted({pair for entry in entries for pair in entry})
    index = {pair: i for i, pair in enumerate(pairs)}
    boundary = [0] * len(pairs)
    for src, dst in entries:
        boundary[index[src]] |= 1 << index[dst]

    gradings = [(a.generators[ai].grading + d.gradings[di]) % 2 for ai, di in pairs]
    untouched = [-gradings.count(0), -gradings.count(1)]
    for (idem, ga), na in a.tally.items():
        for gd in (0, 1):
            untouched[(ga + gd) % 2] += na * d.tally[idem, gd]
    labels = [(a.generators[ai].id, d.generators[di].id) for ai, di in pairs]
    return ChainComplex(labels, gradings, boundary, tuple(untouched))
