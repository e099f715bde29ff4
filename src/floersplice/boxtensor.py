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

from dataclasses import dataclass

from . import gf2
from .algebra import EMPTY
from .typed import Column, TypeDModule
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
        """Whether the boundary squares to zero, composing only through the
        generators with a nonzero column: the others add nothing."""
        b = self.boundary
        live = int(bytes(map(bool, reversed(b))).translate(_DIGITS) or b"0", 2)
        return not any(gf2.apply_columns(b, v) for col in b if (v := col & live))

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

    One pass reads d's cached maps of a's words, dropping a vanishing one at
    once.  Contributions XOR type D end bitmasks per (A source, D start, A
    target), so they cancel before an end becomes a pair ai * nd + di
    (sorted: (A, D) order).  Cost follows live words and entries, not na * nd.
    """
    b = a.against
    if b is not None and b is not d and (b.generators, b.edges) != (d.generators, d.edges):
        raise ValueError("type A module was pruned against another type D module")

    na, nd = len(a.source.generators), len(d.generators)
    acc: dict[int, int] = {}  # (asrc * nd + dstart) * na + adst -> type D ends, mod 2

    # (a) Reeb-labeled paths, as the composite map of each nonempty word
    ops = a.by_word
    for word, comp in zip(ops, map(d.composites.get, ops)):
        if comp is None:
            if not word:
                continue
            comp = d.composite(word)
        if comp:
            for start, ends in comp.items():
                for asrc, adst in ops[word]:
                    key = (asrc * nd + start) * na + adst
                    acc[key] = acc.get(key, 0) ^ ends

    # (b) identity-labeled edges of the type D side, from its single-label map
    aidem, didem = a.source.idempotents, d.idempotents
    for start, ends in d.composites[EMPTY,].items():
        for ai in range(na):
            if aidem[ai] == didem[start]:
                key = (ai * nd + start) * na + ai
                acc[key] = acc.get(key, 0) ^ ends

    # (c) internal differential of the type A side
    if () in ops:
        iota = (d.iota_indices(0), d.iota_indices(1))
        for asrc, adst in ops[()]:
            for di in iota[aidem[asrc]]:
                key = (asrc * nd + di) * na + adst
                acc[key] = acc.get(key, 0) ^ (1 << di)

    srcs, dsts = [], []  # the entries' (source, target) pairs, each ai * nd + di
    for key, ends in acc.items():
        src, adst = divmod(key, na)
        while ends:
            low = ends & -ends
            srcs.append(src)
            dsts.append(adst * nd + low.bit_length() - 1)
            ends ^= low
    pairs = sorted({*srcs, *dsts})
    index = dict(zip(pairs, range(len(pairs))))
    boundary = [0] * len(pairs)
    for src, dst in zip(map(index.__getitem__, srcs), map(index.__getitem__, dsts)):
        boundary[src] |= 1 << dst

    # d's run, if any, is graded alike: its listed gradings are read from their list
    agrades, dgrades = a.gradings, d.gradings
    head, first = (dgrades.head, len(dgrades.head)) if d.run else (dgrades, nd)
    grade = dgrades[first] if d.run else None
    gradings = [agrades[pair // nd] ^ (head[di] if (di := pair % nd) < first else grade) for pair in pairs]
    # The ids are read only when asked: the guards and the homology read none.
    agens, dgens = a.source.generators, d.generators
    labels = Column([], len(pairs), lambda k: (agens[pairs[k] // nd].id, dgens[pairs[k] % nd].id))
    untouched = [-gradings.count(0), -gradings.count(1)]
    for (idem, ga), n in a.tally.items():  # a type D grading 0 keeps ga, 1 flips it
        untouched[ga] += n * d.tally[idem, 0]
        untouched[1 - ga] += n * d.tally[idem, 1]
    return ChainComplex(labels, gradings, boundary, tuple(untouched))
