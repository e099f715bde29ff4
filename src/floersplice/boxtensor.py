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

Counted mod 2, the type D paths that spell a word are one composite map,
so (a) pairs each operation with the map of its word (the pairing theorem
of Lipshitz-Ozsvath-Thurston).  A word's map is its prefix's map followed
by one more label's, so a prefix whose map vanishes rules out every word
that extends it: (a) walks the type A side's words down their forest
(TypeAModule) from the empty word, and below a word only where its map is
nonzero.
The sum is finite because the type A side has finitely many words.

Only the pairs at either end of a nonzero entry are listed; the rest are
counted per grading from the factors (dim C_g sums #A(i, ga) * #D(i, gd)
over idempotents i, ga + gd = g), so cost follows entries, not dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .algebra import EMPTY
from .typed import Column, TypeDModule, then
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


def _listed(d: TypeDModule) -> tuple:
    """What fixes d's generators and edges: its run and its listed ones (a
    run's generators and D_23 edges follow from its length and start)."""
    return (d.run, d.generators.head, d.edges.head) if d.run else (0, d.generators, d.edges)


def box_tensor(a: TypeAModule, d: TypeDModule) -> ChainComplex:
    """Pair a type A module with a type D module.

    Lists the touched pairs in (type A index, type D index) order.  An
    untouched pair has no incident entry, so the guards and the homology
    read the whole complex.  Raises ValueError when a was pruned against
    a type D module other than d (different generators or edges): it lacks
    the operations that d would pair.

    A walk down a's forest of words reads each node's map from d.composites.
    On a miss it extends the parent's map by the node's letters (typed.then)
    and keeps the result there, unless a proper prefix vanished on the way,
    so no kept map lies below a vanishing one.  It pairs a node's operations
    and visits its children only where the map is nonzero.  Contributions
    XOR type D end bitmasks per (A source, D start, A target), so they
    cancel before an end becomes a pair ai * nd + di (sorted: (A, D) order).
    Cost follows the words whose prefixes d pairs and the entries, not all
    of a's words nor na * nd.
    """
    b = a.against
    if b is not None and b is not d and _listed(b) != _listed(d):
        raise ValueError("type A module was pruned against another type D module")

    na, nd = len(a.source.generators), len(d.generators)
    acc: dict[int, int] = {}  # (asrc * nd + dstart) * na + adst -> type D ends, mod 2

    # (a) Reeb-labeled paths, down a's forest of words below each nonzero map
    ops, comps = a.by_word, d.composites
    stack = [(a.forest, None)]  # nodes to visit, and their parent's map (None: the identity's)
    while stack:
        below, up = stack.pop()
        for word, letters, children in below:
            comp = comps.get(word)
            if comp is None:  # up's map followed by each letter's, kept unless a prefix vanished
                comp = up
                for x in letters:
                    if comp is not None and not comp:
                        break
                    comp = comps[x,] if comp is None else then(comp, comps[x,])
                else:
                    comps[word] = comp
            if comp:
                pairs = ops.get(word)  # none for a prefix that is no word
                if pairs:
                    for start, ends in comp.items():
                        for asrc, adst in pairs:
                            key = (asrc * nd + start) * na + adst
                            acc[key] = acc.get(key, 0) ^ ends
                if children:
                    stack.append((children, comp))

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
