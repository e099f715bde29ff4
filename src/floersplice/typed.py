"""Type D modules over the torus algebra, as labeled coefficient-map graphs.

A module stores generators split over the two idempotents and, for each
coefficient-map label (the six Reeb labels plus '' for the identity), the
F2 map of that label, once, as a dict from each start to its nonzero ends.
build_cfd assembles the module of an integer n-framed knot complement
from simplified bases: one chain of iota_1 generators per vertical and per
horizontal arrow, plus the framing dependent unstable chain joining xi_0
to eta_0.  The first part, the stable part, is built, validated and graded
once per bases and kept on them.  A framing lists its unstable chain over
it, except that a chain of |t| >= RUN_MIN mu generators is not listed:
those generators and the D_23 edges between them, its run, are held as
the signed length t, every read of them is a closed form, and the framing
lists only the canceling pair, if any, and the chain's entry and exit
edges.  Every pass over a framed module extends the stable part's result
through the listed edges and the run's two ends, so a side costs its
stable part, not its framing.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from types import SimpleNamespace
from typing import NamedTuple

from . import gf2
from .algebra import EMPTY, GRADING, LABELS, REEB_IDEMPOTENTS, label_product
from .cfk import SimplifiedBases, ValidationReport


class DGen(NamedTuple):
    """A generator, cheap to create; hot loops read the module's lists instead of its fields."""

    id: str
    idempotent: int  # 0 or 1
    role: str        # xi, eta_alias, kappa, lambda, mu, nu


@dataclass(frozen=True)
class TypeDModule:
    """Generators and labeled edges, over a stable part or none, whose
    generators it begins with and whose edges it holds (ValueError otherwise).

    With run = t != 0, the generators and edges given are the listed ones:
    |t| iota_1 generators mu1.. follow them, each joined to the next by a
    D_23 edge that points to the higher index (t > 0) or the lower (t < 0).
    A listed edge may meet this run only at its two ends, and not by D_23,
    and no listed generator past the stable part may have an id starting
    with "mu" (ValueError otherwise), so the module's generators, edges and
    lists read the run in closed form, and list none of it.  Each pass extends the
    stable part's result, shared read-only, through the other listed edges,
    `chain`, sorted, and the run's ends, or else redoes the whole module:
    construction (out-edges, boundedness, single-label maps, which live only
    in composites), the checks (validate_type_d) and the gradings, on first
    read."""

    generators: Sequence[DGen]
    edges: Collection[tuple[int, str, int]]  # (src index, label, dst index)
    stable: TypeDModule | None = field(default=None, repr=False, compare=False)
    run: int = field(default=0, compare=False)
    chain: list[tuple[int, str, int]] = field(init=False, repr=False, compare=False)
    # generator -> its idempotent, the list the hot loops read
    idempotents: Sequence[int] = field(init=False, repr=False, compare=False)
    # src -> its out-edges (label, dst), sorted; every generator has an entry
    # (a dict, or with a run a Column)
    adj: dict[int, list[tuple[str, int]]] = field(init=False, repr=False, compare=False)
    # whether the labeled graph (all labels) has no directed cycle
    bounded: bool = field(init=False, repr=False, compare=False)
    # nonempty path-order label word -> its map, start -> nonzero ends: the
    # single labels from construction, longer words filled by composite on
    # first ask, also when the map vanishes
    composites: dict[tuple[str, ...], Mapping[int, int]] = field(init=False, repr=False, compare=False)
    # the run's generators (none without one), the index step of its D_23
    # edges and their sources
    _run: tuple[range, int, range] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = self.stable or _EMPTY_PART
        gens, nb, first = self.generators, len(base.generators), len(self.generators)
        new = self.edges - base.edges
        if gens[:nb] != base.generators or len(self.edges) - len(new) != len(base.edges):
            raise ValueError("a module must begin with its stable part's generators and hold its edges")
        ids = [g.id for g in gens[nb:]]
        if len(set(ids)) != len(ids) or not base.ids.isdisjoint(ids) or self.run and "mu" in {i[:2] for i in ids}:
            raise ValueError("duplicate generator ids")
        run, step = range(first, first + abs(self.run)), 1 if self.run > 0 else -1
        srcs = run[:-1] if step > 0 else run[1:]  # the sources of the run's D_23 edges
        chain_, last = sorted(new), run.stop - 1
        kept = base.composites  # a label the chain does not use keeps its map
        singles: dict[str, dict[int, int]] = {label: {} for label in LABELS}
        for src, label, dst in chain_:
            if label not in singles:
                raise ValueError(f"unknown coefficient-map label {label!r}")
            if not (0 <= src <= last and 0 <= dst <= last):
                raise ValueError("edge endpoint out of range")
            if run and (first < src < last or first < dst < last or label == "23" and max(src, dst) >= first):
                raise ValueError("a listed edge meets the run only at its ends, and not by D_23")
            col = singles[label]  # edges are distinct: an end is never 0
            col[src] = (col.get(src) or kept[label,].get(src, 0)) | 1 << dst
        out = [(src, (label, dst)) for src, label, dst in chain_]
        adj = _lists(base.adj, nb, run, step, out, lambda i: [("23", i + step)])
        composites = {(lab,): {**kept[lab,], **cols} if cols else kept[lab,] for lab, cols in singles.items()}
        idempotents = base.idempotents + [g.idempotent for g in gens[nb:]]
        if run:
            composites["23",] = _Shift(composites["23",], srcs, step)
            idempotents = Column(idempotents, run.stop, lambda i: 1)
            listed = sorted(self.edges)  # then the run's D_23 edges, by source
            object.__setattr__(self, "generators", Column(gens, run.stop, lambda i: _mu(i - first)))
            object.__setattr__(self, "edges", Column(listed, len(listed) + len(srcs), lambda i: (
                srcs[i - len(listed)], "23", srcs[i - len(listed)] + step)))
        object.__setattr__(self, "chain", chain_)
        object.__setattr__(self, "idempotents", idempotents)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "composites", composites)
        object.__setattr__(self, "_run", (run, step, srcs))
        object.__setattr__(self, "bounded", base.bounded and _acyclic_beyond(self))

    @cached_property
    def ids(self) -> frozenset[str]:
        """The generator ids, read when the module is a stable part."""
        return frozenset(g.id for g in self.generators)

    @cached_property
    def ins(self) -> dict[int, list[tuple[int, str]]]:
        """dst -> its in-edges (src, label), sorted: the stable part's lists,
        extended by the chain edges as adj is, the run's computed alike."""
        base, (run, step, _) = self.stable or _EMPTY_PART, self._run
        into = [(dst, (src, label)) for src, label, dst in self.chain]
        return _lists(base.ins, len(base.generators), run, -step, into, lambda i: [(i - step, "23")])

    # -- basic queries ------------------------------------------------------

    def matrix(self, label: str) -> list[int]:
        """D_label's columns over all generators, a new dense list on every call."""
        ends = self.composites[label,]
        return [ends.get(i, 0) for i in range(len(self.generators))]

    def composite(self, word: tuple[str, ...]) -> Mapping[int, int]:
        """The map D_word[-1]...D_word[0] of a path-order label word, start ->
        nonzero ends (shared: do not mutate).

        Its entry at a start counts, mod 2, the paths from there whose labels
        spell the word.  It is built from the longest cached prefix, one label
        map at a time (see _then), and kept, vanishing or not, so asking again
        is one lookup.  With a run, the map of a word of D_23's alone is a
        _Shift, and every other map has at most two starts on the run, so a
        word costs its length, not the run's.  The empty word's map, the
        identity, is not stored: ValueError on ().
        """
        cache = self.composites
        if word in cache:
            return cache[word]
        if not word:
            raise ValueError("the empty word's map is the identity; no composite is stored")
        # A cached vanishing word may lack some prefixes; every cached map is exact.
        n = max(len(word) - 1, 1)
        while n > 1 and word[:n] not in cache:
            n -= 1
        comp = cache[word[:n]]  # every single label is cached: KeyError for an unknown one
        while comp and n < len(word):
            mat = cache[word[n],]
            n += 1
            comp = cache[word[:n]] = _then(comp, mat)
        cache[word] = comp
        return comp

    def iota_indices(self, idem: int) -> list[int]:
        return [i for i, e in enumerate(self.idempotents) if e == idem]

    def format_vector(self, v: int) -> str:
        names = [self.generators[i].id for i in gf2.bits(v)]
        return "+".join(names) if names else "0"

    @cached_property
    def gradings(self) -> Sequence[int]:
        """Relative Z2 gradings, solved along the edges on first read.

        Every edge x -D_I-> y imposes gr(y) = gr(x) + 1 + gr(rho_I) mod 2; the
        lowest-indexed generator of each connected component is anchored to 0.
        The stable part's gradings are extended through the chain edges, or,
        if a chain edge disagrees with them, all edges are solved: ValueError
        names the edge that closes an inconsistent cycle first.  A failed
        solve is not kept, so every read raises again.  A run's D_23 edges
        keep the grading, so its generators share one, solved as one node.
        """
        try:
            gr = _solve_gradings(self, (self.stable or _EMPTY_PART).gradings, self.chain)
        except ValueError:  # the solve over all edges regrades, or names the edge
            gr = _solve_gradings(self, [], self.edges.head if self.run else sorted(self.edges))
        return Column(gr[:-1], len(self.generators), lambda i: gr[-1]) if self.run else gr

    @cached_property
    def identity_acyclic(self) -> bool:
        """Whether no identity-labeled maps close a cycle, searched only in an unbounded module."""
        return self.bounded or _acyclic(_contracted(self, 0), _IDENTITY)

    @cached_property
    def tally(self) -> Counter:
        """(idempotent, grading) -> number of generators, counted on first read."""
        if not self.run:
            return Counter(zip(self.idempotents, self.gradings))
        tally = Counter(zip(self.idempotents.head, self.gradings.head))
        tally[1, self.gradings[self._run[0].start]] += abs(self.run)  # the run is iota_1, graded alike
        return tally

    @cached_property
    def _checks(self) -> tuple[list[tuple[int, str, int]], dict[tuple[str, int], int]]:
        """What validate_type_d reports, kept for a stable part: see _check_edges."""
        return _check_edges(self)


# The stable part of a module built whole, with what TypeDModule reads of a
# stable part: no generators, so every edge is a chain edge.
_EMPTY_PART = SimpleNamespace(
    generators=[], edges=frozenset(), ids=frozenset(), idempotents=[], adj={}, ins={}, bounded=True,
    composites={(label,): {} for label in LABELS}, gradings=[], _checks=([], {}),
)


def _mu(j: int) -> DGen:
    """The run's generator j places after its first (tuple.__new__ skips the
    named tuple's __new__, a Python call)."""
    return tuple.__new__(DGen, (f"mu{j + 1}", 1, "mu"))


def _lists(kept: dict, nb: int, run: range, d: int, new, inner):
    """Per-generator edge lists: kept's (those below nb, shared, so extended
    only in sorted copies), and each (generator, item) of new added in
    order.  With a run, a Column: each run end's list is sorted, with its
    D_23 edge inner(end) if end + d is on the run, and each interior
    generator's one D_23 edge, inner(i), is computed on reading."""
    lists = {**kept, **{i: [] for i in range(nb, run.start)}}
    ends = {i: [] for i in (*run[:1], *run[-1:])}
    for key, item in new:
        if key < nb:
            lists[key] = sorted(lists[key] + [item])
        else:
            (lists if key < run.start else ends)[key].append(item)
    if not run:
        return lists
    for end in ends:
        ends[end] = sorted(ends[end] + (inner(end) if end + d in run else []))
    return Column(list(lists.values()), run.stop, lambda i: ends[i] if i in ends else inner(i))


class Column(Sequence):
    """A per-generator list whose run entries are computed, not stored: the
    items of head, then item(i) for each later index i below n (from 0: a
    negative index is refused)."""

    __slots__ = ("head", "n", "item")
    __hash__ = None

    def __init__(self, head: list, n: int, item):
        self.head, self.n, self.item = head, n, item

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int):
        head = self.head
        if 0 <= i < len(head):
            return head[i]
        if len(head) <= i < self.n:
            return self.item(i)
        raise IndexError("generator index out of range")

    def __iter__(self):
        return chain(self.head, map(self.item, range(len(self.head), self.n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class _Shift(Mapping):
    """The map of a word of D_23's alone, on a module with a run: kept, a dict
    off the run, and each run generator in starts sent to the one offset on."""

    __slots__ = ("kept", "starts", "offset")

    def __init__(self, kept: dict[int, int], starts: range, offset: int):
        self.kept, self.starts, self.offset = kept, starts, offset

    def __getitem__(self, i: int) -> int:
        return 1 << i + self.offset if i in self.starts else self.kept[i]

    def get(self, i: int, default=None):
        return 1 << i + self.offset if i in self.starts else self.kept.get(i, default)

    def __iter__(self):
        return chain(self.kept, self.starts)

    def __len__(self) -> int:
        return len(self.kept) + len(self.starts)

    def items(self):
        offset = self.offset
        return chain(self.kept.items(), ((i, 1 << i + offset) for i in self.starts))

    def spans(self, v: int) -> bool:
        """Whether v lies in the span of the ends.  The run starts' ends are
        single run generators that no kept end touches: v's bits there are free."""
        if self.starts:
            lo, hi = sorted((self.starts[0] + self.offset, self.starts[-1] + self.offset + 1))
            v = (v & (1 << lo) - 1) | (v >> hi << hi)
        return gf2.in_span(list(self.kept.values()), v)


def _then(comp: Mapping[int, int], mat: Mapping[int, int]) -> Mapping[int, int]:
    """The map of comp's word followed by the single label of mat: mat applied
    to every end.  A _Shift's run starts move in closed form: along D_23 by
    mat's offset, and otherwise only where their ends are the run's ends,
    the one place its other edges leave, so they cost no more than two starts."""
    if not isinstance(comp, _Shift):
        return {s: e for s, c in comp.items() if (e := gf2.apply_sparse(mat, c))}
    out = {s: e for s, c in comp.kept.items() if (e := gf2.apply_sparse(mat, c))}
    starts, offset = comp.starts, comp.offset
    if not starts:
        return out
    if isinstance(mat, _Shift):
        lo, hi = max(starts.start, mat.starts.start - offset), min(starts.stop, mat.starts.stop - offset)
        return _Shift(out, range(lo, hi), offset + mat.offset)
    for s in {starts[0], starts[-1]}:
        if e := mat.get(s + offset):
            out[s] = e
    return out


def _solve_gradings(m: TypeDModule, known: list[int], edges) -> list[int]:
    """m's gradings, extending known (those of its first len(known)
    generators) through edges, with m's run, if any, one node after its
    listed generators.  Roots are taken in index order, graded ends of
    edges first, so each new component is anchored at its lowest
    generator; ValueError names the edge whose ends disagree."""
    nb, first = len(known), len(m.generators) - abs(m.run)
    neighbors: dict[int, list[tuple[int, int, str, int]]] = {}
    for src, label, dst in edges:
        step = 1 ^ GRADING[label]
        a, b = src if src < first else first, dst if dst < first else first
        neighbors.setdefault(a, []).append((b, step, label, src))
        neighbors.setdefault(b, []).append((a, step, label, src))
    size = first + (m.run != 0)
    gr: list[int | None] = known + [None] * (size - nb)
    for root in [*sorted(v for v in neighbors if v < nb), *range(nb, size)]:
        if root >= nb and gr[root] is not None:  # a component already graded
            continue
        gr[root] = gr[root] or 0  # a new component is anchored at 0
        queue = [root]
        while queue:
            v = queue.pop()
            for other, step, label, esrc in neighbors.get(v, ()):
                want = gr[v] ^ step
                if gr[other] is None:
                    gr[other] = want
                    queue.append(other)
                elif gr[other] != want:
                    edge = f"{m.generators[esrc].id} -D{label or '_empty'}->"
                    raise ValueError(f"inconsistent grading cycle through edge {edge}")
    return gr


def walk_paths(adj: dict[int, list[tuple[str, int]]], step, roots):
    """Yield (start, end, state) for every directed path that begins along
    the edges of a root, a triple (start, state, edges).

    Each path's state begins as its root's and is extended by
    step(state, label) along every edge; a step that returns None cuts the
    path there (it is neither yielded nor extended).  The walk keeps an
    explicit stack, so path length is bounded by acyclicity of adj or by
    the cuts, never by the interpreter's recursion limit.
    """
    for start, state, first in roots:
        stack = [(first, state)]
        while stack:
            out, prefix = stack.pop()
            for label, nxt in out:
                extended = step(prefix, label)
                if extended is None:
                    continue
                yield start, nxt, extended
                stack.append((adj[nxt], extended))


# The label sets of the two cycle searches: every label, and the identity alone.
_ALL_LABELS = frozenset(LABELS)
_IDENTITY = frozenset({EMPTY})


def _acyclic(adj: Mapping[int, list[tuple[str, int]]], labels: frozenset[str] = _ALL_LABELS) -> bool:
    """Whether the edges of adj labeled in labels close no directed cycle
    among adj's nodes; an edge to a node outside adj is left out.

    Kahn's pass: nodes of in-degree 0 are peeled off, each lowering the
    in-degree of its successors, and every one is peeled iff no cycle blocks.
    """
    indegree = dict.fromkeys(adj, 0)
    for out in adj.values():
        for lab, dst in out:
            if lab in labels and dst in indegree:
                indegree[dst] += 1
    peeled = [node for node, d in indegree.items() if not d]
    for node in peeled:  # grows while it is read
        for lab, nxt in adj[node]:
            if lab in labels and nxt in indegree:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    peeled.append(nxt)
    return len(peeled) == len(indegree)


def _contracted(m: TypeDModule, lo: int) -> dict[int, list[tuple[str, int]]]:
    """m's out-edges from generator lo on, the run's interior left out: the
    D_23 edge out of the run's start end goes straight to its far end, which
    keeps every path and cycle through the run."""
    run, step, _ = m._run
    short = {i: m.adj[i] for i in range(lo, run.start)}
    if run:
        start, far = (run[0], run[-1]) if step > 0 else (run[-1], run[0])
        short[far] = m.adj[far]
        short[start] = [(lab, far if lab == "23" else dst) for lab, dst in m.adj[start]]
    return short


def _acyclic_beyond(m: TypeDModule) -> bool:
    """Whether m closes no directed cycle, given that its stable part closes
    none.  A new cycle takes a chain edge; unless one entering the stable
    part reaches, along its edges, one leaving it, the cycle avoids the
    stable part, so only the chain generators are peeled."""
    nb = len((m.stable or _EMPTY_PART).generators)
    leave = {src for src, _, _ in m.chain if src < nb}
    stack = [dst for _, _, dst in m.chain if dst < nb]
    seen = set(stack)
    while stack:
        node = stack.pop()
        if node in leave:
            return _acyclic(_contracted(m, 0))
        for _, nxt in m.adj[node]:  # the stable part's edges: node leaves by no chain edge
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _acyclic(_contracted(m, nb))


# ---------------------------------------------------------------------------
# Construction from simplified bases
# ---------------------------------------------------------------------------

def build_cfd(s: SimplifiedBases, n: int) -> TypeDModule:
    """Type D module of the n-framed complement.

    iota_0 generators are the xi basis (x0..x{2m}).  An edge into an
    eta-anchored generator lands on the xi support of that eta (its
    b_matrix row); an edge out of eta_p emanates from every xi whose
    eta expansion contains eta_p (column p of a_matrix), which is the
    matrix of the map defined on the eta basis written in xi coordinates.
    Each vertical arrow contributes a chain entered by D_1 at the source and
    D_123 at the target with internal D_23 maps pointing back toward the
    D_1 end; each horizontal arrow contributes a chain from D_3 to D_2 with
    forward internal D_23 maps.  The unstable chain depends on t = n - 2tau:
    a directed D_123/D_23.../D_2 chain for t > 0, the single D_12 edge for
    t = 0, and a chain entered from both ends (D_1 from xi_0, D_3 from
    eta_0) for t < 0.  When the complex is not of L-space form the directed
    t >= 0 shapes acquire loops, so they are replaced by the bounded
    variant that routes through a canceling pair nu_1 <- nu_2.

    The xi generators and the arrow chains depend on s alone: the first call
    for s lists their edges and builds them as a module of their own, the
    stable part, and keeps it in s's instance dict.  Every call lists its
    canceling pair and the edges that enter or leave its mu chain, and
    builds the module over the stable part; a chain of |t| >= RUN_MIN mu
    generators is not listed but held as the module's run (see
    TypeDModule), so nothing a deep framing lists or stores grows with it.
    Both edge lists are distinct by construction.

    The construction reads each eta basis vector as a combination of xi
    vectors at its own Alexander level, which holds for every s that
    simplify returns: both bases are read at their own levels.
    """
    stable = vars(s).get("_stable_cfd")
    if stable is None:  # the first framing of s builds the stable part and keeps it
        gens, edges = _stable_part(s)
        stable = vars(s)["_stable_cfd"] = TypeDModule(gens, frozenset(edges))
    gens, chain, run = _unstable_chain(s, n, stable.generators)
    return TypeDModule(gens, stable.edges | frozenset(chain), stable, run)


# A chain of fewer mu generators than RUN_MIN is listed, as the stable part
# is: below it, computing a run's entries on every read costs a side more
# than listing them once (splice_report of trefoil[n] or figure_eight[n]
# with trefoil[3], in process: the two cost the same near |t| = 8-12).
# durable_fact keys its answers by t clipped to +-RUN_MIN, the chain class.
RUN_MIN = 8


def _unstable_chain(s: SimplifiedBases, n: int,
                    stable: list[DGen]) -> tuple[list[DGen], list[tuple[int, str, int]], int]:
    """The listed generators of the n-framed module (the stable ones, the
    canceling pair, if any, and the mu chain if it is shorter than RUN_MIN),
    its listed chain edges, each once, and its run (see TypeDModule): t, or
    0 when the mu chain is listed."""
    nb, t = len(stable), n - 2 * s.tau
    run = t if abs(t) >= RUN_MIN else 0
    # The canceling pair nu1 <- nu2 sits where the directed chain enters:
    # after D_1 (iota_1) when t = 0, after D_12 (iota_0) when t > 0.
    nus = [] if s.lspace_form or t < 0 else [DGen(f"nu{i}", int(t == 0), "nu") for i in (1, 2)]
    first = nb + len(nus)
    last = first + abs(t) - 1  # the mu chain, if any, is first..last
    gens = [*stable, *nus, *map(_mu, range(0 if run else abs(t)))]
    inner = [] if run else [(i + 1, "23", i) if t < 0 else (i, "23", i + 1) for i in range(first, last)]
    if t < 0:  # entered from both ends, its D_23 edges pointing back to the D_1 end
        return gens, [(0, "1", first), *inner, *[(q, "3", last) for q, row in enumerate(s.a_matrix) if row & 1]], run
    ends = gf2.bits(s.b_matrix[0])
    if not nus and t == 0:
        return gens, [(0, "12", q) for q in ends], run
    pair = [(nb + 1, EMPTY, nb), (0, "12" if t else "1", nb)]  # nu1 <- nu2, left by D_3 (t > 0) or D_2
    enter = ([*pair, (nb + 1, "3", first)] if t else pair) if nus else [(0, "123", first)]
    return gens, [*enter, *inner, *[(last, "2", q) for q in ends]], run


def _stable_part(s: SimplifiedBases) -> tuple[list[DGen], list[tuple[int, str, int]]]:
    """The xi generators and the vertical and horizontal arrow chains of s,
    and the list of their edges, each once: every edge touches its own
    arrow's generators, and within one arrow the labels or the ends differ."""
    gens = [DGen(f"x{p}", 0, "xi") for p in range(len(s.xi))]
    edges = []
    xi_support = [0] * len(s.eta)  # column p of a_matrix: the xi's whose eta expansion holds eta_p
    for q, row in enumerate(s.a_matrix):
        for p in gf2.bits(row):
            xi_support[p] |= 1 << q
    for j, (src, dst, h) in enumerate(s.vertical_arrows, start=1):
        k = len(gens)
        gens += [DGen(f"kap{j}_{i}", 1, "kappa") for i in range(1, h + 1)]
        edges += [(src, "1", k), (dst, "123", k + h - 1), *[(i + 1, "23", i) for i in range(k, k + h - 1)]]
    for j, (src, dst, l) in enumerate(s.horizontal_arrows, start=1):
        k = len(gens)
        gens += [DGen(f"lam{j}_{i}", 1, "lambda") for i in range(1, l + 1)]
        edges += [(q, "3", k) for q in gf2.bits(xi_support[src])]
        edges += [(i, "23", i + 1) for i in range(k, k + l - 1)]
        edges += [(k + l - 1, "2", q) for q in gf2.bits(s.b_matrix[dst])]
    return gens, edges


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# J -> K -> rho_J rho_K for each pair of labels whose product is nonzero
_PRODUCTS = {
    j: {k: p for k in LABELS if (p := label_product(j, k)) is not None} for j in LABELS
}

# (label, source idempotent, target idempotent) of every edge the idempotents allow
_IDEMPOTENT_ENDS = {(EMPTY, 0, 0), (EMPTY, 1, 1), *((lab, *ends) for lab, ends in REEB_IDEMPOTENTS.items())}


def validate_type_d(m: TypeDModule) -> ValidationReport:
    """Check idempotent compatibility, the structure equation, and that no
    identity-labeled maps close a cycle (m.bounded is not a check).

    The structure equation is summed over pairs of edges: each path
    a -D_J-> b -D_K-> c with rho_J rho_K = rho_I adds c to the image of a
    under the output label I, and every image must vanish mod 2.
    """
    checks = ("idempotents", "structure_equation", "empty_cycle_free")
    report = ValidationReport(dict.fromkeys(checks, True))
    bad, images = _check_edges(m)
    for src, label, dst in bad:
        report.fail(
            "idempotents",
            f"edge {m.generators[src].id} -D{label or '_empty'}-> "
            f"{m.generators[dst].id} violates idempotents",
        )
    failing = {label for label, _ in images}
    for out_label in LABELS:
        if out_label in failing:
            report.fail(
                "structure_equation",
                f"structure equation fails at output label {out_label or 'empty'}",
            )
    if not m.identity_acyclic:
        report.fail("empty_cycle_free", "directed cycle of identity-labeled maps")
    return report


def _check_edges(m: TypeDModule) -> tuple[list[tuple[int, str, int]], dict[tuple[str, int], int]]:
    """(edges breaking idempotents, in order; nonzero structure-equation images,
    (output label, start) -> ends): the stable part's, extended by every edge
    pair that takes a listed chain edge, in one walk of them.  A run adds no
    other pair: its D_23 edges join iota_1 generators, as the idempotents
    allow, and two of them in a row give rho_23 rho_23 = 0."""
    base = m.stable or _EMPTY_PART
    nb, idems, adj, (run, step, _) = len(base.generators), m.idempotents, m.adj, m._run
    bad, images = base._checks
    bad, images = list(bad), dict(images)
    for edge in m.chain:
        src, label, dst = edge
        if (label, idems[src], idems[dst]) not in _IDEMPOTENT_ENDS:
            bad.append(edge)
        after = _PRODUCTS[label]
        for second, end in adj[dst]:
            if (product := after.get(second)) is not None:
                images[product, src] = images.get((product, src), 0) ^ 1 << end
        # an edge into src that is not listed, then this one: a stable edge,
        # or the run's D_23 edge into its end
        before = base.ins[src] if src < nb else [(src - step, "23")] if src in run and src - step in run else ()
        for first_src, first in before:
            if (product := _PRODUCTS[first].get(label)) is not None:
                images[product, first_src] = images.get((product, first_src), 0) ^ 1 << dst
    images = {key: image for key, image in images.items() if image}
    return sorted(bad), images


# ---------------------------------------------------------------------------
# Z2 gradings
# ---------------------------------------------------------------------------

def solve_gradings(m: TypeDModule) -> TypeDModule:
    """The grading stage: read m.gradings, solving them once, and return m."""
    m.gradings
    return m


# ---------------------------------------------------------------------------
# Subspaces and durable generators
# ---------------------------------------------------------------------------

def bk_prime(s: SimplifiedBases, k: int) -> list[int]:
    """Basis of B'_k in xi coordinates.

    B_k is spanned by the xi and eta basis vectors of Alexander grading
    exactly k; B'_k is its intersection with the span of the even xi's
    (index >= 2) and with the span of the odd eta's.  Both bases are
    homogeneous: each eta row is a combination of xi's at its own level.
    So B_k is the span of the xi's at level k, and a sum of odd eta rows
    that lies there is the sum of its rows at level k, the other levels'
    rows cancelling level by level.  B'_k is thus the combinations of the
    odd eta rows at level k that vanish off the even xi's.
    """
    return _bk_primes(s).get(k, [])


def _bk_primes(s: SimplifiedBases) -> dict[int, list[int]]:
    """bk_prime of every level with an odd eta row, one elimination per level:
    each row is tagged with itself below its part off the even xi's, so the
    residues that keep no such part span B'_k.  Each basis is returned
    reduced, so it depends on B'_k alone, not on the order of the rows."""
    n = len(s.xi)
    off = ~sum(1 << p for p in range(2, n, 2))
    tagged: dict[int, list[int]] = {}
    for p in range(1, len(s.eta), 2):
        row = s.b_matrix[p]
        tagged.setdefault(s.eta_alex[p], []).append((row & off) << n | row)
    return {k: gf2.reduced_basis([res for res in gf2.echelon(rows, n)[1] if not res >> n])
            for k, rows in tagged.items()}


# A B'_k basis of at most SPAN_CAP vectors contributes every nonzero element
# of its span (at most 2**SPAN_CAP - 1) to the durable candidates; a larger
# one contributes only its basis vectors.  Fewer candidates can only miss
# pairs, which is sound: the shortcut only ever certifies non-L-spaces.
SPAN_CAP = 12

# The outgoing chains allowed from an iota_0 durable generator: after a label
# prefix in the table, a nonzero map may carry only the labels it lists.  A
# prefix outside the table constrains nothing further.
_CHAIN_NEXT = {
    (): ("3", "123"),
    ("123",): ("23",),
    ("3",): ("23", "2"),
    ("3", "2"): ("123",),
}

# The durable and weakly durable conditions, keyed by the idempotent of v: a
# (strong, weak) pair whose parts are (vanish, unhit), two lists of label
# words in path order.  Every word in vanish must map v to zero; no word in
# unhit may project onto v (see _hits).  The iota_0 strong words that vanish
# are the exits of _CHAIN_NEXT.  The iota_1 strong part asks D_J.D_K to miss
# v only for J in {1, 123}, the single labels allowed to hit v: Im(D_J.D_K)
# lies in Im(D_J), and a zero row of D_J stays zero in D_J.D_K.
_CONDITIONS = {
    0: (
        ([p + (lab,) for p, ok in _CHAIN_NEXT.items() for lab in LABELS if lab not in ok],
         [(lab,) for lab in LABELS]),
        ([("1",), ("12",), ("123", "2"), ("3", "2", "1"), ("3", "2", "12")], []),
    ),
    1: (
        ([(lab,) for lab in LABELS if lab != "23"],
         [(lab,) for lab in LABELS if lab not in ("1", "123")]
         + [(k, j) for j in ("1", "123") for k in LABELS]),
        ([("2",)], [("3",), ("3", "2", "1")]),
    ),
}


def _hits(v: int, m: TypeDModule, word: tuple[str, ...]) -> bool:
    """Whether the composite map of a path-order label word projects onto v.

    This is the one incoming rule of the durable conditions.  For a single
    generator it is the coordinate projection: row v of the map is nonzero.
    That row is read backwards along the in-edges, one label at a time, as
    the starts (mod 2) of the paths that spell the word's suffix and end at
    v, so no whole map is built.  For a combination it is membership of v in
    the span of the map's ends, the basis-independent reading; a _Shift
    answers it without listing its run.
    """
    if v & (v - 1):
        comp = m.composite(word)
        return comp.spans(v) if isinstance(comp, _Shift) else gf2.in_span(list(comp.values()), v)
    ins, row = m.ins, v
    for label in reversed(word):
        starts = 0
        while row:
            low = row & -row
            for src, lab in ins[low.bit_length() - 1]:
                if lab == label:
                    starts ^= 1 << src
            row ^= low
        if not starts:
            return False
        row = starts
    return True


def durability(m: TypeDModule, v: int) -> dict:
    """Evaluate the durable and weakly durable conditions on a vector.

    v is a bitmask over the module's generators, nonzero and supported in a
    single idempotent; ValueError otherwise, also for a negative v or a bit
    past the last generator.  The conditions are the words of _CONDITIONS:
    the constraints on outgoing compositions only mention the first three
    maps, and a composition is nonzero only if all its prefixes are.
    Incoming words are judged by _hits, first; outgoing ones are applied to
    v one label map at a time, until the image vanishes.
    """
    if v == 0:
        raise ValueError("durability of the zero vector is undefined")
    if v < 0 or v >> len(m.generators):
        raise ValueError("vector has a bit outside the module's generators")
    idems = {m.idempotents[i] for i in gf2.bits(v)}
    if len(idems) != 1:
        raise ValueError("vector mixes idempotents")
    strong, weak = _CONDITIONS[idems.pop()]

    def holds(vanish, unhit) -> bool:
        return not any(_hits(v, m, word) for word in unhit) and all(
            reduce(lambda w, label: w and gf2.apply_sparse(m.composites[label,], w), word, v) == 0
            for word in vanish
        )

    durable = holds(*strong)
    return {"durable": durable, "weakly_durable": durable or holds(*weak)}


def durable_candidates(s: SimplifiedBases) -> list[int]:
    """The vectors find_durable_pairs tries, in first-seen order without repeats.

    They are the nonzero elements of every B'_k (only its basis vectors
    past SPAN_CAP) together with the xi basis vectors and eta rows (which
    covers the designated generators of L-space-form complexes).  They
    depend on s alone, not on a framing: the first call for s lists them
    and keeps the list in s's instance dict, as build_cfd keeps the stable
    part.  Vectors are bitmasks over module generators; iota_0 coordinates
    coincide with xi indices by construction.
    """
    kept = vars(s).get("_durable_candidates")
    if kept is not None:
        return kept
    candidates: list[int] = []
    for _, basis in sorted(_bk_primes(s).items()):
        if len(basis) > SPAN_CAP:
            candidates += basis
        else:
            candidates += [gf2.apply_columns(basis, mask) for mask in range(1, 1 << len(basis))]
    candidates += [1 << p for p in range(len(s.xi))]
    candidates += s.b_matrix
    kept = vars(s)["_durable_candidates"] = list(dict.fromkeys(candidates))
    return kept


def iter_durable_pairs(m: TypeDModule, candidates: list[int]):
    """Yield (x, y = D_123 x, "durable" or "weak") for each candidate x whose
    pair is (weakly) durable in m, lazily, so a caller can stop at its first
    hit; y is judged only when x is at least weakly durable.  The shortcut
    scans once per complex, chain class and fact (durable_fact)."""
    d123 = m.composites["123",]
    for x in candidates:
        y = gf2.apply_sparse(d123, x)
        if not y:
            continue
        dx = durability(m, x)
        if not dx["weakly_durable"]:
            continue
        dy = durability(m, y)
        if dx["durable"] and dy["durable"]:
            yield x, y, "durable"
        elif dy["weakly_durable"]:
            yield x, y, "weak"


def durable_fact(m: TypeDModule, s: SimplifiedBases, t: int, durable: bool) -> bool:
    """Whether m, the module of s framed at t = n - 2 tau, has a durable pair
    (durable) or any pair of iter_durable_pairs, found at the first hit.

    Each answer is kept in s's instance dict, as durable_candidates keeps
    its list, keyed by the fact and the chain class: t while |t| < RUN_MIN,
    else RUN_MIN with t's sign, one of 2 * RUN_MIN + 1.  The first side of
    a class computes it, every later side of that class reads it, and two
    concurrent first sides store the same value.  This is exact.  A class
    below RUN_MIN is one framing.  The others keep the sign of t, so all
    their modules have one stable part, canceling pair (or none) and chain
    entry and exit edges, and differ only in the length of the run between.
    The conditions read label words of at most three letters, out of an
    iota_0 candidate x or y = D_123 x and into them; such a word steps at
    most three generators along a run of |t| >= RUN_MIN, so it never passes
    from one end of the run to the other, and a span reading sees a run only
    through its two ends (_Shift.spans).  So no answer depends on |t| there.
    """
    facts = vars(s).setdefault("_durable_facts", {})
    key = durable, max(-RUN_MIN, min(t, RUN_MIN))
    fact = facts.get(key)
    if fact is None:
        pairs = iter_durable_pairs(m, durable_candidates(s))
        fact = facts[key] = any(p[2] == "durable" for p in pairs) if durable else any(pairs)
    return fact


def find_durable_pairs(m: TypeDModule, s: SimplifiedBases) -> list[tuple[int, int, str]]:
    """Every pair of iter_durable_pairs over durable_candidates(s), durable
    ones first, each kind by x."""
    pairs = iter_durable_pairs(m, durable_candidates(s))
    return sorted(pairs, key=lambda t: (t[2] != "durable", t[0]))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def sorted_edges(m: TypeDModule):
    """m's edges in sorted order.  With a run, the listed edges, kept sorted,
    are merged lazily with the run's D_23 edges, which come by source, so no
    list of the run is built."""
    if not m.run:
        return sorted(m.edges)
    listed = m.edges.head
    return heapq.merge(listed, map(m.edges.item, range(len(listed), len(m.edges))))


def dot_lines(m: TypeDModule):
    """The DOT export of m, a line at a time, each ending in a newline."""
    yield "digraph cfd {\n"
    for g, grading in zip(m.generators, m.gradings):
        yield f'  "{g.id}" [idempotent={g.idempotent}, role="{g.role}", grading={grading}];\n'
    for src, label, dst in sorted_edges(m):
        yield f'  "{m.generators[src].id}" -> "{m.generators[dst].id}" [label="D{label or "empty"}"];\n'
    yield "}\n"


def to_dot(m: TypeDModule) -> str:
    """The lines of dot_lines, joined."""
    return "".join(dot_lines(m))
