"""Type D modules over the torus algebra, as labeled coefficient-map graphs.

A module stores generators split over the two idempotents and, for each
coefficient-map label (the six Reeb labels plus '' for the identity), the
F2 map of that label, once, as a dict from each start to its nonzero ends.
build_cfd assembles the module of an integer n-framed knot complement
from simplified bases: one chain of iota_1 generators per vertical and per
horizontal arrow, plus the framing dependent unstable chain joining xi_0
to eta_0.  The first part, the stable part, is built, validated and graded
once per bases and kept on them; each framing builds only its unstable
chain over it.  Every pass over a framed module extends the stable part's
result through the chain edges or, where it cannot, redoes the whole module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
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
    Each pass extends the stable part's result, shared read-only, through the
    other edges, `chain`, sorted, or else redoes the whole module: construction
    (out-edges, boundedness, single-label maps, which live only in composites),
    the checks (validate_type_d) and the gradings, on first read."""

    generators: list[DGen]
    edges: frozenset[tuple[int, str, int]]  # (src index, label, dst index)
    stable: TypeDModule | None = field(default=None, repr=False, compare=False)
    chain: list[tuple[int, str, int]] = field(init=False, repr=False, compare=False)
    # generator -> its idempotent, the list the hot loops read
    idempotents: list[int] = field(init=False, repr=False, compare=False)
    # src -> its out-edges (label, dst), sorted; every generator has an entry
    adj: dict[int, list[tuple[str, int]]] = field(init=False, repr=False, compare=False)
    # whether the labeled graph (all labels) has no directed cycle
    bounded: bool = field(init=False, repr=False, compare=False)
    # nonempty path-order label word -> its map, start -> nonzero ends: the
    # single labels from construction, longer words filled by composite on
    # first ask, also when the map vanishes
    composites: dict[tuple[str, ...], dict[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        base = self.stable or _EMPTY_PART
        gens, nb, n = self.generators, len(base.generators), len(self.generators)
        new = self.edges - base.edges
        if gens[:nb] != base.generators or len(self.edges) - len(new) != len(base.edges):
            raise ValueError("a module must begin with its stable part's generators and hold its edges")
        ids = [g.id for g in gens[nb:]]
        if len(set(ids)) != len(ids) or not base.ids.isdisjoint(ids):
            raise ValueError("duplicate generator ids")
        chain = sorted(new)
        kept = base.composites  # a label the chain does not use keeps its map
        adj = {**base.adj, **{i: [] for i in range(nb, n)}}
        singles: dict[str, dict[int, int]] = {label: {} for label in LABELS}
        for src, label, dst in chain:
            if label not in singles:
                raise ValueError(f"unknown coefficient-map label {label!r}")
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError("edge endpoint out of range")
            col = singles[label]  # edges are distinct: an end is never 0
            col[src] = (col.get(src) or kept[label,].get(src, 0)) | 1 << dst
            if src < nb:  # a sorted copy: the stable part's list is shared
                adj[src] = sorted(adj[src] + [(label, dst)])
            else:
                adj[src].append((label, dst))
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "idempotents", base.idempotents + [g.idempotent for g in gens[nb:]])
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "bounded", base.bounded and _acyclic_beyond(self))
        composites = {(lab,): {**kept[lab,], **cols} if cols else kept[lab,] for lab, cols in singles.items()}
        object.__setattr__(self, "composites", composites)

    @cached_property
    def ids(self) -> frozenset[str]:
        """The generator ids, read when the module is a stable part."""
        return frozenset(g.id for g in self.generators)

    @cached_property
    def ins(self) -> dict[int, list[tuple[int, str]]]:
        """dst -> its in-edges (src, label), sorted: the stable part's lists,
        extended by the chain edges as adj is."""
        base = self.stable or _EMPTY_PART
        nb = len(base.generators)
        ins = {**base.ins, **{i: [] for i in range(nb, len(self.generators))}}
        for src, label, dst in self.chain:
            if dst < nb:  # a sorted copy: the stable part's list is shared
                ins[dst] = sorted(ins[dst] + [(src, label)])
            else:
                ins[dst].append((src, label))
        return ins

    # -- basic queries ------------------------------------------------------

    def matrix(self, label: str) -> list[int]:
        """D_label's columns over all generators, a new dense list on every call."""
        ends = self.composites[label,]
        return [ends.get(i, 0) for i in range(len(self.generators))]

    def composite(self, word: tuple[str, ...]) -> dict[int, int]:
        """The map D_word[-1]...D_word[0] of a path-order label word, start ->
        nonzero ends (shared: do not mutate).

        Its entry at a start counts, mod 2, the paths from there whose labels
        spell the word.  It is built from the longest cached prefix, one label
        map at a time, and kept, vanishing or not, so asking again is one
        lookup.  The empty word's map, the identity, is not stored: ValueError on ().
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
            comp = cache[word[:n]] = {s: e for s, c in comp.items() if (e := gf2.apply_sparse(mat, c))}
        cache[word] = comp
        return comp

    def iota_indices(self, idem: int) -> list[int]:
        return [i for i, e in enumerate(self.idempotents) if e == idem]

    def format_vector(self, v: int) -> str:
        names = [self.generators[i].id for i in gf2.bits(v)]
        return "+".join(names) if names else "0"

    @cached_property
    def gradings(self) -> list[int]:
        """Relative Z2 gradings, solved along the edges on first read.

        Every edge x -D_I-> y imposes gr(y) = gr(x) + 1 + gr(rho_I) mod 2; the
        lowest-indexed generator of each connected component is anchored to 0.
        The stable part's gradings are extended through the chain edges, or,
        if a chain edge disagrees with them, all edges are solved: ValueError
        names the edge that closes an inconsistent cycle first.  A failed
        solve is not kept, so every read raises again.
        """
        try:
            return _solve_gradings(self, (self.stable or _EMPTY_PART).gradings, self.chain)
        except ValueError:  # the solve over all edges regrades, or names the edge
            return _solve_gradings(self, [], sorted(self.edges))

    @cached_property
    def identity_acyclic(self) -> bool:
        """Whether no identity-labeled maps close a cycle, searched only in an unbounded module."""
        return self.bounded or _acyclic(self.adj, _IDENTITY)

    @cached_property
    def tally(self) -> Counter:
        """(idempotent, grading) -> number of generators, counted on first read."""
        return Counter(zip(self.idempotents, self.gradings))

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


def _solve_gradings(m: TypeDModule, known: list[int], edges) -> list[int]:
    """m's gradings, extending known (those of its first len(known)
    generators) through edges.  Roots are taken in index order, graded ends
    of edges first, so each new component is anchored at its lowest
    generator; ValueError names the edge whose ends disagree."""
    nb, n = len(known), len(m.generators)
    neighbors: dict[int, list[tuple[int, int, str, int]]] = {}
    for src, label, dst in edges:
        step = 1 ^ GRADING[label]
        neighbors.setdefault(src, []).append((dst, step, label, src))
        neighbors.setdefault(dst, []).append((src, step, label, src))
    gr: list[int | None] = known + [None] * (n - nb)
    for root in [*sorted(v for v in neighbors if v < nb), *range(nb, n)]:
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


def _acyclic(adj: dict[int, list[tuple[str, int]]], labels: frozenset[str] = _ALL_LABELS,
             first: int = 0) -> bool:
    """Whether the edges of adj labeled in labels close no directed cycle among
    the generators from first on (adj has an entry for every generator).

    Kahn's pass: generators of in-degree 0 are peeled off, each lowering the
    in-degree of its successors, and every one is peeled iff no cycle blocks.
    """
    indegree = [0] * len(adj)
    for node in range(first, len(adj)):
        for lab, dst in adj[node]:
            if lab in labels and dst >= first:
                indegree[dst] += 1
    peeled = [i for i in range(first, len(adj)) if not indegree[i]]
    for node in peeled:  # grows while it is read
        for lab, nxt in adj[node]:
            if lab in labels and nxt >= first:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    peeled.append(nxt)
    return len(peeled) == len(adj) - first


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
            return _acyclic(m.adj)
        for _, nxt in m.adj[node]:  # the stable part's edges: node leaves by no chain edge
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return _acyclic(m.adj, first=nb)


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
    unstable chain's generators and edges and builds the module over the
    stable part.  Both edge lists are distinct by construction.

    The construction reads each eta basis vector as a combination of xi
    vectors at its own Alexander level, which holds for every s that
    simplify returns: both bases are read at their own levels.
    """
    stable = vars(s).get("_stable_cfd")
    if stable is None:  # the first framing of s builds the stable part and keeps it
        gens, edges = _stable_part(s)
        stable = vars(s)["_stable_cfd"] = TypeDModule(gens, frozenset(edges))
    gens, chain = _unstable_chain(s, n, stable.generators)
    return TypeDModule(gens, stable.edges | frozenset(chain), stable)


def _unstable_chain(s: SimplifiedBases, n: int,
                    stable: list[DGen]) -> tuple[list[DGen], list[tuple[int, str, int]]]:
    """The generators of the n-framed module (the stable ones, then the chain's)
    and the list of the unstable chain's edges, each once."""
    nb, t = len(stable), n - 2 * s.tau
    # The canceling pair nu1 <- nu2 sits where the directed chain enters:
    # after D_1 (iota_1) when t = 0, after D_12 (iota_0) when t > 0.
    nus = [] if s.lspace_form or t < 0 else [DGen(f"nu{i}", int(t == 0), "nu") for i in (1, 2)]
    gens = [*stable, *nus, *[DGen(f"mu{i}", 1, "mu") for i in range(1, abs(t) + 1)]]
    first, last = nb + len(nus), len(gens) - 1  # the mu chain, if any, runs first..last
    if t < 0:  # entered from both ends, D_23 maps pointing back to the D_1 end
        return gens, [(0, "1", first), *[(i + 1, "23", i) for i in range(first, last)],
                      *[(q, "3", last) for q, row in enumerate(s.a_matrix) if row & 1]]
    ends = gf2.bits(s.b_matrix[0])
    if not nus and t == 0:
        return gens, [(0, "12", q) for q in ends]
    pair = [(nb + 1, EMPTY, nb), (0, "12" if t else "1", nb)]  # nu1 <- nu2, left by D_3 (t > 0) or D_2
    enter = ([*pair, (nb + 1, "3", first)] if t else pair) if nus else [(0, "123", first)]
    return gens, [*enter, *[(i, "23", i + 1) for i in range(first, last)], *[(last, "2", q) for q in ends]]


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
    pair that takes a chain edge, in one walk of the chain."""
    base = m.stable or _EMPTY_PART
    nb, idems, adj = len(base.generators), m.idempotents, m.adj
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
        if src < nb:  # a stable edge into src, then this one
            for first_src, first in base.ins[src]:
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
    the span of the map's ends, the basis-independent reading.
    """
    if v & (v - 1):
        return gf2.in_span(list(m.composite(word).values()), v)
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
    hit; y is judged only when x is at least weakly durable."""
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


def find_durable_pairs(m: TypeDModule, s: SimplifiedBases) -> list[tuple[int, int, str]]:
    """Every pair of iter_durable_pairs over durable_candidates(s), durable
    ones first, each kind by x."""
    pairs = iter_durable_pairs(m, durable_candidates(s))
    return sorted(pairs, key=lambda t: (t[2] != "durable", t[0]))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(m: TypeDModule) -> str:
    lines = ["digraph cfd {"]
    for g, grading in zip(m.generators, m.gradings):
        lines.append(
            f'  "{g.id}" [idempotent={g.idempotent}, role="{g.role}", grading={grading}];'
        )
    for src, label, dst in sorted(m.edges):
        lab = label if label else "empty"
        lines.append(
            f'  "{m.generators[src].id}" -> "{m.generators[dst].id}" [label="D{lab}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
