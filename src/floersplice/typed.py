"""Type D modules over the torus algebra, as labeled coefficient-map graphs.

A module stores generators split over the two idempotents and, for each
coefficient-map label (the six Reeb labels plus '' for the identity), the
F2 matrix of that map.  The builder assembles the module of an integer
n-framed knot complement from simplified bases: one chain of iota_1
generators per vertical and per horizontal arrow, plus the framing
dependent unstable chain joining xi_0 to eta_0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_

from . import gf2
from .algebra import EMPTY, GRADING, LABELS, REEB_IDEMPOTENTS, label_product
from .cfk import SimplifiedBases, ValidationReport


@dataclass(frozen=True)
class DGen:
    id: str
    idempotent: int  # 0 or 1
    role: str        # xi, eta_alias, kappa, lambda, mu, nu


@dataclass(frozen=True)
class TypeDModule:
    generators: list[DGen]
    edges: frozenset[tuple[int, str, int]]  # (src index, label, dst index)
    # label -> columns of D_label over all generators, built once from edges
    mats: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    # src -> its out-edges (label, dst), sorted; every generator has an entry
    adj: dict[int, list[tuple[str, int]]] = field(init=False, repr=False, compare=False)
    # whether the labeled graph (all labels) has no directed cycle
    bounded: bool = field(init=False, repr=False, compare=False)
    # nonempty path-order label word -> its composite map: the single labels
    # from construction, longer words filled by composite on first ask, also
    # when the map vanishes
    composites: dict[tuple[str, ...], Composite] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator ids")
        mats = {label: [0] * len(ids) for label in LABELS}
        singles: dict[str, dict[int, int]] = {label: {} for label in LABELS}
        adj: dict[int, list[tuple[str, int]]] = {i: [] for i in range(len(ids))}
        for src, label, dst in sorted(self.edges):
            if label not in LABELS:
                raise ValueError(f"unknown coefficient-map label {label!r}")
            if not (0 <= src < len(ids) and 0 <= dst < len(ids)):
                raise ValueError("edge endpoint out of range")
            col = mats[label]
            col[src] ^= 1 << dst
            singles[label][src] = col[src]  # edges are distinct: never 0
            adj[src].append((label, dst))
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "bounded", _acyclic(adj))
        composites = {(label,): Composite(cols) for label, cols in singles.items()}
        object.__setattr__(self, "composites", composites)

    # -- basic queries ------------------------------------------------------

    def index_of(self, gen_id: str) -> int:
        for i, g in enumerate(self.generators):
            if g.id == gen_id:
                return i
        raise KeyError(gen_id)

    def matrix(self, label: str) -> list[int]:
        """Columns of D_label over all generators (shared: do not mutate)."""
        return self.mats[label]

    def composite(self, word: tuple[str, ...]) -> Composite:
        """The map D_word[-1]...D_word[0] of a path-order label word (shared: do not mutate).

        Its column at a start counts, mod 2, the paths from there whose labels
        spell the word.  It is built from a cached prefix, one label matrix at
        a time, and kept, vanishing or not, so asking again is one lookup.
        The empty word's map, the identity, is not stored: raises ValueError
        on ().
        """
        cache = self.composites
        if word in cache:
            return cache[word]
        if not word:
            raise ValueError("the empty word's map is the identity; no composite is stored")
        # Words with a nonzero cached map are closed under nonempty prefixes; a
        # cached vanishing word may lack some, so the bisect may settle on a
        # shorter cached prefix.  Every cached map is exact: any one will do.
        n, hi = 1, len(word) - 1
        while n < hi:
            mid = (n + hi + 1) // 2
            if word[:mid] in cache:
                n = mid
            else:
                hi = mid - 1
        comp = cache[word[:n]]
        while comp.cols and n < len(word):
            mat = self.mats[word[n]]
            n += 1
            comp = cache[word[:n]] = Composite(
                {s: e for s, c in comp.cols.items() if (e := gf2.apply_columns(mat, c))}
            )
        cache[word] = comp
        return comp

    def iota_indices(self, idem: int) -> list[int]:
        return [i for i, g in enumerate(self.generators) if g.idempotent == idem]

    def format_vector(self, v: int) -> str:
        names = [self.generators[i].id for i in gf2.bits(v)]
        return "+".join(names) if names else "0"

    @cached_property
    def gradings(self) -> list[int]:
        """Relative Z2 gradings, solved along the edges on first read.

        Every edge x -D_I-> y imposes gr(y) = gr(x) + 1 + gr(rho_I) mod 2; the
        lowest-indexed generator of each connected component is anchored to 0.
        Raises ValueError naming an edge that closes an inconsistent cycle; a
        failed solve is not kept, so every read raises again.
        """
        n = len(self.generators)
        gr: list[int | None] = [None] * n
        neighbors: dict[int, list[tuple[int, int, str, int]]] = {i: [] for i in range(n)}
        for src, outs in self.adj.items():
            for label, dst in outs:
                step = (1 + GRADING[label]) % 2
                neighbors[src].append((dst, step, label, src))
                neighbors[dst].append((src, step, label, src))

        for root in range(n):
            if gr[root] is not None:
                continue
            gr[root] = 0
            queue = [root]
            while queue:
                node = queue.pop()
                for other, step, label, esrc in neighbors[node]:
                    want = (gr[node] + step) % 2
                    if gr[other] is None:
                        gr[other] = want
                        queue.append(other)
                    elif gr[other] != want:
                        raise ValueError(
                            "inconsistent grading cycle through edge "
                            f"{self.generators[esrc].id} -D{label or '_empty'}->"
                        )
        return gr

    @cached_property
    def tally(self) -> Counter:
        """(idempotent, grading) -> number of generators, counted on first read."""
        return Counter(zip((g.idempotent for g in self.generators), self.gradings))


class Composite:
    """A composite map's nonzero columns, start -> ends; the rows where it is
    nonzero and an echelon basis of its image are built on first need."""

    def __init__(self, cols: dict[int, int]):
        self.cols = cols

    @cached_property
    def rows(self) -> int:
        return reduce(or_, self.cols.values(), 0)

    @cached_property
    def basis(self) -> gf2.Echelon:
        basis = gf2.Echelon()
        for c in self.cols.values():
            basis.add(c, 0)
        return basis

    def spans(self, v: int) -> bool:
        return self.basis.reduce(v)[0] == 0


def walk_paths(adj: dict[int, list[tuple[str, int]]], step, state):
    """Yield (start, end, state) for every directed path of one or more edges.

    Each path's state begins as `state` at its start and is extended by
    step(state, label) along every edge; a step that returns None cuts the
    path there (it is neither yielded nor extended).  The walk keeps an
    explicit stack, so path length is bounded by acyclicity of adj or by
    the cuts, never by the interpreter's recursion limit.
    """
    for start in adj:
        stack = [(start, state)]
        while stack:
            node, prefix = stack.pop()
            for label, nxt in adj[node]:
                extended = step(prefix, label)
                if extended is None:
                    continue
                yield start, nxt, extended
                stack.append((nxt, extended))


def _acyclic(adj: dict[int, list[tuple[str, int]]], labels: tuple[str, ...] = LABELS) -> bool:
    """Whether the edges of adj labeled in labels close no directed cycle.

    Kahn's pass: generators of in-degree 0 are peeled off, each lowering the
    in-degree of its successors, and every one is peeled iff no cycle blocks.
    """
    indegree = [0] * len(adj)
    for outs in adj.values():
        for lab, dst in outs:
            if lab in labels:
                indegree[dst] += 1
    peeled = [i for i, d in enumerate(indegree) if not d]
    for node in peeled:  # grows while it is read
        for lab, nxt in adj[node]:
            if lab in labels:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    peeled.append(nxt)
    return len(peeled) == len(adj)


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

    The construction (and the L-space-form detection feeding the unstable
    chain choice) presumes each eta basis vector is a combination of xi
    vectors at its own filtration level; presentations whose reductions
    miss that property are refused.
    """
    s.require_compatible()
    gens: list[DGen] = [DGen(f"x{p}", 0, "xi") for p in range(len(s.xi))]
    index: dict[str, int] = {g.id: i for i, g in enumerate(gens)}
    parity: dict[tuple[int, str, int], int] = {}

    def add_gen(gid: str, role: str, idem: int = 1) -> int:
        gens.append(DGen(gid, idem, role))
        index[gid] = len(gens) - 1
        return index[gid]

    def add_edge(src: int, label: str, dst: int) -> None:
        key = (src, label, dst)
        parity[key] = parity.get(key, 0) ^ 1

    def eta_targets(p: int) -> list[int]:
        return gf2.bits(s.b_matrix[p])

    def eta_sources(p: int) -> list[int]:
        return [q for q in range(len(s.a_matrix)) if (s.a_matrix[q] >> p) & 1]

    for j, (src_idx, dst_idx, h) in enumerate(s.vertical_arrows, start=1):
        chain = [add_gen(f"kap{j}_{i}", "kappa") for i in range(1, h + 1)]
        add_edge(index[f"x{src_idx}"], "1", chain[0])
        for i in range(h - 1):
            add_edge(chain[i + 1], "23", chain[i])
        add_edge(index[f"x{dst_idx}"], "123", chain[-1])

    for j, (src_idx, dst_idx, l) in enumerate(s.horizontal_arrows, start=1):
        chain = [add_gen(f"lam{j}_{i}", "lambda") for i in range(1, l + 1)]
        for q in eta_sources(src_idx):
            add_edge(q, "3", chain[0])
        for i in range(l - 1):
            add_edge(chain[i], "23", chain[i + 1])
        for q in eta_targets(dst_idx):
            add_edge(chain[-1], "2", q)

    t = n - 2 * s.tau
    xi0 = index["x0"]
    modified = (not s.lspace_form) and t >= 0

    if not modified:
        if t == 0:
            for q in eta_targets(0):
                add_edge(xi0, "12", q)
        elif t > 0:
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, t + 1)]
            add_edge(xi0, "123", mus[0])
            for i in range(t - 1):
                add_edge(mus[i], "23", mus[i + 1])
            for q in eta_targets(0):
                add_edge(mus[-1], "2", q)
        else:
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, -t + 1)]
            add_edge(xi0, "1", mus[0])
            for i in range(-t - 1):
                add_edge(mus[i + 1], "23", mus[i])
            for q in eta_sources(0):
                add_edge(q, "3", mus[-1])
    else:
        # The canceling pair nu1 <- nu2 sits where the directed chain enters:
        # after D_1 (iota_1) when t = 0, after D_12 (iota_0) when t > 0.
        nu_idem = 1 if t == 0 else 0
        nu1 = add_gen("nu1", "nu", nu_idem)
        nu2 = add_gen("nu2", "nu", nu_idem)
        add_edge(nu2, EMPTY, nu1)
        if t == 0:
            add_edge(xi0, "1", nu1)
            for q in eta_targets(0):
                add_edge(nu2, "2", q)
        else:
            add_edge(xi0, "12", nu1)
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, t + 1)]
            add_edge(nu2, "3", mus[0])
            for i in range(t - 1):
                add_edge(mus[i], "23", mus[i + 1])
            for q in eta_targets(0):
                add_edge(mus[-1], "2", q)

    edges = frozenset(k for k, p in parity.items() if p)
    return TypeDModule(gens, edges)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# (J, K) -> rho_J rho_K for each pair of labels whose product is nonzero
_PRODUCTS = {
    (j, k): p for j in LABELS for k in LABELS if (p := label_product(j, k)) is not None
}


def validate_type_d(m: TypeDModule) -> ValidationReport:
    """Check idempotent compatibility, the structure equation, and that no
    identity-labeled maps close a cycle (m.bounded is not a check).

    The structure equation is summed over pairs of edges: each path
    a -D_J-> b -D_K-> c with rho_J rho_K = rho_I adds c to the image of a
    under the output label I, and every image must vanish mod 2.
    """
    checks = ("idempotents", "structure_equation", "empty_cycle_free")
    report = ValidationReport(dict.fromkeys(checks, True))

    images: dict[tuple[str, int], int] = {}
    for src, outs in m.adj.items():
        si = m.generators[src].idempotent
        for label, dst in outs:
            want = (si, si) if label == EMPTY else REEB_IDEMPOTENTS[label]
            if (si, m.generators[dst].idempotent) != want:
                report.fail(
                    "idempotents",
                    f"edge {m.generators[src].id} -D{label or '_empty'}-> "
                    f"{m.generators[dst].id} violates idempotents",
                )
            for second, end in m.adj[dst]:
                product = _PRODUCTS.get((label, second))
                if product is not None:
                    key = (product, src)
                    images[key] = images.get(key, 0) ^ 1 << end

    failing = {label for (label, _), image in images.items() if image}
    for out_label in LABELS:
        if out_label in failing:
            report.fail(
                "structure_equation",
                f"structure equation fails at output label {out_label or 'empty'}",
            )

    if not _acyclic(m.adj, labels=(EMPTY,)):
        report.fail("empty_cycle_free", "directed cycle of identity-labeled maps")
    return report


# ---------------------------------------------------------------------------
# Z2 gradings
# ---------------------------------------------------------------------------

def solve_gradings(m: TypeDModule) -> TypeDModule:
    """The grading stage: read m.gradings, solving them once, and return m."""
    m.gradings
    return m


def check_gradings(m: TypeDModule) -> bool:
    """Independent re-verification of every edge constraint."""
    for src, label, dst in m.edges:
        if m.gradings[dst] != (m.gradings[src] + 1 + GRADING[label]) % 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Subspaces and durable generators
# ---------------------------------------------------------------------------

def bk_prime(s: SimplifiedBases, k: int) -> list[int]:
    """Basis of B'_k in xi coordinates.

    B_k is spanned by the xi and eta basis vectors of Alexander grading
    exactly k; it is intersected with the span of the even xi's (index >= 2)
    and with the span of the odd eta's.
    """
    bk = [1 << p for p, a in enumerate(s.xi_alex) if a == k]
    bk += [s.b_matrix[p] for p, a in enumerate(s.eta_alex) if a == k]
    even_xi = [1 << p for p in range(2, len(s.xi), 2)]
    odd_eta = [s.b_matrix[p] for p in range(1, len(s.eta), 2)]
    return gf2.intersect(gf2.intersect(bk, even_xi), odd_eta)


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
    For a combination it is membership of v in the image, the
    basis-independent reading.  The map depends only on the module, so
    m.composite builds it once.
    """
    image = m.composite(word)
    if v & (v - 1) == 0:
        return bool(image.rows & v)
    return image.spans(v)


def durability(m: TypeDModule, v: int) -> dict:
    """Evaluate the durable and weakly durable conditions on a vector.

    v is a bitmask over the module's generators, nonzero and supported in a
    single idempotent.  The conditions are the words of _CONDITIONS: the
    constraints on outgoing compositions only mention the first three maps,
    and a composition is nonzero only if all its prefixes are.  Incoming
    words are judged by _hits, first, since they read the module's cached
    composite maps; outgoing ones are applied to v one label at a time.
    """
    if v == 0:
        raise ValueError("durability of the zero vector is undefined")
    idems = {m.generators[i].idempotent for i in gf2.bits(v)}
    if len(idems) != 1:
        raise ValueError("vector mixes idempotents")
    strong, weak = _CONDITIONS[idems.pop()]

    def holds(vanish, unhit) -> bool:
        return not any(_hits(v, m, word) for word in unhit) and all(
            reduce(lambda w, label: gf2.apply_columns(m.mats[label], w), word, v) == 0
            for word in vanish
        )

    durable = holds(*strong)
    return {"durable": durable, "weakly_durable": durable or holds(*weak)}


def durable_candidates(s: SimplifiedBases) -> list[int]:
    """The vectors find_durable_pairs tries, in first-seen order without repeats.

    They are the nonzero elements of every B'_k (only its basis vectors
    past SPAN_CAP) together with the xi basis vectors and eta rows (which
    covers the designated generators of L-space-form complexes).  They
    depend on s alone, not on a framing.  Vectors are bitmasks over module
    generators; iota_0 coordinates coincide with xi indices by construction.
    """
    candidates: list[int] = []
    for k in sorted(set(s.xi_alex) | set(s.eta_alex)):
        basis = bk_prime(s, k)
        if len(basis) > SPAN_CAP:
            candidates += basis
        else:
            candidates += [gf2.apply_columns(basis, mask) for mask in range(1, 1 << len(basis))]
    candidates += [1 << p for p in range(len(s.xi))]
    candidates += s.b_matrix
    return list(dict.fromkeys(candidates))


def iter_durable_pairs(m: TypeDModule, candidates: list[int]):
    """Yield (x, y = D_123 x, "durable" or "weak") for each candidate x whose
    pair is (weakly) durable in m, lazily, so a caller can stop at its first
    hit; y is judged only when x is at least weakly durable."""
    for x in candidates:
        y = gf2.apply_columns(m.mats["123"], x)
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
