"""Type D modules over the torus algebra, as labeled coefficient-map graphs.

A module stores generators split over the two idempotents and, for each
coefficient-map label (the six Reeb labels plus '' for the identity), the
F2 matrix of that map.  The builder assembles the module of an integer
n-framed knot complement from simplified bases: one chain of iota_1
generators per vertical and per horizontal arrow, plus the framing
dependent unstable chain joining xi_0 to eta_0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import gf2
from .algebra import (
    EMPTY,
    GRADING,
    LABELS,
    REEB_IDEMPOTENTS,
    label_factorizations,
)
from .cfk import SimplifiedBases


@dataclass(frozen=True)
class DGen:
    id: str
    idempotent: int  # 0 or 1
    role: str        # xi, eta_alias, kappa, lambda, mu, nu


@dataclass
class TypeDModule:
    generators: list[DGen]
    edges: frozenset[tuple[int, str, int]]  # (src index, label, dst index)
    gradings: list[int] | None = None

    def __post_init__(self):
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate generator ids")
        for src, label, dst in self.edges:
            if label not in LABELS:
                raise ValueError(f"unknown coefficient-map label {label!r}")
            if not (0 <= src < len(ids) and 0 <= dst < len(ids)):
                raise ValueError("edge endpoint out of range")

    # -- basic queries ------------------------------------------------------

    def index_of(self, gen_id: str) -> int:
        for i, g in enumerate(self.generators):
            if g.id == gen_id:
                return i
        raise KeyError(gen_id)

    def matrix(self, label: str) -> list[int]:
        """Columns of D_label over all generators."""
        cols = [0] * len(self.generators)
        for src, lab, dst in self.edges:
            if lab == label:
                cols[src] ^= 1 << dst
        return cols

    def out_edges(self, labels: tuple[str, ...] = LABELS) -> dict[int, list[tuple[str, int]]]:
        adj: dict[int, list[tuple[str, int]]] = {i: [] for i in range(len(self.generators))}
        for src, lab, dst in sorted(self.edges):
            if lab in labels:
                adj[src].append((lab, dst))
        return adj

    def iota_indices(self, idem: int) -> list[int]:
        return [i for i, g in enumerate(self.generators) if g.idempotent == idem]

    def is_bounded(self) -> bool:
        """True when the labeled graph (all labels) has no directed cycle."""
        return _acyclic(len(self.generators), self.edges)

    def format_vector(self, v: int) -> str:
        names = [self.generators[i].id for i in gf2.bits(v)]
        return "+".join(names) if names else "0"


def walk_paths(adj: dict[int, list[tuple[str, int]]], step, state, max_len: int | None = None):
    """Yield (start, end, state, length) for every directed path of 1..max_len edges.

    Each path's state begins as `state` at its start and is extended by
    step(state, label) along every edge.  The walk keeps an explicit stack,
    so path length is bounded by max_len (or by acyclicity of adj when
    max_len is None), never by the interpreter's recursion limit.
    """
    for start in adj:
        stack = [(start, state, 0)]
        while stack:
            node, prefix, length = stack.pop()
            if length == max_len:
                continue
            for label, nxt in adj[node]:
                extended = step(prefix, label)
                yield start, nxt, extended, length + 1
                stack.append((nxt, extended, length + 1))


def _acyclic(n: int, edges, labels: tuple[str, ...] | None = None) -> bool:
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
    for src, lab, dst in edges:
        if labels is None or lab in labels:
            adj[src].append(dst)
    state = [0] * n  # 0 unseen, 1 active, 2 done
    for root in range(n):
        if state[root]:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if state[nxt] == 1:
                    return False
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                state[node] = 2
                stack.pop()
    return True


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
    if not s.bases_compatible:
        raise ValueError(
            f"{s.complex.name}: the vertical and horizontal reductions produced"
            " bases that are not filtration compatible; re-present the complex"
            " in a basis where they are"
        )
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

@dataclass
class TypeDReport:
    structure_ok: bool
    idempotents_ok: bool
    empty_cycle_free: bool
    bounded: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.structure_ok and self.idempotents_ok and self.empty_cycle_free


def validate_type_d(m: TypeDModule) -> TypeDReport:
    """Check idempotent compatibility, the structure equation, and boundedness."""
    problems: list[str] = []

    idem_ok = True
    for src, label, dst in sorted(m.edges):
        si = m.generators[src].idempotent
        di = m.generators[dst].idempotent
        if label == EMPTY:
            good = si == di
        else:
            left, right = REEB_IDEMPOTENTS[label]
            good = (si, di) == (left, right)
        if not good:
            idem_ok = False
            problems.append(
                f"edge {m.generators[src].id} -D{label or '_empty'}-> "
                f"{m.generators[dst].id} violates idempotents"
            )

    mats = {lab: m.matrix(lab) for lab in LABELS}
    structure_ok = True
    for out_label in LABELS:
        total = [0] * len(m.generators)
        for j, k in label_factorizations(out_label):
            comp = gf2.compose(mats[k], mats[j])
            total = [a ^ b for a, b in zip(total, comp)]
        if any(total):
            structure_ok = False
            problems.append(f"structure equation fails at output label {out_label or 'empty'}")

    empty_free = _acyclic(len(m.generators), m.edges, labels=(EMPTY,))
    if not empty_free:
        problems.append("directed cycle of identity-labeled maps")

    return TypeDReport(
        structure_ok=structure_ok,
        idempotents_ok=idem_ok,
        empty_cycle_free=empty_free,
        bounded=m.is_bounded(),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# Z2 gradings
# ---------------------------------------------------------------------------

def solve_gradings(m: TypeDModule) -> TypeDModule:
    """Assign relative Z2 gradings along edges.

    Every edge x -D_I-> y imposes gr(y) = gr(x) + 1 + gr(rho_I) mod 2; the
    lowest-indexed generator of each connected component is anchored to 0.
    Raises ValueError naming an edge that closes an inconsistent cycle.
    """
    n = len(m.generators)
    gr: list[int | None] = [None] * n
    neighbors: dict[int, list[tuple[int, int, str, int]]] = {i: [] for i in range(n)}
    for src, label, dst in sorted(m.edges):
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
                        f"{m.generators[esrc].id} -D{label or '_empty'}->"
                    )
    return replace(m, gradings=[g for g in gr])


def check_gradings(m: TypeDModule) -> bool:
    """Independent re-verification of every edge constraint."""
    if m.gradings is None:
        return False
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


def _row_functional(m: TypeDModule, u: int, label: str) -> int:
    """The functional u composed with D_label: bit j set iff <u, D(e_j)> = 1."""
    out = 0
    for j, col in enumerate(m.matrix(label)):
        if bin(u & col).count("1") % 2:
            out |= 1 << j
    return out


def _has_incoming(m: TypeDModule, v: int, label: str) -> bool:
    """Whether the projection onto v composed with D_label is nonzero.

    For a single generator this is the coordinate projection (a nonzero row);
    for a combination it asks whether v lies in the image, which is the
    basis-independent reading.
    """
    cols = m.matrix(label)
    if v & (v - 1) == 0:
        return _row_functional(m, v, label) != 0
    return gf2.in_span([c for c in cols if c], v)


def _hits_v(m: TypeDModule, v: int, composite_cols: list[int]) -> bool:
    if v & (v - 1) == 0:
        i = v.bit_length() - 1
        return gf2.row_of(composite_cols, i) != 0
    return gf2.in_span([c for c in composite_cols if c], v)


def durability(m: TypeDModule, v: int) -> dict:
    """Evaluate the durable and weakly durable conditions on a vector.

    v is a bitmask over the module's generators, nonzero and supported in a
    single idempotent.  All conditions reduce to finite-depth checks: the
    constraints on outgoing compositions only mention the first three maps,
    and a composition is nonzero only if all its prefixes are.
    """
    if v == 0:
        raise ValueError("durability of the zero vector is undefined")
    idems = {m.generators[i].idempotent for i in gf2.bits(v)}
    if len(idems) != 1:
        raise ValueError("vector mixes idempotents")
    idem = idems.pop()
    mats = {lab: m.matrix(lab) for lab in LABELS}

    def apply(label: str, w: int) -> int:
        return gf2.apply_columns(mats[label], w)

    if idem == 0:
        no_incoming = not any(_has_incoming(m, v, lab) for lab in LABELS)

        chains_ok = True
        for l1 in LABELS:
            w1 = apply(l1, v)
            if not w1:
                continue
            if l1 not in ("3", "123"):
                chains_ok = False
                break
            for l2 in LABELS:
                w2 = apply(l2, w1)
                if not w2:
                    continue
                if l1 == "123" and l2 != "23":
                    chains_ok = False
                if l1 == "3" and l2 not in ("23", "2"):
                    chains_ok = False
                if not chains_ok:
                    break
                for l3 in LABELS:
                    w3 = apply(l3, w2)
                    if w3 and l2 == "2" and l3 != "123":
                        chains_ok = False
                        break
                if not chains_ok:
                    break
            if not chains_ok:
                break
        durable = no_incoming and chains_ok

        d123 = apply("123", v)
        d3 = apply("3", v)
        weakly = (
            apply("1", v) == 0
            and apply("12", v) == 0
            and apply("2", d123) == 0
            and apply("1", apply("2", d3)) == 0
            and apply("12", apply("2", d3)) == 0
        )
    else:
        incoming_ok = True
        for l1 in LABELS:
            if not _has_incoming(m, v, l1):
                continue
            if l1 not in ("1", "123"):
                incoming_ok = False
                break
        if incoming_ok and v & (v - 1) == 0:
            # No composition of length >= 2 may project onto v: it suffices
            # that every depth-2 functional vanishes.
            for l_last in LABELS:
                u1 = _row_functional(m, v, l_last)
                if not u1:
                    continue
                for l_prev in LABELS:
                    if _row_functional(m, u1, l_prev):
                        incoming_ok = False
                        break
                if not incoming_ok:
                    break
        elif incoming_ok:
            for l_last in LABELS:
                for l_prev in LABELS:
                    comp = gf2.compose(mats[l_last], mats[l_prev])
                    if any(comp) and _hits_v(m, v, comp):
                        incoming_ok = False
                        break
                if not incoming_ok:
                    break

        outgoing_ok = all(apply(lab, v) == 0 for lab in LABELS if lab != "23")
        durable = incoming_ok and outgoing_ok

        d3_comp = mats["3"]
        d123_chain = gf2.compose(mats["1"], gf2.compose(mats["2"], mats["3"]))
        weakly = (
            apply("2", v) == 0
            and not _hits_v(m, v, d3_comp)
            and not _hits_v(m, v, d123_chain)
        )

    return {"durable": durable, "weakly_durable": weakly or durable}


def find_durable_pairs(m: TypeDModule, s: SimplifiedBases) -> list[tuple[int, int, str]]:
    """Pairs (x, y = D_123 x) with both components (weakly) durable.

    Candidates are the nonzero elements of every B'_k together with the xi
    basis vectors and eta rows (which covers the designated generators of
    L-space-form complexes).  Vectors are bitmasks over module generators;
    iota_0 coordinates coincide with xi indices by construction.
    """
    candidates: list[int] = []
    seen: set[int] = set()

    levels = sorted(set(s.xi_alex) | set(s.eta_alex))
    for k in levels:
        basis = bk_prime(s, k)
        if len(basis) > 12:
            vectors = basis
        else:
            vectors = []
            for mask in range(1, 1 << len(basis)):
                vec = 0
                for i in gf2.bits(mask):
                    vec ^= basis[i]
                vectors.append(vec)
        for vec in vectors:
            if vec and vec not in seen:
                seen.add(vec)
                candidates.append(vec)
    for p in range(len(s.xi)):
        vec = 1 << p
        if vec not in seen:
            seen.add(vec)
            candidates.append(vec)
    for row in s.b_matrix:
        if row and row not in seen:
            seen.add(row)
            candidates.append(row)

    d123 = m.matrix("123")
    pairs: list[tuple[int, int, str]] = []
    found: set[tuple[int, int]] = set()
    for x in candidates:
        y = gf2.apply_columns(d123, x)
        if not y or (x, y) in found:
            continue
        dx = durability(m, x)
        dy = durability(m, y)
        if dx["durable"] and dy["durable"]:
            strength = "durable"
        elif dx["weakly_durable"] and dy["weakly_durable"]:
            strength = "weak"
        else:
            continue
        found.add((x, y))
        pairs.append((x, y, strength))
    pairs.sort(key=lambda t: (t[2] != "durable", t[0]))
    return pairs


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def to_dot(m: TypeDModule, name: str = "cfd") -> str:
    lines = [f"digraph {name} {{"]
    for i, g in enumerate(m.generators):
        grading = "" if m.gradings is None else f", grading={m.gradings[i]}"
        lines.append(
            f'  "{g.id}" [idempotent={g.idempotent}, role="{g.role}"{grading}];'
        )
    for src, label, dst in sorted(m.edges):
        lab = label if label else "empty"
        lines.append(
            f'  "{m.generators[src].id}" -> "{m.generators[dst].id}" [label="D{lab}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
