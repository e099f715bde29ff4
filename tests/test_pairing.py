"""Box tensor products: structure guards, survival, and symmetry."""

import itertools

import pytest

from floersplice import gf2
from floersplice.boxtensor import box_tensor
from floersplice.cfk import make_complex, simplify, unknot
from floersplice.homology import graded_homology
from floersplice.typea import derive_cfa
from floersplice.typed import build_cfd, solve_gradings
from conftest import compose, gen_index


def modules(complex_, n):
    d = solve_gradings(build_cfd(simplify(complex_), n))
    return derive_cfa(d), d


FIG8 = make_complex(
    "fig8",
    ["a", "b", "c", "d", "e"],
    {"a": 1, "b": 0, "c": 0, "d": -1, "e": 0},
    [("a", "b", 0), ("c", "a", 1), ("c", "d", 0), ("d", "b", 1)],
)


def test_generators_are_idempotent_matched_pairs(trefoil):
    a, d = modules(trefoil, 2)
    box = box_tensor(a, d)
    labels, _ = assert_counted_box(a, d, box)
    assert len(labels) == 3 * 3 + 2 * 2
    assert box.dim(0) + box.dim(1) == len(labels)
    for ai, di in labels:
        assert a.source.generators[ai].idempotent == d.generators[di].idempotent
    for a_id, d_id in box.labels:
        ai, di = gen_index(a.source, a_id), gen_index(d, d_id)
        assert a.source.generators[ai].idempotent == d.generators[di].idempotent


def test_grading_is_sum(trefoil):
    a, d = modules(trefoil, 3)
    box = box_tensor(a, d)
    for idx, (a_id, d_id) in enumerate(box.labels):
        ga = a.gradings[gen_index(a.source, a_id)]
        gd = d.gradings[gen_index(d, d_id)]
        assert box.gradings[idx] == (ga + gd) % 2


def test_d_squared_and_flip_across_matrix(trefoil, mirror_trefoil, t25, figure_eight):
    knots = [(trefoil, (-2, 0, 2, 3)), (mirror_trefoil, (-3, -2, 0, 1)),
             (t25, (2, 4, 5)), (figure_eight, (-1, 0, 1))]
    for (c1, ns1), (c2, ns2) in itertools.combinations_with_replacement(knots, 2):
        for n1, n2 in itertools.product(ns1, ns2):
            a, d = modules(c1, n1)[0], modules(c2, n2)[1]
            box = box_tensor(a, d)
            assert box.d_squared_is_zero(), (c1.name, n1, c2.name, n2)
            assert box.boundary_flips_grading(), (c1.name, n1, c2.name, n2)


def test_survival_generators_isolated(trefoil):
    a, d = modules(trefoil, 2)
    box = box_tensor(a, d)
    pairs = [("x2", "x2"), ("kap1_1", "kap1_1")]
    g1, g2 = assert_isolated(a, d, box, [(gen_index(a.source, x), gen_index(d, y)) for x, y in pairs])
    assert g1 != g2


def test_durable_times_weak_products_are_isolated(figure_eight, trefoil):
    """Products of durable with weakly durable pairs have empty rows/columns."""
    from floersplice.typed import find_durable_pairs

    s1 = simplify(figure_eight)
    s2 = simplify(trefoil)
    for n1, n2 in [(-1, 2), (0, 4), (2, 5)]:
        d1 = solve_gradings(build_cfd(s1, n1))
        d2 = solve_gradings(build_cfd(s2, n2))
        a1 = derive_cfa(d1)
        box = box_tensor(a1, d2)
        p1 = [p for p in find_durable_pairs(d1, s1) if p[2] == "durable"]
        p2 = find_durable_pairs(d2, s2)
        assert p1 and p2
        x1, y1, _ = p1[0]
        x2, y2, _ = p2[0]
        pairs = [
            (li, ri)
            for left, right in [(x1, x2), (y1, y2)]
            for li in gf2.bits(left)
            for ri in gf2.bits(right)
        ]
        assert_isolated(a1, d2, box, pairs)


def test_pairing_with_unbounded_side(trefoil):
    """The 0-framed unknot complement pairs despite its directed loop."""
    a, _ = modules(trefoil, 2)
    d_unknot = solve_gradings(build_cfd(simplify(unknot()), 0))
    assert not d_unknot.bounded
    box = box_tensor(a, d_unknot)
    assert box.d_squared_is_zero()
    r = graded_homology(box)
    assert r.total == 1


def test_both_sides_unbounded_rejected():
    """Two unbounded sides are refused by derive_cfa, before it walks."""
    from floersplice.typed import DGen, TypeDModule

    d_unknot = solve_gradings(build_cfd(simplify(unknot()), 0))
    loop = TypeDModule([DGen("y", 0, "xi")], frozenset({(0, "12", 0)}))
    for m, against in ((d_unknot, loop), (loop, d_unknot)):
        with pytest.raises(ValueError, match="both framed complements are unbounded"):
            derive_cfa(m, against=against)


def test_pruned_module_pairs_only_with_its_partner(trefoil, mirror_trefoil):
    """A type A module pruned against d2 lacks operations that another module
    would pair: mirror_trefoil[-4] pruned against itself and boxed with
    mirror_trefoil[-1] would read (6, 3), where the whole module gives (5, 2).
    box_tensor refuses every partner whose generators or edges differ from
    d2's, and accepts d2 and an equal rebuild."""
    s = simplify(mirror_trefoil)
    d2 = build_cfd(s, -4)
    pruned = derive_cfa(d2, against=d2)
    assert pruned.against is d2
    with pytest.raises(ValueError, match="pruned against another type D module"):
        box_tensor(pruned, build_cfd(s, -1))
    whole = derive_cfa(d2)
    assert whole.against is None
    r = graded_homology(box_tensor(whole, build_cfd(s, -1)))
    assert (r.rank0, r.rank1) == (5, 2)
    for d in (d2, build_cfd(s, -4)):
        assert box_tensor(pruned, d) == box_tensor(whole, d)

    sides = [build_cfd(simplify(c), n) for c in (trefoil, mirror_trefoil) for n in (-2, 0, 2)]
    for d1, d2, d3 in itertools.product(sides, repeat=3):
        pruned = derive_cfa(d1, against=d2)
        if (d3.generators, d3.edges) == (d2.generators, d2.edges):
            assert box_tensor(pruned, d3) == box_tensor(derive_cfa(d1), d3)
        else:
            with pytest.raises(ValueError, match="pruned against another type D module"):
                box_tensor(pruned, d3)


def test_partner_check_lists_no_run(monkeypatch, trefoil):
    """box_tensor checks an equal but distinct partner with a run by its
    listed parts and its run, so no run is listed (listing both of trefoil[10^6]'s
    took seconds and hundreds of MB): a partner whose run or listed edges
    differ is still refused."""
    from floersplice.typed import Column, TypeDModule

    s, n = simplify(trefoil), 10**6
    d = build_cfd(s, n)
    pruned = derive_cfa(build_cfd(s, 3), against=d)
    want = box_tensor(pruned, d)
    cut = TypeDModule(d.generators.head, frozenset(d.edges.head) - {d.chain[-1]}, d.stable, d.run)
    with monkeypatch.context() as m:
        m.setattr(Column, "__iter__", lambda col: pytest.fail("a run was listed"))
        got = box_tensor(pruned, build_cfd(s, n))
        for other in (build_cfd(s, n + 1), cut):
            with pytest.raises(ValueError, match="pruned against another type D module"):
                box_tensor(pruned, other)
    assert got == want


def test_empty_against_module(trefoil):
    from floersplice.typed import TypeDModule

    a, _ = modules(trefoil, 2)
    empty = TypeDModule([], frozenset())
    box = box_tensor(a, empty)
    assert not box.labels


def independent_boundary(a, d):
    """Box differential computed from matrix products of coefficient maps.

    For each operation with word w the matching type D contribution is the
    composite D_{w_r} . ... . D_{w_1} as an actual matrix product, summing
    path cancellations implicitly, rather than a path enumeration.
    """
    from floersplice.algebra import EMPTY

    pair_index = {}
    labels = []
    for ai, ag in enumerate(a.source.generators):
        for di, dg in enumerate(d.generators):
            if ag.idempotent == dg.idempotent:
                pair_index[ai, di] = len(labels)
                labels.append((ai, di))
    mats = {}
    parity = {}

    def add(src, dst):
        key = (pair_index[src], pair_index[dst])
        parity[key] = parity.get(key, 0) ^ 1

    def matrix(label):
        if label not in mats:
            mats[label] = d.matrix(label)
        return mats[label]

    for asrc, word, adst in a.operations:
        if not word:
            for di, dg in enumerate(d.generators):
                if dg.idempotent == a.source.generators[asrc].idempotent:
                    add((asrc, di), (adst, di))
            continue
        composite = None
        for letter in word:
            composite = (
                matrix(letter)
                if composite is None
                else compose(matrix(letter), composite)
            )
        for di in range(len(d.generators)):
            if d.generators[di].idempotent != a.source.generators[asrc].idempotent:
                continue
            for ti in gf2.bits(composite[di]):
                add((asrc, di), (adst, ti))
    for dsrc, label, ddst in d.edges:
        if label == EMPTY:
            for ai, ag in enumerate(a.source.generators):
                if ag.idempotent == d.generators[dsrc].idempotent:
                    add((ai, dsrc), (ai, ddst))

    boundary = [0] * len(labels)
    for (si, ti), p in parity.items():
        if p:
            boundary[si] |= 1 << ti
    return labels, boundary


def assert_counted_box(a, d, box):
    """The counted box against the whole reference complex of the matrix route.

    Every reference pair missing from box.labels has a zero row and column
    there, the reference restricted to box.labels (in its order) is
    box.boundary, and box.dim(g) counts the reference pairs of grading g.
    Returns the reference (labels, boundary).
    """
    labels, boundary = independent_boundary(a, d)
    ids = [(a.source.generators[ai].id, d.generators[di].id) for ai, di in labels]
    kept = [ids.index(label) for label in box.labels]
    assert kept == sorted(kept), "touched pairs are listed in reference order"
    hit = 0
    for col in boundary:
        hit |= col
    for i, col in enumerate(boundary):
        if i not in kept:
            assert col == 0 and not (hit >> i) & 1, ids[i]
    position = {i: k for k, i in enumerate(kept)}
    restricted = [sum(1 << position[t] for t in gf2.bits(boundary[i])) for i in kept]
    assert restricted == box.boundary
    gradings = [(a.gradings[ai] + d.gradings[di]) % 2 for ai, di in labels]
    assert [gradings[i] for i in kept] == box.gradings
    for g in (0, 1):
        assert box.dim(g) == gradings.count(g)
    return labels, boundary


def assert_isolated(a, d, box, pairs):
    """Each (a index, d index) pair is absent from the counted box and has a
    zero row and column in the reference; returns the pairs' gradings, from
    the factor gradings."""
    labels, boundary = assert_counted_box(a, d, box)
    out = []
    for ai, di in pairs:
        assert (a.source.generators[ai].id, d.generators[di].id) not in box.labels
        i = labels.index((ai, di))
        assert boundary[i] == 0 and not any((col >> i) & 1 for col in boundary)
        out.append((a.gradings[ai] + d.gradings[di]) % 2)
    return out


def reference_ranks(a, d):
    """Graded homology ranks of the whole reference complex."""
    labels, boundary = independent_boundary(a, d)
    gradings = [(a.gradings[ai] + d.gradings[di]) % 2 for ai, di in labels]
    out = [gradings.count(0), gradings.count(1)]
    for g in (0, 1):
        r = gf2.rank([col for col, h in zip(boundary, gradings) if h == g])
        out = [n - r for n in out]
    return tuple(out)


def test_boundary_matches_matrix_product_route(trefoil, t25, figure_eight, mirror_trefoil):
    cases = [(trefoil, 2, trefoil, 2), (trefoil, 3, t25, 4),
             (figure_eight, 0, trefoil, 2), (figure_eight, 1, figure_eight, -1),
             (mirror_trefoil, -2, trefoil, 5)]
    for c1, n1, c2, n2 in cases:
        a, _ = modules(c1, n1)
        _, d = modules(c2, n2)
        box = box_tensor(a, d)
        assert box.labels, (c1.name, n1, c2.name, n2)
        assert_counted_box(a, d, box)


def test_matrix_product_route_on_unbounded_side(trefoil):
    """Against the looped module the composites vanish past the word cap,
    so the matrix route agrees even though paths are unbounded."""
    a, _ = modules(trefoil, 2)
    d = solve_gradings(build_cfd(simplify(unknot()), 0))
    assert_counted_box(a, d, box_tensor(a, d))


def test_counted_ranks_match_reference_ranks(trefoil, mirror_trefoil, t25, figure_eight,
                                             unknot_complex):
    """The counted box equals the whole reference complex (labels, boundary,
    gradings and dims) and so do its graded ranks, pairwise over the
    fixtures, from the whole type A module where there is one and from the
    pruned one; two unbounded sides are refused."""
    knots = [trefoil, mirror_trefoil, t25, figure_eight, unknot_complex]
    checked = 0
    for c1, c2 in itertools.product(knots, repeat=2):
        s1, s2 = simplify(c1), simplify(c2)
        ds2 = {n2: solve_gradings(build_cfd(s2, n2)) for n2 in range(-3, 4)}
        for n1 in range(-4, 5):
            d1 = solve_gradings(build_cfd(s1, n1))
            whole = [derive_cfa(d1)] if d1.bounded else []
            for n2, d2 in ds2.items():
                if not (d1.bounded or d2.bounded):
                    with pytest.raises(ValueError, match="both framed complements are unbounded"):
                        derive_cfa(d1, against=d2)
                    continue
                for a in whole + [derive_cfa(d1, against=d2)]:
                    box = box_tensor(a, d2)
                    r = graded_homology(box)
                    assert_counted_box(a, d2, box)
                    assert (r.rank0, r.rank1) == reference_ranks(a, d2), (c1.name, n1, c2.name, n2)
                    checked += 1
    # unknot[0..4] x unknot[0..3] are both unbounded, and unknot[0..4] has no whole module
    assert checked == (25 * 9 * 7 - 5 * 4) + (25 * 9 * 7 - 5 * 5 * 7)


def test_counted_box_on_benchmark_complexes():
    """The counted box equals the reference complex for each benchmark
    complex at framings of each sign, boxed both ways with trefoil[2],
    mirror_trefoil[-2] and figure_eight[1], from the whole type A module
    where there is one and from the pruned one."""
    from test_splice import benchmark_complexes

    complexes = benchmark_complexes()
    sides = [build_cfd(simplify(c), n) for c in complexes.values() for n in (-3, -1, 2, 4)]
    partners = [build_cfd(simplify(complexes[k]), n)
                for k, n in (("trefoil", 2), ("mirror_trefoil", -2), ("figure_eight", 1))]
    for side, partner in itertools.product(sides, partners):
        for d1, d2 in ((side, partner), (partner, side)):
            for a in ([derive_cfa(d1)] if d1.bounded else []) + [derive_cfa(d1, against=d2)]:
                assert_counted_box(a, d2, box_tensor(a, d2))


def contributions(a, d):
    """(source pair, target pair) -> count, per kind of contribution:
    (a) Reeb paths, (b) identity edges, (c) empty-word operations."""
    from collections import Counter

    from floersplice.algebra import EMPTY

    out = {"a": Counter(), "b": Counter(), "c": Counter()}
    for asrc, word, adst in a.operations:
        if word:
            for start, ends in d.composite(word).items():
                for end in gf2.bits(ends):
                    out["a"][(asrc, start), (adst, end)] += 1
        else:
            for di, dg in enumerate(d.generators):
                if dg.idempotent == a.source.generators[asrc].idempotent:
                    out["c"][(asrc, di), (adst, di)] += 1
    for dsrc, label, ddst in d.edges:
        for ai, ag in enumerate(a.source.generators):
            if label == EMPTY and ag.idempotent == d.generators[dsrc].idempotent:
                out["b"][(ai, dsrc), (ai, ddst)] += 1
    return out


def test_contributions_of_different_kinds_cancel(figure_eight, unknot_complex):
    """A Reeb path cancels an identity edge, and another one an empty-word
    operation, on the same (source, target) pair: figure_eight[1] has the
    identity edge nu2 -> nu1, and its whole type A module the operation
    m1(nu2) = nu1; unknot[1] has a directed cycle through x0.  Each
    cancelled entry is absent from the box, which equals the reference.
    An identity edge keeps the type A generator and an m1 keeps the type D
    one, so those two share a pair only through an identity self-loop,
    which no graded module has."""
    f = build_cfd(simplify(figure_eight), 1)
    u = build_cfd(simplify(unknot_complex), 1)
    cases = [
        (derive_cfa(u, against=f), f, "b", (("x0", "nu2"), ("x0", "nu1"))),
        (derive_cfa(f), u, "c", (("nu2", "x0"), ("nu1", "x0"))),
    ]
    for a, d, kind, ids in cases:
        entry = tuple((gen_index(a.source, ai), gen_index(d, di)) for ai, di in ids)
        kinds = contributions(a, d)
        assert (kinds["a"][entry], kinds[kind][entry]) == (1, 1), entry
        assert sum(kinds[k][entry] for k in "abc") == 2
        box = box_tensor(a, d)
        labels, boundary = assert_counted_box(a, d, box)
        src, dst = (labels.index(pair) for pair in entry)
        assert not (boundary[src] >> dst) & 1


def test_rank_symmetry(trefoil, mirror_trefoil, t25, figure_eight):
    pairs = [(trefoil, 2), (trefoil, 0), (mirror_trefoil, -2), (t25, 4), (figure_eight, 1)]
    for (c1, n1), (c2, n2) in itertools.product(pairs, repeat=2):
        a1, d1 = modules(c1, n1)
        a2, d2 = modules(c2, n2)
        r12 = graded_homology(box_tensor(a1, d2))
        r21 = graded_homology(box_tensor(a2, d1))
        assert {r12.rank0, r12.rank1} == {r21.rank0, r21.rank1}
