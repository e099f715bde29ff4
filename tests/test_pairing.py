"""Box tensor products: structure guards, survival, and symmetry."""

import itertools

import pytest

from floersplice import gf2
from floersplice.boxtensor import box_tensor
from floersplice.cfk import make_complex, simplify, unknot
from floersplice.homology import graded_homology
from floersplice.typea import derive_cfa
from floersplice.typed import build_cfd, solve_gradings


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
    assert len(box.labels) == 3 * 3 + 2 * 2
    for a_id, d_id in box.labels:
        ai = a.index_of(a_id)
        di = d.index_of(d_id)
        assert a.generators[ai].idempotent == d.generators[di].idempotent


def test_grading_is_sum(trefoil):
    a, d = modules(trefoil, 3)
    box = box_tensor(a, d)
    for idx, (a_id, d_id) in enumerate(box.labels):
        ga = a.generators[a.index_of(a_id)].grading
        gd = d.gradings[d.index_of(d_id)]
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
    for pair in [("x2", "x2"), ("kap1_1", "kap1_1")]:
        i = box.index_of(*pair)
        assert box.boundary[i] == 0
        assert box.row(i) == 0
    g1 = box.gradings[box.index_of("x2", "x2")]
    g2 = box.gradings[box.index_of("kap1_1", "kap1_1")]
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
        for left, right in [(x1, x2), (y1, y2)]:
            for li in gf2.bits(left):
                for ri in gf2.bits(right):
                    idx = box.index_of(d1.generators[li].id, d2.generators[ri].id)
                    assert box.boundary[idx] == 0
                    assert box.row(idx) == 0


def test_pairing_with_unbounded_side(trefoil):
    """The 0-framed unknot complement pairs despite its directed loop."""
    a, _ = modules(trefoil, 2)
    d_unknot = solve_gradings(build_cfd(simplify(unknot()), 0))
    assert not d_unknot.is_bounded()
    box = box_tensor(a, d_unknot)
    assert box.d_squared_is_zero()
    r = graded_homology(box)
    assert r.total == 1


def test_both_sides_unbounded_rejected():
    d_unknot = solve_gradings(build_cfd(simplify(unknot()), 0))
    a_unknot = derive_cfa(d_unknot, max_word_length=6)
    with pytest.raises(ValueError):
        box_tensor(a_unknot, d_unknot)


def test_empty_against_module(trefoil):
    from floersplice.typed import TypeDModule

    a, _ = modules(trefoil, 2)
    empty = TypeDModule([], frozenset(), gradings=[])
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
    for ai, ag in enumerate(a.generators):
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
                if dg.idempotent == a.generators[asrc].idempotent:
                    add((asrc, di), (adst, di))
            continue
        composite = None
        for letter in word:
            composite = (
                matrix(letter)
                if composite is None
                else gf2.compose(matrix(letter), composite)
            )
        for di in range(len(d.generators)):
            if d.generators[di].idempotent != a.generators[asrc].idempotent:
                continue
            for ti in gf2.bits(composite[di]):
                add((asrc, di), (adst, ti))
    for dsrc, label, ddst in d.edges:
        if label == EMPTY:
            for ai, ag in enumerate(a.generators):
                if ag.idempotent == d.generators[dsrc].idempotent:
                    add((ai, dsrc), (ai, ddst))

    boundary = [0] * len(labels)
    for (si, ti), p in parity.items():
        if p:
            boundary[si] |= 1 << ti
    return labels, boundary


def test_boundary_matches_matrix_product_route(trefoil, t25, figure_eight, mirror_trefoil):
    cases = [(trefoil, 2, trefoil, 2), (trefoil, 3, t25, 4),
             (figure_eight, 0, trefoil, 2), (figure_eight, 1, figure_eight, -1),
             (mirror_trefoil, -2, trefoil, 5)]
    for c1, n1, c2, n2 in cases:
        a, _ = modules(c1, n1)
        _, d = modules(c2, n2)
        box = box_tensor(a, d)
        labels, boundary = independent_boundary(a, d)
        expected = [
            (a.generators[ai].id, d.generators[di].id) for ai, di in labels
        ]
        assert expected == box.labels
        assert boundary == box.boundary, (c1.name, n1, c2.name, n2)


def test_matrix_product_route_on_unbounded_side(trefoil):
    """Against the looped module the composites vanish past the word cap,
    so the matrix route agrees even though paths are unbounded."""
    a, _ = modules(trefoil, 2)
    d = solve_gradings(build_cfd(simplify(unknot()), 0))
    box = box_tensor(a, d)
    _, boundary = independent_boundary(a, d)
    assert boundary == box.boundary


def test_rank_symmetry(trefoil, mirror_trefoil, t25, figure_eight):
    pairs = [(trefoil, 2), (trefoil, 0), (mirror_trefoil, -2), (t25, 4), (figure_eight, 1)]
    for (c1, n1), (c2, n2) in itertools.product(pairs, repeat=2):
        a1, d1 = modules(c1, n1)
        a2, d2 = modules(c2, n2)
        r12 = graded_homology(box_tensor(a1, d2))
        r21 = graded_homology(box_tensor(a2, d1))
        assert {r12.rank0, r12.rank1} == {r21.rank0, r21.rank1}
