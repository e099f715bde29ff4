"""Type D construction, structure equations, gradings, and durability."""

import dataclasses
import random
from collections import Counter
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floersplice import gf2, typed
from floersplice.algebra import (
    EMPTY,
    GRADING,
    LABELS,
    REEB_IDEMPOTENTS,
    REEB_LABELS,
    label_product,
)
from floersplice.boxtensor import box_tensor
from floersplice.cfk import simplify, staircase, unknot
from floersplice.typea import derive_cfa
from floersplice.typed import (
    DGen,
    TypeDModule,
    bk_prime,
    build_cfd,
    durability,
    find_durable_pairs,
    solve_gradings,
    to_dot,
    validate_type_d,
    walk_paths,
)
from conftest import compose, gen_index, load


def cfd(complex_, n):
    return build_cfd(simplify(complex_), n)


def edge_ids(d):
    return {
        (d.generators[s].id, lab, d.generators[t].id) for s, lab, t in d.edges
    }


class TestBuild:
    def test_trefoil_framing_two(self, trefoil):
        d = cfd(trefoil, 2)
        assert len(d.generators) == 5
        assert len(d.iota_indices(1)) == 2
        # x0 = top of the staircase, x1 its middle, x2 the bottom (eta_0)
        assert edge_ids(d) == {
            ("x1", "1", "kap1_1"),
            ("x2", "123", "kap1_1"),
            ("x1", "3", "lam1_1"),
            ("lam1_1", "2", "x0"),
            ("x0", "12", "x2"),
        }

    def test_trefoil_framing_three(self, trefoil):
        d = cfd(trefoil, 3)
        assert ("x0", "123", "mu1") in edge_ids(d)
        assert ("mu1", "2", "x2") in edge_ids(d)
        assert len(d.iota_indices(1)) == 3  # 1 + 1 + |t|

    def test_trefoil_framing_one(self, trefoil):
        d = cfd(trefoil, 1)
        assert ("x0", "1", "mu1") in edge_ids(d)
        assert ("x2", "3", "mu1") in edge_ids(d)

    def test_iota1_dimension_formula(self, trefoil, mirror_trefoil, t25, figure_eight):
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            s = simplify(c)
            total = sum(h for *_, h in s.vertical_arrows) + sum(
                l for *_, l in s.horizontal_arrows
            )
            for n in range(-4, 5):
                d = build_cfd(s, n)
                t = n - 2 * s.tau
                expected = total + abs(t)
                if not s.lspace_form and t == 0:
                    expected += 2  # the canceling pair sits in iota_1
                assert len(d.iota_indices(1)) == expected, (c.name, n)

    def test_figure_eight_modified_chain(self, figure_eight):
        d = cfd(figure_eight, 0)
        ids = edge_ids(d)
        assert ("x0", "1", "nu1") in ids
        assert ("nu2", "", "nu1") in ids
        assert ("nu2", "2", "x0") in ids  # xi_0 = eta_0 = e

    def test_figure_eight_positive_framing_modified(self, figure_eight):
        d = cfd(figure_eight, 2)
        ids = edge_ids(d)
        assert ("x0", "12", "nu1") in ids
        assert ("nu2", "", "nu1") in ids
        assert ("nu2", "3", "mu1") in ids
        assert ("mu1", "23", "mu2") in ids
        assert ("mu2", "2", "x0") in ids

    def test_figure_eight_negative_framing_unmodified(self, figure_eight):
        d = cfd(figure_eight, -1)
        ids = edge_ids(d)
        assert ("x0", "1", "mu1") in ids
        assert ("x0", "3", "mu1") in ids
        assert not any(g.role == "nu" for g in d.generators)


class TestModule:
    def test_frozen(self, trefoil):
        d = cfd(trefoil, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.edges = frozenset()

    def test_matrices_match_edges(self, request):
        for name in ("trefoil", "mirror_trefoil", "t25", "figure_eight", "unknot_complex"):
            c = request.getfixturevalue(name)
            s = simplify(c)
            for n in range(-3, 4):
                d = solve_gradings(build_cfd(s, n))
                for label in LABELS:
                    cols = [0] * len(d.generators)
                    for src, lab, dst in d.edges:
                        if lab == label:
                            cols[src] ^= 1 << dst
                    assert d.matrix(label) == cols, (c.name, n, label)

    def test_matrix_is_a_copy(self, trefoil):
        """Mutating the list matrix(label) returns changes neither the module
        nor its stable part, whose single-label maps the module may share."""
        d = build_cfd(simplify(trefoil), 3)

        def maps():
            return [(m.matrix(label), dict(m.composites[label,])) for m in (d, d.stable) for label in LABELS]

        before = maps()
        for m in (d, d.stable):
            for label in LABELS:
                cols = m.matrix(label)
                cols[:] = [~0] * len(cols)
                cols.append(1)
        assert maps() == before


def no_walk_of_n_edges(n, edges):
    """Brute-force acyclicity: a graph on n vertices has a directed cycle iff
    it has a walk of n edges.  After k rounds, starts holds the vertices
    where a walk of k edges begins."""
    starts = set(range(n))
    for _ in range(n):
        starts = {src for src, lab, dst in edges if dst in starts}
    return not starts


# small labeled graphs: self-loops, and parallel edges whose labels differ
labeled_graphs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.frozensets(
            st.tuples(st.integers(0, n - 1), st.sampled_from(LABELS), st.integers(0, n - 1)),
            max_size=14,
        ),
    )
)


@given(labeled_graphs)
@example((1, frozenset({(0, EMPTY, 0)})))
@example((2, frozenset({(0, "1", 1), (0, "123", 1), (1, EMPTY, 1)})))
@example((3, frozenset({(0, "123", 1), (1, EMPTY, 2), (2, "23", 0)})))
def test_acyclic_matches_brute_force(graph):
    """bounded (all labels) and the identity-only check of validate_type_d
    agree with the walk reference."""
    n, edges = graph
    m = TypeDModule([DGen(f"g{i}", 0, "xi") for i in range(n)], edges)
    assert m.bounded == no_walk_of_n_edges(n, edges)
    identity = {e for e in edges if e[1] == EMPTY}
    assert typed._acyclic(m.adj, labels=(EMPTY,)) == no_walk_of_n_edges(n, identity)


class TestValidation:
    def test_structure_everywhere(self, trefoil, mirror_trefoil, t25, figure_eight):
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            for n in range(-4, 5):
                d = cfd(c, n)
                report = validate_type_d(d)
                assert report.ok, (c.name, n, report.problems)
                assert d.bounded, (c.name, n)

    def test_unknot_zero_framing_unbounded(self):
        d = cfd(unknot(), 0)
        report = validate_type_d(d)
        assert report.ok
        assert not d.bounded  # D_12 self edge on the single generator

    def test_idempotent_violation_detected(self, trefoil):
        from dataclasses import replace

        d = cfd(trefoil, 2)
        bad = replace(d, edges=d.edges | {(0, "2", 1)})  # iota_0 source for D_2
        report = validate_type_d(bad)
        assert not report.checks["idempotents"]

    def test_uncancelled_product_path_refused(self):
        """x -D1-> y -D2-> z is a nonzero term of output label 12.  The equation
        is quadratic (the algebra has no differential), so a D_12 edge x -> z
        does not cancel it; a second path x -D1-> w -D2-> z does."""
        gens = [DGen("x", 0, "xi"), DGen("y", 1, "kappa"), DGen("z", 0, "xi"),
                DGen("w", 1, "kappa")]
        chain = frozenset({(0, "1", 1), (1, "2", 2)})
        for edges in (chain, chain | {(0, "12", 2)}):
            report = validate_type_d(TypeDModule(gens, edges))
            assert report.problems == ["structure equation fails at output label 12"]
            assert not report.checks["structure_equation"]
        assert validate_type_d(TypeDModule(gens, chain | {(0, "1", 3), (3, "2", 2)})).ok

    def test_chained_identity_edges_refused(self):
        gens = [DGen(f"g{i}", 0, "xi") for i in range(3)]
        report = validate_type_d(TypeDModule(gens, frozenset({(0, EMPTY, 1), (1, EMPTY, 2)})))
        assert report.problems == ["structure equation fails at output label empty"]


def _structure_failures(report):
    """The output labels of a report's structure-equation problems, in order."""
    prefix = "structure equation fails at output label "
    return [
        EMPTY if (label := p[len(prefix):]) == "empty" else label
        for p in report.problems
        if p.startswith(prefix)
    ]


@given(labeled_graphs)
@example((3, frozenset({(0, "1", 1), (1, "2", 2)})))
@example((3, frozenset({(0, "1", 1), (1, "2", 2), (0, "12", 2)})))
@example((2, frozenset({(0, EMPTY, 1), (1, "23", 1), (1, EMPTY, 0)})))
def test_structure_equation_matches_dense_reference(graph):
    """validate_type_d, summed over pairs of edges, fails exactly the output
    labels whose sum of D_K.D_J over the factorizations (J, K) is nonzero."""
    n, edges = graph
    d = TypeDModule([DGen(f"g{i}", 0, "xi") for i in range(n)], edges)
    expected = []
    for label in LABELS:
        total = [0] * n
        for j, k in product(LABELS, repeat=2):
            if label_product(j, k) == label:
                total = [a ^ b for a, b in zip(total, compose(d.matrix(k), d.matrix(j)))]
        if any(total):
            expected.append(label)
    assert _structure_failures(validate_type_d(d)) == expected


class TestGradings:
    def test_every_edge_constraint(self, trefoil, mirror_trefoil, t25, figure_eight):
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            for n in range(-4, 5):
                d = solve_gradings(cfd(c, n))
                for src, label, dst in d.edges:
                    assert d.gradings[dst] == (d.gradings[src] + 1 + GRADING[label]) % 2

    def test_iota1_all_zero_at_large_framing(self, trefoil, t25):
        """Chain interiors all grade 0 when the framing chain is directed."""
        for c in (trefoil, t25):
            s = simplify(c)
            for n in (2 * s.tau, 2 * s.tau + 3):
                d = solve_gradings(build_cfd(s, n))
                for i in d.iota_indices(1):
                    assert d.gradings[i] == 0
                # chain starts grade 1, chain ends grade 0
                for src, lab, dst in d.edges:
                    if lab == "1":
                        assert d.gradings[src] == 1
                    if lab == "2":
                        assert d.gradings[dst] == 0

    def test_d123_preserves_grading(self, trefoil):
        d = solve_gradings(cfd(trefoil, 4))
        for src, lab, dst in d.edges:
            if lab == "123":
                assert d.gradings[src] == d.gradings[dst]

    def test_grading_returns_the_same_module(self, trefoil):
        """The gradings are the module's own: solving them returns the module
        itself, and an unsolved module reads the same list on first use."""
        d = cfd(trefoil, 2)
        assert solve_gradings(d) is d
        assert cfd(trefoil, 2).gradings == d.gradings

    def test_single_generator_anchor(self):
        d = solve_gradings(cfd(unknot(), 0))
        assert d.gradings == [0]

    def test_inconsistent_cycle_reported(self):
        from floersplice.typed import DGen, TypeDModule

        # D_1 flips the grading while D_123 preserves it; both edges between
        # the same pair of generators cannot be graded consistently.
        m = TypeDModule(
            [DGen("a", 0, "xi"), DGen("b", 1, "mu")],
            frozenset({(0, "1", 1), (0, "123", 1)}),
        )
        with pytest.raises(ValueError, match="inconsistent grading cycle") as first:
            solve_gradings(m)
        # a failed solve is not kept: the next read refuses again, in the same words
        with pytest.raises(ValueError) as again:
            m.gradings
        assert str(again.value) == str(first.value)


class TestBkPrime:
    def test_figure_eight_minus_one(self, figure_eight):
        s = simplify(figure_eight)
        basis = bk_prime(s, -1)
        assert len(basis) == 1
        assert basis[0] == 1 << 4  # xi_4 = d

    def test_figure_eight_zero(self, figure_eight):
        s = simplify(figure_eight)
        assert bk_prime(s, 0) == []

    def test_trefoil_all_trivial(self, trefoil):
        s = simplify(trefoil)
        for k in range(-2, 3):
            assert bk_prime(s, k) == []

    def test_nontrivial_for_non_lspace_form(self, figure_eight):
        s = simplify(figure_eight)
        assert any(bk_prime(s, k) for k in range(-s.genus, s.genus + 1))

    def test_equals_whole_space_reference(self, trefoil, mirror_trefoil, t25, figure_eight,
                                          unknot_complex):
        """At every level, bk_prime spans what the whole-space formula spans:
        B_k intersected with span(even xi) and then with span(odd eta).  The
        durable candidates are then the ones the reference bases give, as no
        level here has more than SPAN_CAP vectors."""
        from conftest import load
        from test_cfk import BARCODE_BASES, filtered_change
        from test_connected_sum import tensor_product
        from test_splice import benchmark_complexes

        def span_basis(vs):
            return [res for res in gf2.echelon(vs)[1] if res]

        def intersect(u, w):
            u, w = span_basis(u), span_basis(w)
            n, mask = len(u) + len(w), (1 << len(u)) - 1
            kernel = [res for res in gf2.echelon([v << n | 1 << i for i, v in enumerate(u + w)], n)[1]
                      if not res >> n]
            return span_basis([gf2.apply_columns(u, combo & mask) for combo in kernel])

        def reference(s, k):
            bk = [1 << p for p, a in enumerate(s.xi_alex) if a == k]
            bk += [s.b_matrix[p] for p, a in enumerate(s.eta_alex) if a == k]
            even_xi = [1 << p for p in range(2, len(s.xi), 2)]
            odd_eta = [s.b_matrix[p] for p in range(1, len(s.eta), 2)]
            return intersect(intersect(bk, even_xi), odd_eta)

        t, f = BARCODE_BASES["trefoil"](), BARCODE_BASES["fig8"]()
        complexes = [trefoil, mirror_trefoil, t25, figure_eight, unknot_complex, load("t25_represented")]
        complexes += benchmark_complexes().values()
        complexes += [staircase([1] * (2 * g), sign) for g in (1, 2, 3, 5, 8, 16, 64) for sign in "+-"]
        complexes += [tensor_product(tensor_product(t, t, "tt"), t, "ttt"), tensor_product(f, f, "ff"),
                      tensor_product(tensor_product(f, t, "ft"), t, "ftt"),
                      tensor_product(tensor_product(f, f, "ff"), t, "fft")]
        rng = random.Random(0)
        for _ in range(300):
            moves = [(rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 1)) for _ in range(rng.randint(0, 5))]
            complexes.append(filtered_change(BARCODE_BASES[rng.choice(sorted(BARCODE_BASES))](), moves))
        nonzero = 0
        for c in complexes:
            s = simplify(c)
            candidates = set()
            for k in sorted(set(s.xi_alex) | set(s.eta_alex)):
                got, want = bk_prime(s, k), reference(s, k)
                assert gf2.rank(got) == len(got) == len(want) == gf2.rank(got + want), (c.name, k)
                assert len(want) <= typed.SPAN_CAP
                candidates |= {gf2.apply_columns(want, mask) for mask in range(1, 1 << len(want))}
                nonzero += bool(want)
            candidates |= {1 << p for p in range(len(s.xi))} | set(s.b_matrix)
            assert set(typed.durable_candidates(s)) == candidates, c.name
        assert nonzero > 50  # the comparison is not vacuous

    def test_basis_does_not_depend_on_row_order(self):
        """Swapping two odd eta rows of one level of t#t#t or f#f keeps every
        bk_prime list: each basis is reduced, so it depends on B'_k alone."""
        from test_cfk import BARCODE_BASES
        from test_connected_sum import tensor_product

        t, f = BARCODE_BASES["trefoil"](), BARCODE_BASES["fig8"]()
        swaps = 0
        for c in (tensor_product(tensor_product(t, t, "tt"), t, "ttt"), tensor_product(f, f, "ff")):
            s = simplify(c)
            levels = range(-s.genus, s.genus + 1)
            want = [bk_prime(s, k) for k in levels]
            odd = range(1, len(s.eta), 2)
            for p, q in product(odd, odd):
                if p < q and s.eta_alex[p] == s.eta_alex[q]:
                    rows = list(s.b_matrix)
                    rows[p], rows[q] = rows[q], rows[p]
                    swapped = dataclasses.replace(s, b_matrix=rows)
                    assert [bk_prime(swapped, k) for k in levels] == want, (c.name, p, q)
                    swaps += 1
        assert swaps == 33

    def test_bk_prime_composition_constraint(self, figure_eight):
        """Nonzero D_I . D_2 . D_3 on a B'_k vector forces I = 123."""
        s = simplify(figure_eight)
        for n in range(-2, 3):
            d = build_cfd(s, n)
            mats = {lab: d.matrix(lab) for lab in ("1", "2", "3", "12", "23", "123", "")}
            for k in range(-s.genus, s.genus + 1):
                for v in bk_prime(s, k):
                    w = gf2.apply_columns(mats["2"], gf2.apply_columns(mats["3"], v))
                    for lab, m in mats.items():
                        if gf2.apply_columns(m, w):
                            assert lab == "123"


class TestDurability:
    def test_figure_eight_d_is_durable(self, figure_eight):
        s = simplify(figure_eight)
        for n in range(-3, 4):
            d = build_cfd(s, n)
            v = 1 << gen_index(d, "x4")
            res = durability(d, v)
            assert res["durable"] and res["weakly_durable"]
            y = gf2.apply_columns(d.matrix("123"), v)
            assert y
            assert durability(d, y)["durable"]

    def test_trefoil_below_two_tau(self, trefoil):
        d = build_cfd(simplify(trefoil), 1)
        v = 1 << gen_index(d, "x2")  # eta_0 end of the staircase
        assert durability(d, v)["durable"]
        y = gf2.apply_columns(d.matrix("123"), v)
        assert durability(d, y)["durable"]

    def test_trefoil_at_two_tau_only_weak(self, trefoil):
        d = build_cfd(simplify(trefoil), 2)
        v = 1 << gen_index(d, "x2")
        res = durability(d, v)
        assert not res["durable"]
        assert res["weakly_durable"]

    def test_zero_vector_rejected(self, trefoil):
        d = build_cfd(simplify(trefoil), 2)
        with pytest.raises(ValueError):
            durability(d, 0)

    def test_vector_outside_the_generators_rejected(self, trefoil):
        """A bit at or past len(generators), or a negative vector, is refused
        before any bit is walked."""
        d = build_cfd(simplify(trefoil), 3)
        for v in (1 << len(d.generators), 1 << len(d.generators) | 1, -1, -4):
            with pytest.raises(ValueError, match="outside the module's generators"):
                durability(d, v)

    def test_mixed_idempotents_rejected(self, trefoil):
        d = build_cfd(simplify(trefoil), 2)
        v = (1 << gen_index(d, "x0")) | (1 << gen_index(d, "kap1_1"))
        with pytest.raises(ValueError):
            durability(d, v)


def _hits_reference(v, cols):
    """Incoming rule: a nonzero row of a single generator, image membership otherwise."""
    if gf2.bits(v) == [v.bit_length() - 1]:
        return any((col >> v.bit_length() - 1) & 1 for col in cols)
    return gf2.in_span(cols, v)


def _words(m):
    """Columns of D_w for every label word w of length 1..3, w[0] applied first."""
    out = {}
    for length in (1, 2, 3):
        for w in product(LABELS, repeat=length):
            inner = out[w[:-1]] if length > 1 else [1 << i for i in range(len(m.generators))]
            out[w] = compose(m.matrix(w[-1]), inner)
    return out


def _durability_reference(m, words, v):
    """Every durable condition evaluated on every word, with no short-circuit."""
    image = {w: gf2.apply_columns(cols, v) for w, cols in words.items()}
    hit = {w: _hits_reference(v, words[w]) for w in words if len(w) <= 2}
    if m.generators[gf2.bits(v)[0]].idempotent == 0:
        chains = [
            w in {("3",), ("123",)} if len(w) == 1
            else w in {("123", "23"), ("3", "23"), ("3", "2")} if len(w) == 2
            else w[1] != "2" or w[2] == "123"
            for w in words if image[w]
        ]
        durable = not any([hit[(lab,)] for lab in LABELS]) and all(chains)
        weak_words = [("1",), ("12",), ("123", "2"), ("3", "2", "1"), ("3", "2", "12")]
        weakly = not any([image[w] for w in weak_words])
    else:
        outgoing = [image[(lab,)] == 0 for lab in LABELS if lab != "23"]
        incoming = [lab in ("1", "123") for lab in LABELS if hit[(lab,)]]
        deep = [not hit[w] for w in words if len(w) == 2]
        durable = all(outgoing) and all(incoming) and all(deep)
        weakly = image[("2",)] == 0 and not hit[("3",)] and not _hits_reference(v, words["3", "2", "1"])
    return {"durable": durable, "weakly_durable": weakly or durable}


def test_durability_matches_reference(trefoil, figure_eight, mirror_trefoil):
    """durability agrees with the brute-force reference on every nonzero
    single-idempotent vector of small modules."""
    checked = 0
    for c in (trefoil, figure_eight, mirror_trefoil):
        s = simplify(c)
        for n in range(-3, 4):
            d = build_cfd(s, n)
            words = _words(d)
            for idem in (0, 1):
                idx = d.iota_indices(idem)
                for mask in range(1, 1 << len(idx)):
                    v = sum(1 << idx[i] for i in gf2.bits(mask))
                    assert durability(d, v) == _durability_reference(d, words, v), (
                        c.name, n, d.format_vector(v))
                    checked += 1
    assert checked == 1614


def _path_counts(d, longest):
    """Reeb word of up to `longest` letters -> start -> ends of its paths,
    counted mod 2 by walking every path; zero columns are dropped."""
    counts: dict[tuple[str, ...], dict[int, int]] = {}
    paths = walk_paths(
        d.adj, lambda w, label: w + (label,) if label != EMPTY and len(w) < longest else None,
        [(s, (), d.adj[s]) for s in range(len(d.generators))],
    )
    for start, end, w in paths:
        cols = counts.setdefault(w, {})
        cols[start] = cols.get(start, 0) ^ (1 << end)
    return {w: {i: ends for i, ends in cols.items() if ends} for w, cols in counts.items()}


def test_composite_counts_paths(trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
    """composite(word) is the mod-2 count of the paths that spell the word,
    for every Reeb word of up to four letters.  Longest words come first, so
    maps are built through several labels and stop at a vanishing prefix."""
    words = [w for length in (4, 3, 2, 1) for w in product(REEB_LABELS, repeat=length)]
    vanished_prefix = unbounded = 0
    for c in (trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
        s = simplify(c)
        for n in range(-5, 6):
            d = build_cfd(s, n)
            unbounded += not d.bounded
            counts = _path_counts(d, 4)
            for w in words:
                assert d.composite(w) == counts.get(w, {}), (c.name, n, w)
                vanished_prefix += len(w) > 1 and not d.composite(w[:-1])
            assert () not in d.composites
    assert unbounded == 6 and vanished_prefix > 0  # unknot at n = 0..5


def test_composite_cache_in_any_order(trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
    """Asked in seeded shuffles, each word twice, composite(word) is still the
    path count.  The map of every word asked, vanishing or not, is cached at
    its first ask and returned as the same object at its second, although a
    cached vanishing word may lack prefixes below it.  The shuffles ask
    extensions before their prefixes and vanishing words both before and
    after longer ones."""
    words = [w for length in (1, 2, 3, 4) for w in product(REEB_LABELS, repeat=length)]
    seen: Counter = Counter()
    for c in (trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
        s = simplify(c)
        for n in range(-5, 6):
            counts = _path_counts(build_cfd(s, n), 4)
            for seed in range(2):
                d = build_cfd(s, n)
                order = words * 2
                random.Random(seed).shuffle(order)
                first: dict[tuple[str, ...], dict[int, int]] = {}
                below: set[tuple[str, ...]] = set()  # proper prefixes of the words asked
                for w in order:
                    comp = d.composite(w)
                    assert comp == counts.get(w, {}), (c.name, n, seed, w)
                    if w in first:
                        assert comp is first[w], (c.name, n, seed, w)
                        continue
                    assert d.composites[w] is comp
                    first[w] = comp
                    seen["extension first"] += any(w[:k] not in first for k in range(1, len(w)))
                    if not comp:
                        seen["vanishing after longer"] += w in below
                        seen["vanishing before longer"] += w not in below and len(w) < 4
                    below.update(w[:k] for k in range(1, len(w)))
                assert () not in d.composites
    kinds = ("extension first", "vanishing after longer", "vanishing before longer")
    assert all(seen[k] for k in kinds), seen


def _count_sparse_applies(monkeypatch):
    """Patch gf2.apply_sparse to record the (map, vector) of every call."""
    calls = []
    real = gf2.apply_sparse
    monkeypatch.setattr(gf2, "apply_sparse", lambda cols, v: calls.append((cols, v)) or real(cols, v))
    return calls


def test_composite_extends_its_cached_parent(monkeypatch, trefoil, mirror_trefoil, figure_eight, t25,
                                             unknot_complex):
    """With every word of up to three letters cached, the map of a four-letter
    word applies its last label's map once per nonzero column of its parent's
    map, and caches that word alone: no shorter prefix is rebuilt.  A parent
    that is a word of D_23's alone on a module with a run (a _Shift) applies
    it to its listed columns only: its run columns move in closed form."""
    calls = _count_sparse_applies(monkeypatch)
    short = [w for length in (1, 2, 3) for w in product(REEB_LABELS, repeat=length)]
    extended = 0
    for c in (trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
        s = simplify(c)
        for n in range(-5, 6):
            d = build_cfd(s, n)
            for w in short:
                d.composite(w)
            for w in product(REEB_LABELS, repeat=3):
                parent = d.composites[w]
                for x in REEB_LABELS:
                    cached = len(d.composites)
                    calls.clear()
                    d.composite(w + (x,))
                    assert len(d.composites) == cached + 1 and w + (x,) in d.composites, (c.name, n, w, x)
                    assert all(cols is d.composites[x,] for cols, _ in calls), (c.name, n, w, x)
                    listed = parent.kept if isinstance(parent, typed._Shift) else parent
                    assert sorted(v for _, v in calls) == sorted(listed.values()), (c.name, n, w, x)
                    extended += bool(parent)
    assert extended > 0


def test_extending_a_vanishing_word_applies_nothing(monkeypatch, trefoil, mirror_trefoil, figure_eight,
                                                    t25, unknot_complex):
    """A four-letter word whose map vanishes at its two-letter prefix is
    cached with that prefix but without its three-letter one; an extension
    of it reads the cached empty map and applies no label."""
    calls = _count_sparse_applies(monkeypatch)
    seen = 0
    for c in (trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
        s = simplify(c)
        for n in range(-5, 6):
            probe = build_cfd(s, n)
            pairs = [(a, b) for a in REEB_LABELS for b in REEB_LABELS
                     if probe.composite((a,)) and not probe.composite((a, b))]
            for a, b in pairs[:3]:
                d = build_cfd(s, n)
                w = (a, b, "3", "2")
                assert d.composite(w) == {}
                assert (a, b) in d.composites and w[:3] not in d.composites, (c.name, n, w)
                calls.clear()
                for x in REEB_LABELS:
                    assert d.composite(w + (x,)) == {}, (c.name, n, w, x)
                assert calls == [], (c.name, n, w)
                seen += 1
    assert seen > 0


def test_tallies_recount_generators(trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
    """The (idempotent, grading) tallies of a type D module and of its whole
    type A module equal a recount over generators, and are counted once.
    The type A side flips the grading of iota_0 generators only.  An
    unbounded module has no whole type A module; it is derived against a
    bounded partner, which keeps every generator."""
    partner = build_cfd(simplify(trefoil), 3)
    for c in (trefoil, mirror_trefoil, figure_eight, t25, unknot_complex):
        s = simplify(c)
        for n in range(-5, 6):
            d = build_cfd(s, n)
            a = derive_cfa(d) if d.bounded else derive_cfa(d, against=partner)
            want_d: dict[tuple[int, int], int] = {}
            want_a: dict[tuple[int, int], int] = {}
            for i, g in enumerate(d.generators):
                key = (g.idempotent, d.gradings[i])
                want_d[key] = want_d.get(key, 0) + 1
            for g, gr in zip(a.source.generators, a.gradings):
                want_a[g.idempotent, gr] = want_a.get((g.idempotent, gr), 0) + 1
            assert d.tally == want_d and a.tally == want_a, (c.name, n)
            for gr in (0, 1):
                assert a.tally[0, gr] == d.tally[0, 1 - gr] and a.tally[1, gr] == d.tally[1, gr]
            assert d.tally is d.tally and a.tally is a.tally


def test_no_identity_composite_is_stored(trefoil, figure_eight):
    """The empty word's map is the identity: the box tensor, the pruned walk
    and the durable check read it without a stored composite."""
    for c, n in ((trefoil, 2), (figure_eight, 0)):
        s = simplify(c)
        d = solve_gradings(build_cfd(s, n))
        a = derive_cfa(d, against=d)  # figure_eight[0] has an empty-word operation
        box_tensor(a, d)
        find_durable_pairs(d, s)
        assert d.composites and () not in d.composites
        with pytest.raises(ValueError, match="identity"):
            d.composite(())


def _hand_built():
    """Modules reaching conditions the knot modules leave untested: a chain
    x0 -D3-> k -D2-> x1 -D_L-> x2 for every label L, and D3 onto k1 + k2,
    where the row of k1 is nonzero but k1 is not in the image."""
    for label in LABELS:
        last = REEB_IDEMPOTENTS[label][1] if label else 0
        gens = [DGen("x0", 0, "xi"), DGen("k", 1, "kappa"), DGen("x1", 0, "xi"), DGen("x2", last, "xi")]
        yield TypeDModule(gens, frozenset({(0, "3", 1), (1, "2", 2), (2, label, 3)}))
    gens = [DGen("x0", 0, "xi"), DGen("k1", 1, "kappa"), DGen("k2", 1, "kappa")]
    yield TypeDModule(gens, frozenset({(0, "3", 1), (0, "3", 2)}))


def test_iota_1_identity_edge_is_not_durable():
    """An iota_1 vector whose only edge is an outgoing identity map is weakly
    durable but not durable; without the edge it is durable."""
    gens = [DGen("k1", 1, "kappa"), DGen("k2", 1, "kappa")]
    assert durability(TypeDModule(gens, frozenset({(0, "", 1)})), 0b01) == {
        "durable": False, "weakly_durable": True}
    assert durability(TypeDModule(gens, frozenset()), 0b01) == {
        "durable": True, "weakly_durable": True}


def test_durability_matches_reference_on_hand_built_modules():
    verdicts = set()
    for d in _hand_built():
        words = _words(d)
        for v in range(1, 1 << len(d.generators)):
            if len({d.generators[i].idempotent for i in gf2.bits(v)}) == 1:
                expected = _durability_reference(d, words, v)
                assert durability(d, v) == expected, (sorted(d.edges), d.format_vector(v))
                verdicts.add(tuple(expected.values()))
    assert len(verdicts) == 3  # durable, weakly durable only, neither


def test_row_reading_matches_the_composite_map():
    """_hits of a single generator, read backwards along the in-edges, equals
    some column of the composite map having that bit, for every generator and
    every word of _CONDITIONS, on the benchmark modules at framings -20..20."""
    from test_splice import benchmark_complexes

    words = {w for conditions in typed._CONDITIONS.values() for part in conditions
             for group in part for w in group}
    hits = 0
    for c in benchmark_complexes().values():
        s = simplify(c)
        for n in range(-20, 21):
            m = build_cfd(s, n)
            for w in words:
                cols = m.composite(w).values()
                for v in range(len(m.generators)):
                    hit = typed._hits(1 << v, m, w)
                    assert hit == any(col >> v & 1 for col in cols), (c.name, n, w, v)
                    hits += hit
    assert len(words) == 34 and hits == 18675


class TestFindDurablePairs:
    @pytest.mark.parametrize("size", [typed.SPAN_CAP, typed.SPAN_CAP + 1])
    def test_span_cap(self, monkeypatch, size):
        """Up to SPAN_CAP vectors a B'_k basis gives its whole span as
        candidates; past it, only the basis vectors themselves."""
        gens = [DGen(f"x{i}", 0, "xi") for i in range(size)]
        gens += [DGen(f"k{i}", 1, "kappa") for i in range(size)]
        m = TypeDModule(gens, frozenset((i, "123", size + i) for i in range(size)))
        s = SimpleNamespace(xi=["x0"], b_matrix=[])
        basis = [0b11 << i for i in range(size - 1)] + [1 << (size - 1)]
        received = []

        def record(m_, v):
            received.append(v)
            return {"durable": False, "weakly_durable": True}

        monkeypatch.setattr(typed, "_bk_primes", lambda s_: {0: basis})
        monkeypatch.setattr(typed, "durability", record)
        pairs = typed.find_durable_pairs(m, s)
        xs, ys = received[0::2], received[1::2]
        assert ys == [x << size for x in xs]
        assert pairs == [(x, x << size, "weak") for x in sorted(xs)]
        if size > typed.SPAN_CAP:
            assert xs == basis + [1]  # the xi basis vector x0 follows
        else:
            assert sorted(xs) == list(range(1, 1 << size))

    def test_y_is_judged_only_after_a_weakly_durable_x(self, monkeypatch, trefoil):
        s = simplify(trefoil)
        m = solve_gradings(build_cfd(s, 2))
        candidates = typed.durable_candidates(s)
        received = []

        def record(m_, v):
            received.append(v)
            return {"durable": False, "weakly_durable": False}

        monkeypatch.setattr(typed, "durability", record)
        assert typed.find_durable_pairs(m, s) == []
        assert received == [x for x in candidates if gf2.apply_columns(m.matrix("123"), x)]

    def test_figure_eight_always_durable(self, figure_eight):
        s = simplify(figure_eight)
        for n in range(-3, 4):
            d = build_cfd(s, n)
            pairs = find_durable_pairs(d, s)
            assert any(st == "durable" for _, _, st in pairs), n

    def test_trefoil_above_two_tau_weak_only(self, trefoil):
        s = simplify(trefoil)
        d = build_cfd(s, 5)
        pairs = find_durable_pairs(d, s)
        assert pairs
        assert all(st == "weak" for _, _, st in pairs)

    def test_trefoil_below_two_tau_durable(self, trefoil):
        s = simplify(trefoil)
        for n in (0, 1):
            pairs = find_durable_pairs(build_cfd(s, n), s)
            assert any(st == "durable" for _, _, st in pairs)

    def test_mirror_trefoil_weak_pair_every_framing(self, mirror_trefoil):
        s = simplify(mirror_trefoil)
        for n in range(-4, 5):
            assert find_durable_pairs(build_cfd(s, n), s)

    def test_staircases_weak_pair_every_framing(self, trefoil, t25):
        for c in (trefoil, t25):
            s = simplify(c)
            for n in range(-3, 7):
                assert find_durable_pairs(build_cfd(s, n), s), (c.name, n)


def test_dot_export(trefoil):
    d = solve_gradings(cfd(trefoil, 2))
    dot = to_dot(d)
    assert dot.startswith("digraph")
    assert '"x0" -> "x2" [label="D12"]' in dot
    assert 'role="kappa"' in dot
    assert "grading=" in dot
    # an unsolved module solves its gradings for the export: every node carries one
    nodes = [line for line in to_dot(cfd(trefoil, 0)).splitlines() if "idempotent=" in line]
    assert nodes and all("grading=" in line for line in nodes)


# ---------------------------------------------------------------------------
# The stable part: built once per complex, extended by each framing's chain
# ---------------------------------------------------------------------------

def _observed(d):
    """What a module built over a stable part must share with the same
    generators and edges built whole: structure, maps, boundedness, gradings
    (or the refusal's text) and the validation report.  A module with a run
    reads its run without listing it, so each read is listed here."""
    try:
        gradings = list(d.gradings)
    except ValueError as e:
        gradings = str(e)
    report = validate_type_d(d)
    singles = {word: dict(comp.items()) for word, comp in d.composites.items() if len(word) == 1}
    mats = {label: d.matrix(label) for label in LABELS}
    adj = [d.adj[i] for i in range(len(d.generators))]
    return (list(d.generators), frozenset(d.edges), adj, mats, singles, d.bounded, gradings,
            report.checks, report.problems)


def _whole(d):
    """The whole-module reference: d's generators and edges, all listed, over
    no stable part and with no run."""
    return TypeDModule(list(d.generators), frozenset(d.edges))


def test_framed_build_matches_whole_module(trefoil, mirror_trefoil, t25, figure_eight,
                                           unknot_complex):
    """Every framing -40..40 of the fixtures and the benchmark complexes:
    build_cfd over the kept stable part equals the whole-module build."""
    from test_splice import benchmark_complexes

    complexes = [trefoil, mirror_trefoil, t25, figure_eight, unknot_complex]
    complexes += benchmark_complexes().values()
    nu_pairs = set()
    for c in complexes:
        s = simplify(c)
        for n in range(-40, 41):
            d = build_cfd(s, n)
            assert d.stable is build_cfd(s, 0).stable
            whole = _whole(d)
            assert _observed(d) == _observed(whole), (c.name, n)
            assert d.gradings == whole.gradings, (c.name, n)
            t = n - 2 * s.tau
            if c.name == "unknot" and t >= 0:
                assert not d.bounded  # the chain closes a cycle through x0
            if t >= 0 and not s.lspace_form:
                assert {"nu1", "nu2"} <= {g.id for g in d.generators}
                nu_pairs.add(c.name)
    assert nu_pairs == {"figure_eight", "fig8#trefoil", "trefoil#trefoil"}


def test_built_modules_extend_their_stable_gradings(monkeypatch, trefoil, mirror_trefoil, t25,
                                                   figure_eight, unknot_complex):
    """Every framing -40..40 of the six fixtures and the benchmark complexes
    grades by extending its stable part's gradings through the chain edges:
    no built chain joins or regrades a stable component, so no framed
    module is solved whole."""
    from test_splice import benchmark_complexes

    solves = []

    def counted(m, known, edges):
        if m.stable is not None:
            solves.append(edges is m.chain)
        return solve(m, known, edges)

    solve = typed._solve_gradings
    monkeypatch.setattr(typed, "_solve_gradings", counted)
    complexes = {c.name: c for c in (trefoil, mirror_trefoil, t25, load("t25_represented"), figure_eight,
                                      unknot_complex)}
    for name, c in benchmark_complexes().items():
        complexes.setdefault(name, c)
    for c in complexes.values():
        s = simplify(c)
        for n in range(-40, 41):
            build_cfd(s, n).gradings
    assert len(solves) == 972 and all(solves)


def test_chain_joins_and_regrades_stable_components():
    """x0 and x1 are two components of the stable part; the chain generator
    k joins them, and grading it from x0 regrades x1: the chain edge from x1
    disagrees with x1's stable grading, so the module is solved whole."""
    gens = [DGen("x0", 0, "xi"), DGen("x1", 0, "xi"), DGen("k", 1, "kappa")]
    stable = TypeDModule(gens[:2], frozenset())
    d = TypeDModule(gens, frozenset({(0, "1", 2), (1, "123", 2)}), stable)
    assert stable.gradings == [0, 0]
    with pytest.raises(ValueError, match="inconsistent grading cycle"):
        typed._solve_gradings(d, stable.gradings, d.chain)
    assert d.gradings == _whole(d).gradings == [0, 1, 1]


def test_stable_part_is_built_once_and_shared():
    """Framings 5, -5, 0, 40, 5 of one complex share one stable part, which
    no framing changes; both framing-5 modules are equal."""
    from test_splice import benchmark_complexes

    for c in benchmark_complexes().values():
        s = simplify(c)
        stable = build_cfd(s, 5).stable

        def snapshot():
            return (list(stable.generators), stable.edges, {k: list(v) for k, v in stable.adj.items()},
                    {label: stable.matrix(label) for label in LABELS},
                    {w: dict(comp) for w, comp in stable.composites.items()},
                    stable.bounded, stable.gradings, stable._checks,
                    {k: list(v) for k, v in stable.ins.items()})

        before = snapshot()
        mods = [solve_gradings(build_cfd(s, n)) for n in (5, -5, 0, 40, 5)]
        for d in mods:
            assert d.stable is stable
            validate_type_d(d)
            find_durable_pairs(d, s)  # reads longer composite maps of the framed module
        assert mods[0] == mods[4] and _observed(mods[0]) == _observed(mods[4]), c.name
        assert snapshot() == before, c.name


split_graphs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.frozensets(
            st.tuples(st.integers(0, n - 1), st.sampled_from(LABELS), st.integers(0, n - 1)),
            max_size=14,
        ),
        st.integers(0, n),
    )
)


@given(split_graphs)
@example(([0, 1, 0], frozenset({(0, "1", 1), (1, "2", 2), (2, "12", 0)}), 1))
# an identity-only cycle across the stable/chain boundary
@example(([0, 0, 0], frozenset({(0, EMPTY, 1), (1, EMPTY, 2), (2, EMPTY, 0)}), 1))
@example(([0, 1], frozenset({(0, "1", 1), (1, "2", 0)}), 1))  # Reeb-only cycle: unbounded, no identity cycle
@example(([0, 1], frozenset({(0, "1", 1), (0, "123", 1)}), 1))
@example(([0, 0, 1], frozenset({(0, "2", 1), (2, "3", 0), (1, EMPTY, 2)}), 2))
@example(([0, 0, 0], frozenset({(0, "12", 1), (1, "12", 0), (2, "12", 2)}), 2))
@example(([0, 0, 0], frozenset({(1, "1", 0), (1, "2", 2), (2, "123", 0)}), 2))  # names g1 -D2->
def test_any_stable_part_gives_the_whole_module(graph):
    """A module over a stable part (its first k generators and the edges
    among them) equals the whole module: idempotent violations stay in edge
    order, cycles through or beyond the stable part are found, and an
    inconsistent grading cycle is refused in the whole solve's words.  The
    identity-only cycle check, searched only in a module with a cycle,
    agrees with the walk reference."""
    idempotents, edges, k = graph
    gens = [DGen(f"g{i}", idem, "xi") for i, idem in enumerate(idempotents)]
    stable = TypeDModule(gens[:k], frozenset(e for e in edges if e[0] < k and e[2] < k))
    d = TypeDModule(gens, edges, stable)
    assert _observed(d) == _observed(_whole(d))
    identity = {e for e in edges if e[1] == EMPTY}
    assert validate_type_d(d).checks["empty_cycle_free"] == no_walk_of_n_edges(len(gens), identity)


def test_module_must_extend_its_stable_part():
    """A module over a stable part begins with the stable part's generators
    and holds its edges; otherwise it is refused, as the values it starts
    from would not be its own."""
    gens = [DGen("a", 0, "xi"), DGen("b", 1, "kappa"), DGen("c", 1, "kappa")]
    stable = TypeDModule(gens[:2], frozenset({(0, "1", 1)}))
    d = TypeDModule(gens, frozenset({(0, "1", 1), (0, "123", 2)}), stable)
    assert d.chain == [(0, "123", 2)] and _observed(d) == _observed(_whole(d))
    with pytest.raises(ValueError, match="stable part"):  # misses the stable edge (0, 1, 1)
        TypeDModule(gens, frozenset({(0, "123", 2)}), stable)
    with pytest.raises(ValueError, match="stable part"):  # z in place of a
        TypeDModule([DGen("z", 0, "xi"), *gens[1:]], frozenset({(0, "1", 1), (0, "123", 2)}), stable)


def _reference_cfd(s, n):
    """(generators, edges) of the n-framed module built whole by the
    closure-and-parity reference: closures add generators and edges one at a
    time, and a parity dict keeps the edges added an odd number of times."""
    gens = [DGen(f"x{p}", 0, "xi") for p in range(len(s.xi))]
    parity = {}

    def add_gen(gid, role, idem=1):
        gens.append(DGen(gid, idem, role))
        return len(gens) - 1

    def add_edge(src, label, dst):
        parity[src, label, dst] = parity.get((src, label, dst), 0) ^ 1

    def eta_targets(p):
        return gf2.bits(s.b_matrix[p])

    def eta_sources(p):
        return [q for q in range(len(s.a_matrix)) if (s.a_matrix[q] >> p) & 1]

    for j, (src_idx, dst_idx, h) in enumerate(s.vertical_arrows, start=1):
        chain = [add_gen(f"kap{j}_{i}", "kappa") for i in range(1, h + 1)]
        add_edge(src_idx, "1", chain[0])
        for i in range(h - 1):
            add_edge(chain[i + 1], "23", chain[i])
        add_edge(dst_idx, "123", chain[-1])
    for j, (src_idx, dst_idx, l) in enumerate(s.horizontal_arrows, start=1):
        chain = [add_gen(f"lam{j}_{i}", "lambda") for i in range(1, l + 1)]
        for q in eta_sources(src_idx):
            add_edge(q, "3", chain[0])
        for i in range(l - 1):
            add_edge(chain[i], "23", chain[i + 1])
        for q in eta_targets(dst_idx):
            add_edge(chain[-1], "2", q)

    t = n - 2 * s.tau
    if s.lspace_form or t < 0:
        if t == 0:
            for q in eta_targets(0):
                add_edge(0, "12", q)
        elif t > 0:
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, t + 1)]
            add_edge(0, "123", mus[0])
            for i in range(t - 1):
                add_edge(mus[i], "23", mus[i + 1])
            for q in eta_targets(0):
                add_edge(mus[-1], "2", q)
        else:
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, -t + 1)]
            add_edge(0, "1", mus[0])
            for i in range(-t - 1):
                add_edge(mus[i + 1], "23", mus[i])
            for q in eta_sources(0):
                add_edge(q, "3", mus[-1])
    else:
        nu_idem = 1 if t == 0 else 0
        nu1 = add_gen("nu1", "nu", nu_idem)
        nu2 = add_gen("nu2", "nu", nu_idem)
        add_edge(nu2, EMPTY, nu1)
        if t == 0:
            add_edge(0, "1", nu1)
            for q in eta_targets(0):
                add_edge(nu2, "2", q)
        else:
            add_edge(0, "12", nu1)
            mus = [add_gen(f"mu{i}", "mu") for i in range(1, t + 1)]
            add_edge(nu2, "3", mus[0])
            for i in range(t - 1):
                add_edge(mus[i], "23", mus[i + 1])
            for q in eta_targets(0):
                add_edge(mus[-1], "2", q)
    return gens, frozenset(k for k, p in parity.items() if p)


def test_list_built_chain_matches_the_parity_reference(trefoil, mirror_trefoil, t25, figure_eight,
                                                       unknot_complex):
    """For the fixtures and the benchmark complexes at framings -120..120,
    build_cfd gives the generators and edges of the parity reference, and
    neither the stable part nor the unstable chain it lists repeats an edge.
    It lists its generators and the chain's edges up to its run, if any."""
    from test_splice import benchmark_complexes

    complexes = [trefoil, mirror_trefoil, t25, figure_eight, unknot_complex]
    complexes += benchmark_complexes().values()
    runs = 0
    for c in complexes:
        s = simplify(c)
        gens, edges = typed._stable_part(s)
        assert len(set(edges)) == len(edges), c.name
        for n in range(-120, 121):
            d = build_cfd(s, n)
            gens, chain, run = typed._unstable_chain(s, n, d.stable.generators)
            assert len(set(chain)) == len(chain) and gens == list(d.generators)[:len(gens)], (c.name, n)
            assert (len(gens) + abs(run), run) == (len(d.generators), d.run), (c.name, n)
            assert (list(d.generators), frozenset(d.edges)) == _reference_cfd(s, n), (c.name, n)
            runs += run != 0
    assert runs > 0


# ---------------------------------------------------------------------------
# The run: a framed module reads its mu chain in closed form
# ---------------------------------------------------------------------------

def _listed_module(s, n, stable):
    """The n-framed module over stable's generators and edges, built whole as
    TypeDModule(generators, edges) with its whole unstable chain listed: the
    reference for every read of a module with a run."""
    nb, t = len(stable.generators), n - 2 * s.tau
    nus = [] if s.lspace_form or t < 0 else [DGen(f"nu{i}", int(t == 0), "nu") for i in (1, 2)]
    gens = [*stable.generators, *nus, *[DGen(f"mu{i}", 1, "mu") for i in range(1, abs(t) + 1)]]
    first, last = nb + len(nus), len(gens) - 1  # the mu chain, if any, runs first..last
    ends = gf2.bits(s.b_matrix[0])
    if t < 0:  # entered from both ends, D_23 maps pointing back to the D_1 end
        chain = [(0, "1", first), *[(i + 1, "23", i) for i in range(first, last)],
                 *[(q, "3", last) for q, row in enumerate(s.a_matrix) if row & 1]]
    elif not nus and t == 0:
        chain = [(0, "12", q) for q in ends]
    else:
        pair = [(nb + 1, EMPTY, nb), (0, "12" if t else "1", nb)]
        enter = ([*pair, (nb + 1, "3", first)] if t else pair) if nus else [(0, "123", first)]
        chain = [*enter, *[(i, "23", i + 1) for i in range(first, last)], *[(last, "2", q) for q in ends]]
    return TypeDModule(gens, stable.edges | frozenset(chain))


def _reads(d, text=True):
    """Every framing-wide read of a module: its generators, gradings (or the
    refusal's text), tally and sorted edges, its validation report,
    boundedness and identity-cycle search; and its cfd text and DOT, which
    are rendered from the first four."""
    from floersplice.cli import _cfd_lines

    try:
        graded = list(d.gradings), d.tally
        rendered = ("".join(_cfd_lines(d)), to_dot(d)) if text else ()
    except ValueError as e:
        graded = rendered = str(e)
    report = validate_type_d(d)
    return (list(d.generators), graded, sorted(d.edges), report.checks, report.problems, d.bounded,
            d.identity_acyclic, rendered)


def _gate_complexes():
    """The six fixtures and the ten benchmark complexes, once each by name."""
    from test_splice import benchmark_complexes

    complexes = {c.name: c for c in map(load, ("trefoil", "mirror_trefoil", "figure_eight", "t25",
                                                 "t25_represented", "unknot"))}
    for name, c in benchmark_complexes().items():
        complexes.setdefault(name, c)
    assert len(complexes) == 12
    return complexes.values()


def test_framed_module_reads_as_its_listed_chain(request):
    """At every framing in -300..300 of the six fixtures and the ten benchmark
    complexes, the module build_cfd gives reads as its chain listed whole:
    the same generators, gradings, tally, sorted edges, validation report,
    bounded and identity_acyclic, which the cfd text and DOT are rendered
    from.  At -40..40 and +-300 the rendered text and DOT are compared too,
    and so is the map of every word of up to three Reeb labels.  Framings
    with |t| >= RUN_MIN hold a run."""
    words = [w for k in (1, 2, 3) for w in product(REEB_LABELS, repeat=k)]
    runs = 0
    for c in _gate_complexes():
        s = simplify(c)
        for n in range(-300, 301):
            d = build_cfd(s, n)
            ref = _listed_module(s, n, d.stable)
            near = abs(n) <= 40 or abs(n) == 300
            assert _reads(d, near) == _reads(ref, near), (c.name, n)
            if near:
                for w in words:
                    assert dict(d.composite(w).items()) == ref.composite(w), (c.name, n, w)
            runs += d.run != 0
    assert runs > 12 * 500


def _faulty(s, fault):
    """Fresh bases of s's complex whose kept stable part holds the edges of
    fault too, so every framing is built over a faulty stable part."""
    gens, edges = typed._stable_part(s)
    bases = simplify(s.complex)
    vars(bases)["_stable_cfd"] = TypeDModule(gens, frozenset(edges) | fault)
    return bases


def test_planted_faults_read_as_in_the_listed_chain(request):
    """A stable part with a planted fault (an edge breaking idempotents, an
    identity edge into x0 that composes with the chain's edges out of it,
    or an identity cycle) is reported, graded and searched for cycles the
    same over a run as with the chain listed whole, at framings -30..30 and
    +-300 of every gate complex.  Where the fault closes an inconsistent
    grading cycle through the chain, both refuse; the edge the refusal
    names may differ with a run, whose D_23 edges are solved as one node."""
    faults = {"idempotents": frozenset({(0, "2", 1)}), "into x0": frozenset({(1, EMPTY, 0)}),
              "identity cycle": frozenset({(1, EMPTY, 2), (2, EMPTY, 1)})}
    failed = Counter()
    for c in _gate_complexes():
        for name, fault in faults.items():
            if max(max(src, dst) for src, _, dst in fault) >= len(simplify(c).xi):
                continue  # the unknot's stable part is x0 alone
            s = _faulty(simplify(c), fault)
            for n in [*range(-30, 31), -300, 300]:
                d = build_cfd(s, n)
                ref = _listed_module(s, n, d.stable)
                got, want = _reads(d), _reads(ref)
                failed[name] += not all(got[3].values())
                if d.run and isinstance(want[1], str):
                    assert got[1].startswith("inconsistent grading cycle through edge"), (c.name, name, n)
                    got, want = got[:1] + got[2:-1], want[:1] + want[2:-1]
                assert got == want, (c.name, name, n)
    assert all(failed[name] for name in faults), failed


run_graphs = st.tuples(
    st.lists(st.integers(0, 1), min_size=0, max_size=4),  # the listed generators' idempotents
    st.integers(1, 6).flatmap(lambda size: st.tuples(st.just(size), st.sampled_from((1, -1)))),
    st.lists(st.tuples(st.integers(0, 5), st.sampled_from([lab for lab in LABELS if lab != "23"]),
                       st.integers(0, 5)), max_size=8),
    st.integers(0, 4),
)


@given(run_graphs)
@example(([0, 1], (3, 1), [(0, "123", 2), (4, "2", 0)], 1))  # entered at its start, left at its far end
@example(([0], (4, -1), [(0, "1", 1), (0, "3", 4), (4, "", 0)], 1))  # entered at both ends, an identity exit
@example(([0, 0], (2, 1), [(2, "2", 1), (1, "", 0), (0, "123", 2)], 2))  # a cycle through the run
@example(([1], (1, 1), [(1, "", 1), (0, "", 1)], 1))  # an identity loop on a run of one
def test_any_run_reads_as_its_listing(graph):
    """A module with a run over any stable part and listed edges that meet
    the run at its ends (each end drawn from 4 or 5, and not by D_23) reads
    as the same generators and edges listed whole: structure, maps, every
    word of up to three labels, gradings or a refusal, validation, the
    identity-cycle search, the tally and the row reading of _hits.  A run's
    D_23 edges are solved as one node, so a refusal may name another edge of
    the inconsistent cycle."""
    idems, (size, step), drawn, k = graph
    listed = [DGen(f"g{i}", idem, "xi") for i, idem in enumerate(idems)]
    k, first = min(k, len(listed)), len(listed)
    ends = (first, first + size - 1)
    where = {**{i: i for i in range(first)}, 4: ends[0], 5: ends[1]}
    edges = frozenset((where[a], lab, where[b]) for a, lab, b in drawn if a in where and b in where)
    stable = TypeDModule(listed[:k], frozenset(e for e in edges if e[0] < k and e[2] < k))
    d = TypeDModule(listed, edges, stable, size * step)
    mus = [DGen(f"mu{j}", 1, "mu") for j in range(1, size + 1)]
    inner = {(i, "23", i + 1) if step > 0 else (i + 1, "23", i) for i in range(first, first + size - 1)}
    whole = TypeDModule(listed + mus, edges | inner)
    got, want = _observed(d), _observed(whole)
    refused = isinstance(want[6], str)
    if refused:  # the refusal may name another edge of an inconsistent cycle
        assert got[6].startswith("inconsistent grading cycle through edge")
        got, want = got[:6] + got[7:], want[:6] + want[7:]
    assert got == want
    assert d.identity_acyclic == whole.identity_acyclic
    for w in (w for n in (1, 2, 3) for w in product(LABELS, repeat=n)):
        assert dict(d.composite(w).items()) == whole.composite(w), w
    if not refused:
        assert d.tally == whole.tally
    for v in range(len(whole.generators)):
        for w in (("23",), ("2", "23"), ("23", "23", "1"), ("3",)):
            assert typed._hits(1 << v, d, w) == typed._hits(1 << v, whole, w), (v, w)


# ---------------------------------------------------------------------------
# The durable shortcut's facts, kept per complex and chain class
# ---------------------------------------------------------------------------

def _check_kept_facts(c, ts):
    """At each t of ts, the shortcut's two facts that c's n-framed side reads,
    with each long class kept from +-10^6 first, equal a cold scan of that
    side's own module; for |t| >= RUN_MIN the whole pair list equals its list
    at RUN_MIN of t's sign.  Returns how many facts the bases keep."""
    from floersplice.splice import FramedSide, prepare

    s = prepare(c)
    two_tau = 2 * s.tau
    for sign in (1, -1):  # the long classes are read first at another framing
        side = FramedSide(c, two_tau + sign * 10**6)
        assert side.has_pair >= side.has_durable_pair
    at_min = {sign: find_durable_pairs(build_cfd(s, two_tau + sign * typed.RUN_MIN), s) for sign in (1, -1)}
    for t in ts:
        side = FramedSide(c, two_tau + t)
        pairs = list(typed.iter_durable_pairs(side.d, typed.durable_candidates(s)))
        want = any(p[2] == "durable" for p in pairs), bool(pairs)
        assert (side.has_durable_pair, side.has_pair) == want, (c.name, t)
        if abs(t) >= typed.RUN_MIN:
            assert find_durable_pairs(side.d, s) == at_min[1 if t > 0 else -1], (c.name, t)
    return len(vars(s)["_durable_facts"])


def test_kept_durable_facts_equal_a_cold_scan():
    """The six fixtures and the ten benchmark complexes at every t in
    -300..300 and at +-10^6: each bases keeps at most two facts per chain
    class, and each fact equals a cold scan of the framing's own module."""
    for c in _gate_complexes():
        kept = _check_kept_facts(c, [*range(-300, 301), -10**6, 10**6])
        assert kept <= 2 * (2 * typed.RUN_MIN + 1), c.name


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3).map(lambda half: half + half[::-1]),
    st.sampled_from("+-"),
    st.sampled_from(["staircase", "re-presented", "sum"]),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1)), max_size=4),
)
def test_kept_durable_facts_on_generated_complexes(steps, sign, kind, moves):
    """The same comparison over generated complexes at framings in +-20 and
    +-10^6 around 2 tau: palindromic staircases of either sign, filtered
    changes of their basis, and their connected sums with the figure eight."""
    from test_cfk import BARCODE_BASES, filtered_change
    from test_connected_sum import tensor_product

    c = staircase(steps, sign)
    if kind == "re-presented":
        c = filtered_change(c, moves)
    elif kind == "sum":
        c = tensor_product(c, BARCODE_BASES["fig8"](), "sum")
    _check_kept_facts(c, [*range(-20, 21), -10**6, 10**6])
