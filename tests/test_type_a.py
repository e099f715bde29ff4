"""Derived type A modules: operations, gradings, the frozen trefoil snapshot."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from floersplice import gf2, typea
from floersplice.algebra import EMPTY, swap_and_merge
from floersplice.cfk import simplify, unknot
from floersplice.typea import derive_cfa, ops_text, validate_cfa
from floersplice.typed import DGen, TypeDModule, build_cfd, durability, solve_gradings, walk_paths
from conftest import gen_index
from test_type_d import _whole, split_graphs


def cfa(complex_, n, **kw):
    return derive_cfa(solve_gradings(build_cfd(simplify(complex_), n)), **kw)


def hand_built():
    """Small bounded modules, by name, that the knot modules do not reach."""
    return {
        # a -D3-> b -D23-> c -D2-> e and b -D2-> f: Reeb paths of at most 3 edges
        "chain": TypeDModule(
            [DGen("a", 0, "xi"), DGen("b", 1, "lambda"), DGen("c", 1, "lambda"),
             DGen("e", 0, "xi"), DGen("f", 0, "xi")],
            frozenset({(0, "3", 1), (1, "23", 2), (2, "2", 3), (1, "2", 4)}),
        ),
        # a -D1-> p and a -D1-> q
        "fork": TypeDModule(
            [DGen("a", 0, "xi"), DGen("p", 1, "mu"), DGen("q", 1, "mu")],
            frozenset({(0, "1", 1), (0, "1", 2)}),
        ),
        # the fork closed by p -D23-> z and q -D23-> z: two paths a -> z of one word
        "diamond": TypeDModule(
            [DGen("a", 0, "xi"), DGen("p", 1, "mu"), DGen("q", 1, "mu"), DGen("z", 1, "mu")],
            frozenset({(0, "1", 1), (0, "1", 2), (1, "23", 3), (2, "23", 3)}),
        ),
        "single": TypeDModule([DGen("a", 0, "xi")], frozenset()),
    }


def ops_by_ids(a):
    return {
        (a.source.generators[s].id, w, a.source.generators[t].id) for s, w, t in a.operations
    }


class TestDerive:
    def test_generator_bijection(self, trefoil, figure_eight):
        for c in (trefoil, figure_eight):
            d = solve_gradings(build_cfd(simplify(c), 1))
            a = derive_cfa(d)
            assert [g.id for g in a.source.generators] == [g.id for g in d.generators]
            assert [g.idempotent for g in a.source.generators] == [
                g.idempotent for g in d.generators
            ]

    def test_iota0_grading_flip(self, request):
        """The type A module keeps its source's generators and idempotents,
        and the gradings the box reads flip those of iota_0 generators only:
        every fixture at -20..20, whole (when bounded) and pruned against
        trefoil[3]."""
        partner = build_cfd(simplify(request.getfixturevalue("trefoil")), 3)
        for name in ("trefoil", "mirror_trefoil", "t25", "figure_eight", "unknot_complex"):
            s = simplify(request.getfixturevalue(name))
            for n in range(-20, 21):
                d = build_cfd(s, n)
                flipped = [(gr + (g.idempotent == 0)) % 2 for g, gr in zip(d.generators, d.gradings)]
                derived = [derive_cfa(d)] if d.bounded else []
                for a in [*derived, derive_cfa(d, against=partner)]:
                    assert [(g.id, g.idempotent) for g in a.source.generators] == [
                        (g.id, g.idempotent) for g in d.generators], (name, n)
                    assert a.gradings == flipped, (name, n)
                    assert a.source.idempotents == [g.idempotent for g in d.generators], (name, n)

    def test_trefoil_framing_two_snapshot(self, trefoil):
        """Frozen enumeration for the 2-framed trefoil complement.

        In this module's labeling x0 is the top of the staircase, x1 the
        middle, and x2 the bottom; kap1_1 and lam1_1 are the two chain
        generators.  Single edges contribute the two-generator operations,
        and the five edges admit exactly six longer directed paths.
        """
        a = cfa(trefoil, 2)
        assert ops_by_ids(a) == {
            ("x1", ("3",), "kap1_1"),
            ("x1", ("1",), "lam1_1"),
            ("x1", ("12",), "x0"),
            ("x1", ("123", "2"), "x2"),
            ("x1", ("123", "23", "2", "1"), "kap1_1"),
            ("lam1_1", ("2",), "x0"),
            ("lam1_1", ("23", "2"), "x2"),
            ("lam1_1", ("23", "23", "2", "1"), "kap1_1"),
            ("x0", ("3", "2"), "x2"),
            ("x0", ("3", "23", "2", "1"), "kap1_1"),
            ("x2", ("3", "2", "1"), "kap1_1"),
        }
        assert a.max_word_length == 4

    def test_single_edge_operations(self, trefoil):
        """Each coefficient map contributes its boundary-swapped operation."""
        a = cfa(trefoil, 3)
        ops = ops_by_ids(a)
        assert ("x1", ("3",), "kap1_1") in ops     # D_1 edge
        assert ("x1", ("1",), "lam1_1") in ops     # D_3 edge
        assert ("lam1_1", ("2",), "x0") in ops     # D_2 edge
        assert ("x2", ("3", "2", "1"), "kap1_1") in ops  # D_123 edge

    def test_empty_word_from_identity_edge(self, figure_eight):
        a = cfa(figure_eight, 0)
        ops = ops_by_ids(a)
        assert ("nu2", (), "nu1") in ops

    def test_identity_edges_match_differentials_exactly(self, figure_eight):
        """Every identity-labeled edge yields exactly one empty-word op."""
        for n in range(-2, 4):
            d = solve_gradings(build_cfd(simplify(figure_eight), n))
            a = derive_cfa(d)
            m1_ops = {(s, t) for s, w, t in a.operations if w == ()}
            empty_edges = {(s, t) for s, lab, t in d.edges if lab == ""}
            assert m1_ops == empty_edges

    def test_unbounded_needs_bounded_partner(self, monkeypatch):
        """An unbounded module is walked only against a bounded partner, whose
        composite maps end every path; any other request is refused before
        a single edge is walked."""
        from floersplice import typea

        d = build_cfd(simplify(unknot()), 0)  # x0 with a D_12 self edge
        loop = TypeDModule([DGen("y", 0, "xi")], frozenset({(0, "12", 0)}))
        chain = hand_built()["chain"]
        assert not d.bounded and not loop.bounded and chain.bounded

        real_step = typea.swap_and_merge
        monkeypatch.setattr(typea, "swap_and_merge", lambda *a: pytest.fail("walked an edge"))
        with pytest.raises(ValueError, match="only a bounded partner ends its walk"):
            derive_cfa(d)
        for m, against in ((d, loop), (loop, d), (loop, loop)):
            with pytest.raises(ValueError, match="both framed complements are unbounded"):
                derive_cfa(m, against=against)

        monkeypatch.setattr(typea, "swap_and_merge", real_step)
        a = derive_cfa(d, against=chain)
        assert a.against is chain
        # the D_12 self edge, and its circuit twice round, whose words merge;
        # three times round needs a D3 D23 D23 path, which chain lacks
        assert ops_by_ids(a) == {("x0", ("3", "2"), "x0"), ("x0", ("3", "23", "2"), "x0")}

    def test_identity_cycle_refused_before_walking(self, trefoil, monkeypatch):
        """An unbounded module whose identity-labeled maps close a cycle is
        refused even against a bounded partner: an identity step adds no
        letter, so no map of the partner would ever cut the cycle."""
        from floersplice import typea

        cycle = TypeDModule(
            [DGen("y", 0, "xi"), DGen("z", 0, "xi")],
            frozenset({(0, EMPTY, 1), (1, EMPTY, 0)}),
        )
        partner = build_cfd(simplify(trefoil), 3)
        assert not cycle.bounded and partner.bounded
        monkeypatch.setattr(typea, "swap_and_merge", lambda *a: pytest.fail("walked an edge"))
        with pytest.raises(ValueError, match="identity-labeled maps close a cycle"):
            derive_cfa(cycle, against=partner)

    def test_f2_cancellation(self):
        """Two distinct paths with the same source, word, and target cancel."""
        modules = hand_built()
        # both edges give (a, ("3",), .) ops to different targets: no overlap
        a = derive_cfa(modules["fork"])
        assert len(a.operations) == 2

        a2 = derive_cfa(modules["diamond"])
        words = {(s, w, t) for s, w, t in a2.operations}
        # the two length-two paths a -> z carry equal words and cancel
        assert not any(t == 3 and s == 0 for s, w, t in words)


FIXTURES = ("trefoil", "mirror_trefoil", "t25", "figure_eight", "unknot_complex")


def _paired_ops(whole, against):
    """The whole module's operations whose word has a nonzero map in against;
    the empty word's map is the identity, nonzero iff against has generators."""
    return frozenset(
        op for op in whole.operations
        if (against.composite(op[1]) if op[1] else against.generators)
    )


def _merged_once(d):
    """The operations of d by the definition, without a memo: every path's
    raw labels, merged once, counted mod 2."""
    parity = {}
    roots = [(s, (), d.adj[s]) for s in range(len(d.generators))]
    for start, end, labels in walk_paths(d.adj, lambda labels, label: labels + (label,), roots):
        key = (start, swap_and_merge(labels), end)
        parity[key] = parity.get(key, 0) ^ 1
    return frozenset(op for op, p in parity.items() if p)


def _tuple_walk(d, against=None):
    """The operations of d by the walk with the trie's cut rule, whose state
    is the merged word itself, a tuple merged afresh at every step, and with
    no stable part: a path is cut once its word minus the last letter has no
    map in against, and an operation is kept when its word's map is nonzero
    (always without against; the empty word's map is the identity).  Pass
    an against that no derive_cfa call has put maps in, such as a copy built
    whole (_whole), so the reference reads none of the walk's maps."""
    def pairs(word):
        return against is None or bool(against.composite(word) if word else against.generators)

    def step(word, label):
        merged = swap_and_merge((label,), word)
        return merged if pairs(merged[:-1]) else None

    parity = {}
    roots = [(s, (), d.adj[s]) for s in range(len(d.generators))]
    for start, end, word in walk_paths(d.adj, step, roots):
        if pairs(word):
            parity[start, word, end] = parity.get((start, word, end), 0) ^ 1
    return frozenset(op for op, p in parity.items() if p)


def test_a_long_run_walks_as_the_tuple_walk(mirror_trefoil, figure_eight, t25, unknot_complex):
    """unknot[0] and a one-generator D_12 loop, unbounded, against modules
    with long runs and back: the trie walk, whose words grow with the run,
    derives the tuple walk's operations.  The framings are every 13th up to
    |n| = 300, both ends, and all of |n| <= 12, where chains are listed or
    just long enough to be runs; the tuple walk costs the square of the run."""
    unbounded = [build_cfd(simplify(unknot_complex), 0), TypeDModule([DGen("y", 0, "xi")], frozenset({(0, "12", 0)}))]
    for c in (mirror_trefoil, figure_eight, t25):
        s = simplify(c)
        for n in sorted({*range(-300, 301, 13), 300, *range(-12, 13)}):
            d = build_cfd(s, n)
            assert d.bounded, (c.name, n)
            for u in unbounded:
                for m, against in ((u, d), (d, u)):
                    assert derive_cfa(m, against=against).operations == _tuple_walk(m, _whole(against)), (c.name, n)


def test_a_pruned_pairing_reads_every_map_from_the_walk(request, trefoil, monkeypatch):
    """The pruned walk puts the map of every word it keeps in its partner's
    composites, so box_tensor asks the partner for no composite: the fixtures
    at -7..9 against trefoil[3], in both orders."""
    from floersplice.boxtensor import box_tensor

    def refuse(self, word):
        raise AssertionError(f"box_tensor computed the composite of {word}")

    for name in FIXTURES:
        s = simplify(request.getfixturevalue(name))
        for n in range(-7, 10):
            side = build_cfd(s, n)
            for m, against in ((side, build_cfd(simplify(trefoil), 3)), (build_cfd(simplify(trefoil), 3), side)):
                a = derive_cfa(m, against=against)
                with monkeypatch.context() as patch:
                    patch.setattr(TypeDModule, "composite", refuse)
                    box_tensor(a, against)


def test_a_deep_run_walks_in_little_memory(mirror_trefoil, unknot_complex):
    """unknot[0] spliced with mirror_trefoil[-4000] walks words of up to
    4,001 letters, and keeps none of them but the short kept ones: the
    tracemalloc peak of the splice stays at or below 16 MiB (it took about
    126 MiB when each step merged and hashed its whole word).  Both
    complexes are prepared before the peak is taken."""
    import tracemalloc

    from floersplice.splice import prepare, splice_report

    prepare(unknot_complex), prepare(mirror_trefoil)
    tracemalloc.start()
    try:
        report = splice_report(unknot_complex, 0, mirror_trefoil, -4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.computed.rank0, report.computed.rank1) == (0, 1) and report.agree
    assert peak <= 16 * 2**20, peak


def test_whole_walk_matches_merging_each_path_once(request):
    """The memoised walk merges one letter at a time and remembers each step;
    its whole module equals merging every path's labels afresh."""
    modules = [
        build_cfd(simplify(request.getfixturevalue(name)), n)
        for name in FIXTURES
        for n in range(-6, 7)
    ]
    modules += hand_built().values()
    checked = 0
    for d in modules:
        if d.bounded:
            assert derive_cfa(d).operations == _merged_once(d), [g.id for g in d.generators]
            checked += 1
    assert checked == 62


def test_pruned_walk_keeps_exactly_the_paired_operations(request):
    """The memoised pruned walk derives the operations of the whole module
    that its partner pairs, no more and no fewer."""
    modules = [
        build_cfd(simplify(request.getfixturevalue(name)), n)
        for name in FIXTURES
        for n in range(-6, 7)
    ]
    for d1 in modules:
        if not d1.bounded:
            continue
        whole = derive_cfa(d1)
        for d2 in modules:
            assert derive_cfa(d1, against=d2).operations == _paired_ops(whole, d2)


def test_pruned_walk_keeps_nothing_between_calls(t25, trefoil, unknot_complex):
    """One module pruned against two partners in turn: the second call owes
    nothing to the first."""
    d1 = build_cfd(simplify(t25), 6)
    whole = derive_cfa(d1)
    first, second = build_cfd(simplify(trefoil), 2), build_cfd(simplify(unknot_complex), 0)
    assert _paired_ops(whole, first) != _paired_ops(whole, second)
    for partner in (first, second, first):
        assert derive_cfa(d1, against=partner).operations == _paired_ops(whole, partner)


# ---------------------------------------------------------------------------
# The stable part's walk: kept once per stable part, extended by each chain
# ---------------------------------------------------------------------------

def _derived(d, against=None):
    """What derive_cfa gives: the generators, gradings and operations, or the refusal's text."""
    try:
        a = derive_cfa(d, against=against)
    except ValueError as e:
        return str(e)
    return a.source.generators, a.gradings, a.operations


def _partners(request):
    """trefoil[3], mirror_trefoil[-3], unknot[0], unknot[1] and figure_eight[1]."""
    named = (("trefoil", 3), ("mirror_trefoil", -3), ("unknot_complex", 0),
             ("unknot_complex", 1), ("figure_eight", 1))
    return [build_cfd(simplify(request.getfixturevalue(name)), n) for name, n in named]


def test_framed_walk_matches_whole_module(request):
    """Every framing -40..40 of the fixtures and the benchmark complexes, and
    the hand-built modules: derive_cfa over the kept stable walk, whole and
    pruned against five partners, equals the same call on the module built
    whole, refusals too, and its operations are the walk on word tuples."""
    from test_splice import benchmark_complexes

    complexes = [request.getfixturevalue(name) for name in FIXTURES]
    complexes += benchmark_complexes().values()
    partners = _partners(request)
    modules = [(c.name, n, build_cfd(s, n)) for c in complexes for s in [simplify(c)] for n in range(-40, 41)]
    modules += [(name, None, d) for name, d in hand_built().items()]
    references = [_whole(p) for p in partners]  # partners no derive_cfa call writes maps into
    refused = 0
    for name, n, d in modules:
        whole = _whole(d)
        for against, reference in zip((None, *partners), (None, *references)):
            got = _derived(d, against)
            assert got == _derived(whole, against), (name, n)
            if isinstance(got, str):
                refused += 1
            else:
                assert got[2] == _tuple_walk(d, reference), (name, n)
    # the two unknots at framings 0..40, unbounded: alone and against unknot[0] and unknot[1]
    assert refused == 2 * 41 * 3


def test_stable_walk_is_kept_once_and_never_changed(request, monkeypatch):
    """Framings 5, -5, 0, 40, 5 of one complex, whole and pruned, share one
    kept walk of the stable part, derived once and unchanged by every call;
    both framing-5 modules derive the same operations."""
    from test_splice import benchmark_complexes

    calls = []
    real = typea.derive_cfa
    monkeypatch.setattr(typea, "derive_cfa", lambda m, against=None: calls.append(m) or real(m, against))
    partners = _partners(request)
    for c in benchmark_complexes().values():
        s = simplify(c)
        stable = build_cfd(s, 5).stable
        kept = []

        def snapshot():
            return {end: list(paths) for end, paths in vars(stable)["_cfa_walk"].items()}

        derived = []
        for n in (5, -5, 0, 40, 5):
            d = build_cfd(s, n)
            derived.append([])
            for against in (None, *partners):
                if d.bounded or (against is not None and against.bounded):
                    derived[-1].append(_derived(d, against))
                    kept = kept or [vars(stable)["_cfa_walk"], snapshot()]
        assert vars(stable)["_cfa_walk"] is kept[0] and snapshot() == kept[1], c.name
        assert sum(m is stable for m in calls) == 1, c.name
        assert derived[0] == derived[-1], c.name


@given(split_graphs, st.sampled_from([None, "chain", "loop", "whole"]))
@example(([0, 1, 1, 1, 0], frozenset({(0, "1", 1), (0, "1", 2), (1, "23", 3), (2, "23", 3), (3, "2", 4)}), 4),
         None)  # the two stable paths g0 -> g3 cancel, and so do their extensions
@example(([0, 1], frozenset({(0, "1", 1), (1, "2", 0)}), 1), "chain")  # an unbounded chain
@example(([0, 0, 1], frozenset({(0, EMPTY, 1), (1, "3", 2), (2, "2", 0)}), 2), "chain")
@example(([0, 0, 0], frozenset({(0, "12", 1), (1, EMPTY, 2)}), 2), "whole")  # an identity edge leaves
@example(([0, 0], frozenset({(0, EMPTY, 1), (1, EMPTY, 0)}), 1), "chain")  # an identity cycle
@example(([0], frozenset({(0, "12", 0)}), 1), "chain")  # an unbounded stable part
@example(([0, 1, 0], frozenset({(0, "1", 1), (1, "2", 2), (2, "12", 0)}), 1), "loop")
@example(([0, 0, 1], frozenset({(0, "1", 2), (1, "123", 2)}), 2), None)  # the chain regrades g1
def test_any_stable_part_gives_the_whole_type_a_module(graph, partner):
    """A module over a stable part (its first k generators and the edges
    among them) derives the type A module of the module built whole, alone
    or against a partner, and is refused in the same words."""
    idempotents, edges, k = graph
    gens = [DGen(f"g{i}", idem, "xi") for i, idem in enumerate(idempotents)]
    stable = TypeDModule(gens[:k], frozenset(e for e in edges if e[0] < k and e[2] < k))
    d = TypeDModule(gens, edges, stable)
    loop = TypeDModule([DGen("y", 0, "xi")], frozenset({(0, "12", 0)}))
    against = {None: None, "chain": hand_built()["chain"], "loop": loop, "whole": _whole(d)}[partner]
    assert _derived(d, against) == _derived(_whole(d), against)


class TestValidate:
    def test_grading_law_everywhere(self, trefoil, mirror_trefoil, t25, figure_eight):
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            for n in range(-3, 5):
                report = validate_cfa(cfa(c, n))
                assert report.ok, (c.name, n, report.problems)

    def test_unmerged_word_rejected(self):
        from floersplice.typea import TypeAModule

        a = TypeAModule(
            TypeDModule([DGen("a", 0, "xi"), DGen("b", 0, "xi")], frozenset()),
            frozenset({(0, ("1", "2"), 1)}),
        )
        report = validate_cfa(a)
        assert not report.checks["merged"]

    # Three generators a, b (iota_0) and c (iota_1) with no edges: each is
    # graded 0 in the type D module, so a and b are graded 1 here and c 0.
    SOURCE = TypeDModule([DGen("a", 0, "xi"), DGen("b", 0, "xi"), DGen("c", 1, "mu")], frozenset())

    @pytest.mark.parametrize("op, problem", [
        ((0, ("1",), 0), "idempotent mismatch in op a,('1',)"),  # rho1 leaves iota_0 for iota_1
        ((2, ("12",), 0), "idempotent mismatch in op c,('12',)"),
        ((0, (), 2), "differential a -> c mixes idempotents"),
    ])
    def test_idempotent_mismatch_rejected(self, op, problem):
        from floersplice.typea import TypeAModule

        report = validate_cfa(TypeAModule(self.SOURCE, frozenset({op})))
        assert report.checks == {"idempotents": False, "merged": True, "grading_law": True}
        assert report.problems == [problem]

    @pytest.mark.parametrize("op, problem", [
        ((0, (), 1), "grading law fails on op a,() -> b"),  # a differential flips a's grading 1, b has 1
        ((0, ("1",), 2), "grading law fails on op a,('1',) -> c"),
    ])
    def test_grading_law_violation_rejected(self, op, problem):
        from floersplice.typea import TypeAModule

        report = validate_cfa(TypeAModule(self.SOURCE, frozenset({op})))
        assert report.checks == {"idempotents": True, "merged": True, "grading_law": False}
        assert report.problems == [problem]

    def test_identity_only_module(self):
        a = derive_cfa(hand_built()["single"])
        assert not a.operations
        assert validate_cfa(a).ok


class TestDurableTransfer:
    def test_durable_bars_receive_nothing_or_constrained_words(
        self, figure_eight, trefoil
    ):
        """No operation evaluates to the bar of a durable iota_0 generator,
        and operations into its durable D_123 partner use only the words
        (rho3) and (rho3, rho2, rho1)."""
        cases = [(figure_eight, n, "x4") for n in range(-2, 3)]
        cases += [(trefoil, n, "x2") for n in (0, 1)]
        for c, n, gen_id in cases:
            d = build_cfd(simplify(c), n)
            x = gen_index(d, gen_id)
            assert durability(d, 1 << x)["durable"]
            y_bits = gf2.bits(gf2.apply_columns(d.matrix("123"), 1 << x))
            a = derive_cfa(solve_gradings(d))
            for _, word, dst in a.operations:
                assert dst != x
                if dst in y_bits:
                    assert word in (("3",), ("3", "2", "1"))


def test_ops_text(trefoil):
    a = cfa(trefoil, 2)
    text = ops_text(a)
    assert "m2(x1, rho3) = kap1_1" in text
    assert "m3(x0, rho3 rho2) = x2" in text
    assert text == "\n".join(sorted(text.strip().split("\n"))) + "\n"
