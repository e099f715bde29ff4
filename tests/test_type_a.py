"""Derived type A modules: operations, gradings, the frozen trefoil snapshot."""

import pytest

from floersplice import gf2
from floersplice.cfk import simplify, unknot
from floersplice.typea import derive_cfa, ops_text, validate_cfa
from floersplice.typed import build_cfd, durability, solve_gradings


def cfa(complex_, n, **kw):
    return derive_cfa(solve_gradings(build_cfd(simplify(complex_), n)), **kw)


def ops_by_ids(a):
    return {
        (a.generators[s].id, w, a.generators[t].id) for s, w, t in a.operations
    }


class TestDerive:
    def test_generator_bijection(self, trefoil, figure_eight):
        for c in (trefoil, figure_eight):
            d = solve_gradings(build_cfd(simplify(c), 1))
            a = derive_cfa(d)
            assert [g.id for g in a.generators] == [g.id for g in d.generators]
            assert [g.idempotent for g in a.generators] == [
                g.idempotent for g in d.generators
            ]

    def test_iota0_grading_flip(self, trefoil):
        d = solve_gradings(build_cfd(simplify(trefoil), 3))
        a = derive_cfa(d)
        for i, g in enumerate(a.generators):
            if g.idempotent == 0:
                assert g.grading != d.gradings[i]
            else:
                assert g.grading == d.gradings[i]

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

    def test_unbounded_requires_cap(self):
        d = build_cfd(simplify(unknot()), 0)
        with pytest.raises(ValueError):
            derive_cfa(d)
        a = derive_cfa(d, max_word_length=4)
        assert not a.bounded
        ops = ops_by_ids(a)
        assert ("x0", ("3", "2"), "x0") in ops  # the D_12 self edge
        # circuits of the self edge merge into longer words
        assert ("x0", ("3", "23", "2"), "x0") in ops

    def test_word_cap_is_exact(self, trefoil, mirror_trefoil, t25, figure_eight):
        """A word-length cap keeps exactly the uncapped operations that fit it."""
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            for n in range(-9, 10):
                d = solve_gradings(build_cfd(simplify(c), n))
                if not d.is_bounded():
                    continue
                full = derive_cfa(d).operations
                for k in range(8):
                    capped = derive_cfa(d, max_word_length=k).operations
                    assert capped == {op for op in full if len(op[1]) <= k}, (c.name, n, k)

    def test_f2_cancellation(self):
        """Two distinct paths with the same source, word, and target cancel."""
        from floersplice.typed import DGen, TypeDModule

        # a -D1-> b and a -D1-> c -D_empty-> ... is hard to arrange with
        # honest modules; use a direct two-path diamond instead.
        m = TypeDModule(
            [DGen("a", 0, "xi"), DGen("p", 1, "mu"), DGen("q", 1, "mu")],
            frozenset({(0, "1", 1), (0, "1", 2)}),
            gradings=[0, 0, 0],
        )
        # both edges give (a, ("3",), .) ops to different targets: no overlap
        a = derive_cfa(m)
        assert len(a.operations) == 2

        m2 = TypeDModule(
            [
                DGen("a", 0, "xi"),
                DGen("p", 1, "mu"),
                DGen("q", 1, "mu"),
                DGen("z", 1, "mu"),
            ],
            frozenset(
                {(0, "1", 1), (0, "1", 2), (1, "23", 3), (2, "23", 3)}
            ),
            gradings=[1, 0, 0, 0],
        )
        a2 = derive_cfa(m2)
        words = {(s, w, t) for s, w, t in a2.operations}
        # the two length-two paths a -> z carry equal words and cancel
        assert not any(t == 3 and s == 0 for s, w, t in words)


class TestValidate:
    def test_grading_law_everywhere(self, trefoil, mirror_trefoil, t25, figure_eight):
        for c in (trefoil, mirror_trefoil, t25, figure_eight):
            for n in range(-3, 5):
                report = validate_cfa(cfa(c, n))
                assert report.ok, (c.name, n, report.problems)

    def test_unmerged_word_rejected(self):
        from floersplice.typea import AGen, TypeAModule

        a = TypeAModule(
            [AGen("a", 0, 0), AGen("b", 0, 0)],
            frozenset({(0, ("1", "2"), 1)}),
            max_word_length=2,
        )
        report = validate_cfa(a)
        assert not report.merged_ok

    def test_identity_only_module(self):
        from floersplice.typed import DGen, TypeDModule

        m = TypeDModule([DGen("a", 0, "xi")], frozenset(), gradings=[0])
        a = derive_cfa(m)
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
            x = d.index_of(gen_id)
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
