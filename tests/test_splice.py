"""Predictor, conjecture arithmetic, splice reports, and surveys."""

import copy
import functools
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floersplice.algebra import EMPTY, swap_and_merge
from floersplice.boxtensor import box_tensor
from floersplice.cfk import (
    ValidationReport,
    make_complex,
    simplify,
    staircase,
    unknot,
    validate_complex,
)
from floersplice.homology import GradedRanks, graded_homology
from floersplice.splice import (
    OUT_OF_SCOPE,
    FramedSide,
    InvariantViolation,
    _splice,
    conjecture_check,
    predict_lspace,
    prepare,
    splice_report,
    survey,
    survey_summary,
)
from floersplice.typea import TypeAModule, derive_cfa
from floersplice.typed import durable_candidates, walk_paths
from test_cfk import BARCODE_BASES, filtered_change


class TestPredictor:
    def test_spec_examples(self):
        assert predict_lspace(1, True, 2, 1, True, 3) is True
        assert predict_lspace(1, True, 2, 1, True, 2) is False
        assert predict_lspace(1, True, 5, -1, True, -2) is True

    def test_non_lspace_knot_always_false(self):
        for n1 in range(-3, 4):
            for n2 in range(-3, 4):
                assert predict_lspace(0, False, n1, 1, True, n2) is False

    def test_trivial_knot_out_of_scope(self):
        assert predict_lspace(0, True, 5, 1, True, 4) == OUT_OF_SCOPE
        assert predict_lspace(1, True, 4, 0, True, 0) == OUT_OF_SCOPE

    def test_negative_tau_window(self):
        assert predict_lspace(-1, True, -2, -1, True, -3) is True
        assert predict_lspace(-1, True, -2, -1, True, -2) is False  # both at boundary
        assert predict_lspace(-1, True, -1, -1, True, -5) is False  # n1 > 2 tau1


class TestConjecture:
    def test_spec_examples(self):
        r = conjecture_check(1, 2, 3, 1)
        assert r["p_over_q"] == 3 and r["r_over_s"] == 2 and r["verdict"] is True
        r = conjecture_check(1, 2, 2, 1)
        assert r["p_over_q"] == 2 and r["r_over_s"] == 1 and r["verdict"] is False
        r = conjecture_check(1, 1, 0, 1)
        assert r["degenerate"]

    def test_exact_rationals(self):
        r = conjecture_check(1, 3, 2, 1)
        assert r["r_over_s"] == Fraction(3, 2)

    def test_tau_zero_rejected(self):
        with pytest.raises(ValueError):
            conjecture_check(0, 1, 1, 1)

    def test_agrees_with_predictor_on_lspace_knot_pairs(self):
        for tau1, tau2 in [(1, 1), (2, 1), (1, -1), (-1, -1), (-2, 1)]:
            for n1 in range(-5, 7):
                for n2 in range(-7, 7):
                    r = conjecture_check(tau1, n1, n2, tau2)
                    if r["degenerate"]:
                        continue
                    assert r["verdict"] == predict_lspace(
                        tau1, True, n1, tau2, True, n2
                    ), (tau1, n1, tau2, n2)


class TestSpliceReport:
    def test_zero_framed_trefoils(self, trefoil):
        r = splice_report(trefoil, 0, trefoil, 0)
        assert r.verdict is False
        assert r.computed.rank0 >= 1 and r.computed.rank1 >= 1
        assert r.agree

    def test_lspace_case(self, trefoil):
        r = splice_report(trefoil, 3, trefoil, 2)
        assert r.verdict is True
        assert r.computed.euler_abs == 5
        assert r.agree

    def test_fig8_never_lspace(self, figure_eight, trefoil):
        r = splice_report(figure_eight, 1, trefoil, 4)
        assert r.verdict is False
        assert r.prediction is False
        assert r.durable_fast_path is True

    def test_first_hit_durable_facts_match_the_full_list(
        self, trefoil, mirror_trefoil, t25, figure_eight, unknot_complex
    ):
        """The shortcut's two facts, each found at its first hit, agree with
        the sorted list the durable command prints."""
        seen = set()
        for c in (trefoil, mirror_trefoil, t25, figure_eight, unknot_complex):
            for n in range(-4, 5):
                side = FramedSide(c, n)
                pairs = side.durable_pairs
                assert side.has_durable_pair == any(p[2] == "durable" for p in pairs)
                assert side.has_pair == bool(pairs)
                seen.add((side.has_durable_pair, side.has_pair))
        assert seen == {(False, False), (False, True), (True, True)}

    def test_report_fields(self, trefoil, mirror_trefoil):
        r = splice_report(trefoil, 2, mirror_trefoil, -2)
        assert (r.t1, r.t2) == (0, 0)
        assert r.knot1.tau == 1 and r.knot2.tau == -1
        d = r.to_dict()
        assert d["schema"] == 1
        assert d["computed"] == [r.computed.rank0, r.computed.rank1]
        assert isinstance(r.to_json(), str)

    def test_framing_must_be_an_int(self, trefoil):
        """A bool framing would reach schema-1 JSON as `true`, and a float
        would fail deep in the chain's range: both are refused up front."""
        for n in (True, 3.0, "3"):
            expected = f"^trefoil: framing {re.escape(repr(n))} is not an int$"
            for args in ((trefoil, n, trefoil, 2), (trefoil, 2, trefoil, n)):
                with pytest.raises(ValueError, match=expected):
                    splice_report(*args)

    def test_unknot_side_out_of_scope_still_computes(
        self, trefoil, mirror_trefoil, unknot_complex
    ):
        r = splice_report(trefoil, 1, unknot_complex, 0)
        assert r.prediction == OUT_OF_SCOPE
        assert r.computed.total == 1
        assert r.agree
        # Capped type A walks on the unknot side reach paths of about 1200
        # edges here, far past any recursion limit.
        for c2, n2 in ((trefoil, 400), (mirror_trefoil, -400)):
            r = splice_report(unknot_complex, 0, c2, n2)
            assert r.computed.total == 1
            assert r.agree


    def test_deep_framings(self, trefoil, mirror_trefoil):
        """Deep framings: only the type A operations the other side can pair are
        derived, and a box of millions of generators is counted, not built."""
        cases = (
            (trefoil, 1100, trefoil, 3),
            (mirror_trefoil, -1100, mirror_trefoil, -3),
            (trefoil, 200, trefoil, 201),
        )
        for c1, n1, c2, n2 in cases:
            r = splice_report(c1, n1, c2, n2)
            assert r.computed.total == abs(n1 * n2 - 1)
            assert r.agree
        r = splice_report(trefoil, 2000, trefoil, 2001)
        assert (r.computed.rank0, r.computed.rank1) == (4001999, 0)
        assert r.verdict and r.agree
        r = splice_report(mirror_trefoil, -2000, trefoil, -2001)
        assert (r.computed.rank0, r.computed.rank1) == (4003999, 2000)
        assert not r.verdict and r.agree


@pytest.fixture
def walked(monkeypatch):
    """The type D modules whose type A module splice derives, in call order."""
    from floersplice import splice

    modules = []
    monkeypatch.setattr(
        splice, "derive_cfa", lambda m, against=None: modules.append(m) or derive_cfa(m, against)
    )
    return modules


class TestGuardMessages:
    """Each run-time guard names both framed sides and the stage that failed."""

    @pytest.mark.parametrize(
        "target, attr, value, match",
        [
            ("floersplice.boxtensor.ChainComplex", "d_squared_is_zero", False,
             r"^trefoil\[3\] x trefoil\[2\]: box tensor differential does not square"),
            ("floersplice.boxtensor.ChainComplex", "boundary_flips_grading", False,
             r"^trefoil\[3\] x trefoil\[2\]: box tensor differential does not flip"),
            ("floersplice.splice", "graded_homology", GradedRanks(4, 0),
             r"^trefoil\[3\] x trefoil\[2\]: graded homology: \|rank1 - rank0\| = 4 "
             r"breaks the Euler identity \|n1\*n2 - 1\| = 5"),
        ],
        ids=["d-squared", "grading-flip", "euler"],
    )
    def test_pairing_guards(self, monkeypatch, trefoil, target, attr, value, match):
        monkeypatch.setattr(f"{target}.{attr}", lambda *args: value)
        with pytest.raises(InvariantViolation, match=match):
            splice_report(trefoil, 3, trefoil, 2)

    @pytest.mark.parametrize("attr", ["d_squared_is_zero", "boundary_flips_grading"])
    def test_box_guards_on_the_swapped_route(self, monkeypatch, walked, trefoil, attr):
        """trefoil[40] has more generators than trefoil[2], so side 2 derives its
        type A module; the guards still name the sides in report order."""
        monkeypatch.setattr(f"floersplice.boxtensor.ChainComplex.{attr}", lambda box: False)
        with pytest.raises(InvariantViolation) as caught:
            splice_report(trefoil, 40, trefoil, 2)
        assert str(caught.value).startswith("trefoil[40] x trefoil[2]: box tensor differential")
        assert caught.value.stage == "box tensor differential"
        assert caught.value.sides == (("trefoil", 40), ("trefoil", 2))
        assert [len(m.generators) for m in walked] == [len(FramedSide(trefoil, 2).d.generators)]

    def test_type_d_refusal_says_where(self, monkeypatch, capsys, trefoil):
        """A failed validate_type_d names its stage and its one side as
        fields; the message, the CLI's stderr line and exit code 2 stay."""
        from floersplice.cli import main

        failed = ValidationReport({"structure_equation": False},
                                  problems=["structure equation fails at output label 12"])
        monkeypatch.setattr("floersplice.splice.validate_type_d", lambda d: failed)
        with pytest.raises(InvariantViolation) as caught:
            splice_report(trefoil, 3, trefoil, 2)
        assert str(caught.value) == "trefoil[3]: structure equation fails at output label 12"
        assert caught.value.stage == "validate_type_d"
        assert caught.value.sides == (("trefoil", 3),)
        again = pickle.loads(pickle.dumps(caught.value))
        assert (str(again), again.stage, again.sides) == (
            str(caught.value), caught.value.stage, caught.value.sides)

        path = str(Path(__file__).parent / "data" / "trefoil.cfk")
        assert main(["splice", path, "3", path, "2"]) == 2
        assert capsys.readouterr().err == (
            "internal invariant violation: trefoil[3]: structure equation fails at output label 12\n"
        )

    def test_euler_violation_says_where(self, monkeypatch, trefoil):
        monkeypatch.setattr("floersplice.splice.graded_homology", lambda box: GradedRanks(4, 0))
        with pytest.raises(InvariantViolation) as caught:
            splice_report(trefoil, 3, trefoil, 2)
        assert caught.value.stage == "graded homology"
        assert caught.value.sides == (("trefoil", 3), ("trefoil", 2))
        assert str(caught.value).startswith("trefoil[3] x trefoil[2]: graded homology: ")

    def test_durable_contradiction(self, monkeypatch, figure_eight, trefoil):
        monkeypatch.setattr("floersplice.splice.lspace_verdict", lambda ranks: True)
        with pytest.raises(
            InvariantViolation,
            match=r"^figure_eight\[1\] x trefoil\[4\]: durable-pair shortcut contradicts",
        ):
            splice_report(figure_eight, 1, trefoil, 4)


def outcome(report):
    """A splice's graded ranks, verdict and prediction."""
    return report.computed.rank0, report.computed.rank1, report.verdict, report.prediction


# Presentations whose vertical reduction classes are not homogeneous: each
# horizontal vector is a combination of xi vectors at its own level only once
# the xi vectors are read at their own levels too.
RE_PRESENTED_EXAMPLES = [
    ([2, 1, 1, 2], [(2, 4, 1), (4, 3, 0), (0, 2, 1), (4, 3, 1), (3, 2, 0)]),
    ([1, 1, 1, 1], [(3, 1, 0), (0, 3, 1)]),
    ([1, 1], [(2, 1, 0)]),
    ([1, 1, 1, 1], [(2, 0, 0)]),
]


class TestRePresentedBases:
    @pytest.mark.parametrize("steps, moves", RE_PRESENTED_EXAMPLES,
                             ids=["s2112", "t25", "trefoil", "t25-b"])
    def test_splices_like_the_original(self, steps, moves, trefoil, figure_eight):
        """A re-presentation whose vertical reduction classes span several
        levels splices like its original against the trefoil and the figure
        eight in both orders and against itself, with no grading swap."""
        base = staircase(steps, "+")
        changed = filtered_change(base, moves)
        assert validate_complex(changed).ok
        for n1 in range(-6, 8):
            for n2 in range(-5, 6):
                for partner in (trefoil, figure_eight):
                    for want, got in (((base, n1, partner, n2), (changed, n1, partner, n2)),
                                      ((partner, n2, base, n1), (partner, n2, changed, n1))):
                        assert outcome(splice_report(*got)) == outcome(splice_report(*want)), got
                want, got = splice_report(base, n1, base, n2), splice_report(changed, n1, changed, n2)
                assert outcome(got) == outcome(want), (n1, n2)


RE_PRESENTED = {**BARCODE_BASES, "mirror_trefoil": lambda: staircase([1, 1], "-")}
PARTNERS = {k: RE_PRESENTED[k]() for k in ("trefoil", "mirror_trefoil", "fig8")}


@functools.cache
def original_splice(which, n1, partner, n2):
    """splice_report of the unchanged complex, computed once per test session."""
    return splice_report(RE_PRESENTED[which](), n1, PARTNERS[partner], n2)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(RE_PRESENTED)),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1)), max_size=5),
)
def test_re_presentation_keeps_the_splice(which, moves):
    """A filtered change of basis is never refused, and keeps every splice's
    ranks (up to the swap of the two gradings), verdict and prediction:
    against the trefoil, its mirror and the figure eight, at framings that
    include 2 tau - 1, 2 tau and 2 tau + 1, where the type D module changes shape."""
    base = RE_PRESENTED[which]()
    changed = filtered_change(base, moves)
    two_tau = 2 * simplify(base).tau
    framings = [(3, 2), (-3, -2), (2, -3), (-1, 4),
                (two_tau - 1, 1), (two_tau, -1), (two_tau + 1, 2)]
    for partner in PARTNERS:
        for n1, n2 in framings:
            want = original_splice(which, n1, partner, n2)
            got = splice_report(changed, n1, PARTNERS[partner], n2)
            ranks = (got.computed.rank0, got.computed.rank1)
            assert ranks in {(want.computed.rank0, want.computed.rank1),
                             (want.computed.rank1, want.computed.rank0)}, (partner, n1, n2)
            assert (got.verdict, got.prediction) == (want.verdict, want.prediction), (partner, n1, n2)


class TestSurvey:
    def test_small_survey(self, trefoil):
        reports = survey(trefoil, (1, 3), trefoil, (1, 3))
        assert len(reports) == 9
        summary = survey_summary(reports)
        assert summary["rows"] == 9
        assert summary["agreements"] == 9
        assert summary["lspaces"] == sum(1 for r in reports if r.verdict)

    @pytest.mark.parametrize(
        "k1, range1, k2, range2",
        [
            ("trefoil", (2, 2), "trefoil", (3, 3)),
            # side 1 unbounded: its type A module is pruned against each side 2
            ("unknot_complex", (0, 0), "trefoil", (-3, 3)),
            ("trefoil", (-3, 3), "unknot_complex", (0, 0)),
            ("trefoil", (-3, 3), "mirror_trefoil", (-3, 3)),
        ],
        ids=["single", "unknot0-trefoil", "trefoil-unknot0", "trefoil-mirror"],
    )
    def test_rows_are_independent(self, request, k1, range1, k2, range2):
        """A survey, which prepares each side once, equals its rows computed one by one."""
        c1, c2 = request.getfixturevalue(k1), request.getfixturevalue(k2)
        rows = [
            splice_report(c1, n1, c2, n2).to_dict()
            for n1 in range(range1[0], range1[1] + 1)
            for n2 in range(range2[0], range2[1] + 1)
        ]
        assert [r.to_dict() for r in survey(c1, range1, c2, range2)] == rows

    def test_side_keeps_one_whole_type_a_module(self, walked, trefoil, unknot_complex):
        """A bounded side 1 derives one whole type A module per row range, which
        every row pairs; an unbounded side 1 has none and pairs pruned per row."""
        survey(trefoil, (3, 4), trefoil, (1, 3))
        assert walked == [FramedSide(trefoil, 3).d, FramedSide(trefoil, 4).d]
        walked.clear()
        survey(unknot_complex, (0, 0), trefoil, (1, 3))
        assert len(walked) == 3
        with pytest.raises(ValueError, match="only a bounded partner ends its walk"):
            derive_cfa(FramedSide(unknot_complex, 0).d)

    def test_range_ends_must_be_ints(self, trefoil):
        """A float, str or bool range end is refused, naming the range, by the
        rule a framing follows, before any row is computed."""
        cases = (((0.0, 2.0), "0.0"), (("0", "2"), "'0'"), ((True, 2), "True"), ((0, False), "False"))
        for bad, end in cases:
            expected = f"^survey range {re.escape(repr(bad))}: end {end} is not an int$"
            for args in ((trefoil, bad, trefoil, (1, 2)), (trefoil, (1, 2), trefoil, bad)):
                with pytest.raises(ValueError, match=expected):
                    survey(*args)

    def test_range_must_be_two_ends(self, trefoil):
        """A range of one end or three, or one that is not a tuple or list, is
        refused naming the range, not read in part."""
        for bad in ((1,), (1, 2, 3), (), 2, "12", range(1, 3)):
            expected = f"^survey range {re.escape(repr(bad))} is not two ends$"
            for args in ((trefoil, bad, trefoil, (1, 2)), (trefoil, (1, 2), trefoil, bad)):
                with pytest.raises(ValueError, match=expected):
                    survey(*args)
        assert len(survey(trefoil, [1, 2], trefoil, (1, 1))) == 2

    def test_empty_range_refused(self, monkeypatch, trefoil):
        """A range whose first end is past its last is refused, naming the
        range, before any row is computed; a range of one framing is not empty."""
        from floersplice import splice

        monkeypatch.setattr(splice, "FramedSide", lambda c, n: pytest.fail("a row was computed"))
        for bad in ((3, 1), [0, -1]):
            expected = f"^survey range {re.escape(repr(bad))} is empty$"
            for args in ((trefoil, bad, trefoil, (1, 2)), (trefoil, (1, 2), trefoil, bad)):
                with pytest.raises(ValueError, match=expected):
                    survey(*args)
        monkeypatch.undo()
        assert len(survey(trefoil, (2, 2), trefoil, (1, 1))) == 1

    def test_survey_raises_as_its_row(self, unknot_complex):
        with pytest.raises(ValueError) as one:
            splice_report(unknot_complex, 0, unknot_complex, 0)
        with pytest.raises(ValueError) as many:
            survey(unknot_complex, (0, 0), unknot_complex, (0, 0))
        assert str(many.value) == str(one.value) == (
            "both framed complements are unbounded; cannot pair"
        )


FIXTURES = ("trefoil", "mirror_trefoil", "figure_eight", "t25", "unknot_complex")


def longest_reeb_path(d):
    """Edges on the longest Reeb-labeled path of a bounded module, by enumeration."""
    roots = [(s, 0, d.adj[s]) for s in range(len(d.generators))]
    paths = walk_paths(d.adj, lambda edges, label: None if label == EMPTY else edges + 1, roots)
    return max((edges for *_, edges in paths), default=0)


def capped_cfa(d, k):
    """The type A module of an unbounded d cut to words of at most k letters.

    Such a word needs a path of at most 3k + 2 edges: each non-identity label
    adds at least one of the word's at most 3k digits, and a built module has
    at most one identity edge, on no cycle.  The operations of those paths
    are counted mod 2.
    """
    def step(state, label):
        word, edges = state
        return (swap_and_merge((label,), word), edges + 1) if edges < 3 * k + 2 else None

    parity = {}
    for start, end, (word, _) in walk_paths(d.adj, step, [(s, ((), 0), d.adj[s]) for s in range(len(d.generators))]):
        if len(word) <= k:
            parity[start, word, end] = parity.get((start, word, end), 0) ^ 1
    return TypeAModule(d, frozenset(op for op, p in parity.items() if p))


class TestRoutes:
    """A pruned type A module boxes to the whole module's box complex, bit for
    bit, and _splice reports the whole module's homology on either of its
    routes.  For an unbounded side 1 the whole module is its operations of
    words no longer than side 2's longest Reeb path, which no pairable word
    exceeds."""

    @staticmethod
    def check(side1, side2):
        pruned = derive_cfa(side1.d, against=side2.d) if side2.d.bounded else None
        if side1.d.bounded:
            whole_a = derive_cfa(side1.d)
            whole = box_tensor(whole_a, side2.d)
        else:
            k = longest_reeb_path(side2.d)
            whole = box_tensor(capped_cfa(side1.d, k), side2.d)
            assert pruned.max_word_length <= k, f"{side1} x {side2}"
        if pruned is not None:
            assert box_tensor(pruned, side2.d) == whole, f"{side1} x {side2}"
        report = _splice(side1, side2)
        assert report.computed == graded_homology(whole), f"{side1} x {side2}"
        if side1.d.bounded:
            assert _splice(side1, side2, whole_a) == report, f"{side1} x {side2}"

    @pytest.mark.parametrize("k1", FIXTURES)
    def test_fixture_grid(self, request, k1):
        c1 = request.getfixturevalue(k1)
        sides2 = [
            FramedSide(request.getfixturevalue(k2), n2) for k2 in FIXTURES for n2 in range(-4, 7)
        ]
        for n1 in range(-7, 10):
            side1 = FramedSide(c1, n1)
            for side2 in sides2:
                if side1.d.bounded or side2.d.bounded:
                    self.check(side1, side2)

    def test_deep_and_unbounded_sides(self, walked, trefoil, mirror_trefoil, unknot_complex):
        """Without a whole module, _splice derives the side with fewer
        generators, pruned: one walk per splice."""
        cases = [
            (unknot_complex, 0, c, n)
            for c in (trefoil, mirror_trefoil)
            for n in (-120, -3, 3, 120)
        ]
        cases += [
            (trefoil, 82, mirror_trefoil, -5),
            (mirror_trefoil, -90, trefoil, 3),
            (trefoil, 60, trefoil, 61),
        ]
        for c1, n1, c2, n2 in cases:
            side1, side2 = FramedSide(c1, n1), FramedSide(c2, n2)
            walked.clear()
            self.check(side1, side2)
            smaller = min(side1.d, side2.d, key=lambda m: len(m.generators))
            assert walked == [smaller], f"{side1} x {side2}"

    @staticmethod
    def homology_or_refusal(side1, side2):
        """Side 1's type A module, pruned against side 2, boxed with side 2's type D."""
        try:
            return graded_homology(box_tensor(derive_cfa(side1.d, against=side2.d), side2.d))
        except ValueError as e:
            return str(e)

    def check_both_orders(self, framed) -> int:
        """Either side's type A module boxed with the other's type D module has
        the splice's homology, or both orders are refused in the same words.
        Fresh sides for each order; returns the number of refused pairs."""
        refused = 0
        for c1, n1 in framed:
            for c2, n2 in framed:
                one = self.homology_or_refusal(FramedSide(c1, n1), FramedSide(c2, n2))
                other = self.homology_or_refusal(FramedSide(c2, n2), FramedSide(c1, n1))
                assert one == other, f"{c1.name}[{n1}] x {c2.name}[{n2}]"
                refused += isinstance(one, str)
        return refused

    def test_both_orders_agree_on_fixtures(self, request):
        framed = [(request.getfixturevalue(k), n) for k in FIXTURES for n in range(-6, 7)]
        assert self.check_both_orders(framed) > 0  # pairs of unbounded sides are refused

    def test_both_orders_agree_on_benchmark_complexes(self):
        framed = [(c, n) for c in benchmark_complexes().values() for n in (-7, -2, 1, 3, 8)]
        assert self.check_both_orders(framed) > 0

    @pytest.mark.parametrize("depth", [100, 400])
    def test_deep_side_pairs_through_its_partner(self, walked, trefoil, mirror_trefoil, depth):
        """A deep first side has more generators than its partner, so the
        partner's type A module is derived, and the report is the one the
        first side's own type A module gives."""
        splice_report(trefoil, depth, trefoil, 3)  # warm: the complexes' kept bases and stable walks
        for c1, n1, c2, n2 in (
            (trefoil, depth, trefoil, 3),
            (mirror_trefoil, -depth, mirror_trefoil, -3),
            (mirror_trefoil, -depth, trefoil, 3),
        ):
            walked.clear()
            r = splice_report(c1, n1, c2, n2)
            side1, side2 = FramedSide(c1, n1), FramedSide(c2, n2)
            assert [len(m.generators) for m in walked] == [len(side2.d.generators)]
            assert len(side2.d.generators) < len(side1.d.generators)
            # side 1's own type A module, given to _splice, pairs to the same report
            assert _splice(side1, side2, derive_cfa(side1.d, against=side2.d)) == r

    def test_survey_derives_side_one_whole(self, walked, trefoil):
        """A bounded side 1 that meets several framings is derived whole, once,
        however many generators it has."""
        rows = survey(trefoil, (100, 100), trefoil, (2, 4))
        assert walked == [FramedSide(trefoil, 100).d]
        assert rows == [splice_report(trefoil, 100, trefoil, n2) for n2 in (2, 3, 4)]

    def test_bounded_side_count(
        self, trefoil, mirror_trefoil, figure_eight, t25, unknot_complex
    ):
        """Which framed complements are bounded, on fixtures and connected sums."""
        from test_connected_sum import tensor_product

        complexes = [trefoil, mirror_trefoil, figure_eight, t25, unknot_complex]
        complexes += [
            tensor_product(figure_eight, trefoil, "fig8#trefoil"),
            tensor_product(trefoil, trefoil, "trefoil#trefoil"),
        ]
        bounded = sum(FramedSide(c, n).d.bounded for c in complexes for n in range(-15, 16))
        assert bounded == 201


def benchmark_complexes() -> dict:
    """Fresh copies of the ten complexes of the benchmark workloads, by name."""
    from test_connected_sum import tensor_product

    trefoil = staircase([1, 1], "+", name="trefoil")
    figure_eight = make_complex(
        "figure_eight",
        ["a", "b", "c", "d", "e"],
        {"a": 1, "b": 0, "c": 0, "d": -1, "e": 0},
        [("a", "b", 0), ("c", "a", 1), ("c", "d", 0), ("d", "b", 1)],
    )
    out = [trefoil, staircase([1, 1], "-", name="mirror_trefoil"), unknot(), figure_eight]
    out += [
        tensor_product(figure_eight, trefoil, "fig8#trefoil"),
        tensor_product(trefoil, trefoil, "trefoil#trefoil"),
    ]
    out += [staircase([1] * (2 * k), "+", name=f"staircase_{2 * k}") for k in (4, 8, 12, 16)]
    return {c.name: c for c in out}


class TestPerComplexCache:
    """Validation, the simplified bases and the durable candidates are computed
    once per complex object, and the durable shortcut's facts once per complex
    and chain class; whatever else depends on the framing, once per side."""

    def test_once_per_complex_object(self, monkeypatch):
        from floersplice import splice, typed

        calls = {"validate_complex": [], "simplify": [], "durable_candidates": []}

        def counted(name, fn):
            def wrapper(arg):
                out = fn(arg)
                calls[name].append((arg, out))
                return out
            return wrapper

        for name in calls:
            owner = typed if name == "durable_candidates" else splice
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cx = benchmark_complexes()
        c1, c2 = cx["trefoil"], cx["fig8#trefoil"]
        survey(c1, (-2, 2), c2, (-2, 2))
        for n in (-3, 0, 5):
            splice_report(c1, n, c2, n + 1)
            splice_report(c2, n, c1, n)
        s1, s2 = prepare(c1), prepare(c2)
        assert [id(c) for c, _ in calls["validate_complex"]] == [id(c1), id(c2)]
        assert [id(c) for c, _ in calls["simplify"]] == [id(c1), id(c2)]
        # every side reads the one list of durable candidates kept on its bases,
        # and so does find_durable_pairs
        kept = {(id(s), id(out)) for s, out in calls["durable_candidates"]}
        assert kept == {(id(s), id(durable_candidates(s))) for s in (s1, s2)}
        with monkeypatch.context() as m:
            m.setattr(typed, "_bk_primes", lambda s: pytest.fail("candidates listed again"))
            assert FramedSide(c1, 3).durable_pairs and FramedSide(c2, 3).durable_pairs

        fresh = benchmark_complexes()["trefoil"]
        assert fresh == c1 and "_bases" not in vars(fresh)
        splice_report(fresh, 3, c2, 2)
        assert [id(c) for c, _ in calls["simplify"]] == [id(c1), id(c2), id(fresh)]
        assert prepare(fresh) is not s1

    def test_durable_facts_once_per_chain_class(self, monkeypatch):
        """The shortcut scans the durable candidates at most once per complex,
        chain class and fact, across a survey and repeated reports, and keeps
        at most two facts per class on the bases however many framings ask."""
        from floersplice import typed

        scans = []

        def counted(m, candidates):
            scans.append(m)
            return iter_durable_pairs(m, candidates)

        iter_durable_pairs = typed.iter_durable_pairs
        monkeypatch.setattr(typed, "iter_durable_pairs", counted)
        cx = benchmark_complexes()
        c1, c2 = cx["trefoil"], cx["fig8#trefoil"]

        def facts():
            return sum(len(vars(prepare(c)).get("_durable_facts", {})) for c in (c1, c2))

        for _ in range(2):
            survey(c1, (-12, 12), c2, (-3, 3))
            for n in (-30, -3, 0, 5, 40):
                splice_report(c1, n, c2, n + 1)
                splice_report(c2, n, c1, n)
            assert len(scans) == facts()
        trefoil = cx["trefoil"]
        survey(trefoil, (-500, 500), trefoil, (3, 3))
        assert len(scans) == facts()
        assert len(vars(prepare(trefoil))["_durable_facts"]) <= 2 * (2 * typed.RUN_MIN + 1)

    def test_concurrent_sides_keep_the_same_facts(self):
        """Threads that splice one fresh complex at once, each computing the
        shortcut's facts that no other has kept yet, give the reports of one
        thread alone, and the bases keep the facts that one thread keeps."""
        import sys
        import threading

        framings = [(n1, n2) for n1 in (-40, -9, -3, 0, 2, 5, 9, 40) for n2 in (-3, 3)]
        alone = benchmark_complexes()["fig8#trefoil"]
        want = [splice_report(alone, n1, alone, n2).to_dict() for n1, n2 in framings]
        shared, got = benchmark_complexes()["fig8#trefoil"], []
        prepare(shared)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(
                [splice_report(shared, n1, shared, n2).to_dict() for n1, n2 in framings])) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4
        assert vars(prepare(shared))["_durable_facts"] == vars(prepare(alone))["_durable_facts"]

    def test_warm_reports_equal_fresh(self):
        """Every report is the same whether its complexes were prepared before or
        are built afresh for it."""
        cx = benchmark_complexes()
        trefoil = cx["trefoil"]
        framings = [(n1, n2) for n1 in range(-4, 5) for n2 in range(-4, 5)]

        def fresh(c):
            return make_complex(c.name, c.generators, c.alexander, c.differential)

        for c in cx.values():
            surveyed = [r.to_dict() for r in survey(c, (-4, 4), trefoil, (-4, 4))]
            warm = [splice_report(c, n1, trefoil, n2).to_dict() for n1, n2 in framings]
            cold = [splice_report(fresh(c), n1, fresh(trefoil), n2).to_dict() for n1, n2 in framings]
            assert surveyed == warm == cold, c.name

    def test_kept_results_are_not_pickled(self):
        """A prepared complex pickles and copies like a fresh one: the copy is
        equal and prepares itself on its first framing."""
        c = benchmark_complexes()["fig8#trefoil"]
        first = splice_report(c, 1, c, -1).to_dict()
        assert "_bases" in vars(c)
        for back in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
            assert back == c and "_bases" not in vars(back)
            assert splice_report(back, 1, back, -1).to_dict() == first

    @pytest.mark.parametrize("refused", ["invalid", "unsimplifiable"])
    def test_refusal_is_raised_again(self, refused):
        """A refused complex keeps being refused, with the same error, on either side."""
        if refused == "invalid":
            c = make_complex(
                "bad", ["x", "y", "z"], {"x": 2, "y": 1, "z": 0}, [("x", "y", 0), ("y", "z", 0)]
            )
            assert not validate_complex(c).ok
            expected = "bad: validation failed: d_squared_zero"
        else:  # passes validation, but its horizontal reduction leaves three unpaired
            c = make_complex("h", ["a", "b", "c"], {"a": 0, "b": 1, "c": 1}, [("b", "a", 0)])
            assert validate_complex(c).ok
            expected = "h: horizontal reduction left 3 unpaired generators"
        trefoil = staircase([1, 1], "+")
        for args in [(c, 1, trefoil, 2), (trefoil, 2, c, 1)]:
            errors = []
            for _ in range(2):
                with pytest.raises(ValueError, match=expected) as e:
                    splice_report(*args)
                errors.append((type(e.value), str(e.value)))
            assert errors[0] == errors[1]


def test_deep_framing_memory_does_not_grow():
    """A framed side holds its mu chain as a run, so a splice's memory does
    not grow with the framing: the tracemalloc peak of trefoil[10^5] spliced
    with trefoil[3], in either order, is within 256 KiB of the peak at
    trefoil[10^3].  The complex is prepared before the peaks are taken."""
    import tracemalloc

    trefoil = staircase([1, 1], "+", name="trefoil")
    splice_report(trefoil, 3, trefoil, 3)

    def peak(n1, n2):
        tracemalloc.start()
        try:
            splice_report(trefoil, n1, trefoil, n2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for deep, shallow in (((10**5, 3), (10**3, 3)), ((3, 10**5), (3, 10**3))):
        assert peak(*deep) <= peak(*shallow) + 256 * 1024, deep
