"""Predictor, conjecture arithmetic, splice reports, and surveys."""

from fractions import Fraction

import pytest

from floersplice.splice import (
    OUT_OF_SCOPE,
    conjecture_check,
    predict_lspace,
    splice_report,
    survey,
    survey_summary,
)


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

    def test_report_fields(self, trefoil, mirror_trefoil):
        r = splice_report(trefoil, 2, mirror_trefoil, -2)
        assert (r.t1, r.t2) == (0, 0)
        assert r.knot1.tau == 1 and r.knot2.tau == -1
        d = r.to_dict()
        assert d["schema"] == 1
        assert d["computed"] == [r.computed.rank0, r.computed.rank1]
        assert isinstance(r.to_json(), str)

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


class TestIncompatibleBases:
    def test_incompatible_reduction_refused(self):
        """A presentation whose reductions give filtration-incompatible bases
        is refused rather than run through a construction that presumes
        compatibility (which can mislead the predictor)."""
        from floersplice.cfk import staircase, simplify
        from test_cfk import filtered_change

        for base, moves in [
            ([2, 1, 1, 2], [(2, 4, 1), (4, 3, 0), (0, 2, 1), (4, 3, 1), (3, 2, 0)]),
            ([1, 1, 1, 1], [(3, 1, 0), (0, 3, 1)]),
        ]:
            c = filtered_change(staircase(base, "+"), moves)
            assert not simplify(c).bases_compatible
            with pytest.raises(ValueError, match="not filtration compatible"):
                splice_report(c, -1, c, 2)


class TestSurvey:
    def test_small_survey(self, trefoil):
        reports = survey(trefoil, (1, 3), trefoil, (1, 3))
        assert len(reports) == 9
        summary = survey_summary(reports)
        assert summary["rows"] == 9
        assert summary["agreements"] == 9
        assert summary["lspaces"] == sum(1 for r in reports if r.verdict)

    def test_rows_are_independent(self, trefoil):
        one = splice_report(trefoil, 2, trefoil, 3)
        many = survey(trefoil, (2, 2), trefoil, (3, 3))
        assert many[0].to_dict() == one.to_dict()
