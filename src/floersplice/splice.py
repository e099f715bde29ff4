"""End-to-end splice computations, the structural predictor, and surveys.

splice_report runs the full pipeline for a pair of framed complexes: both
complexes are simplified, the type D modules of the framed complements are
built and graded, the left side is converted to its type A module, the box
tensor is taken, and the graded homology decides the L-space question.
The result is compared against the closed-form predictor, an exact
rational-arithmetic consistency check, and (when available) the durable
generator shortcut.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import REEB_LABELS
from .boxtensor import box_tensor
from .cfk import KnotComplex, simplify, validate_complex
from .homology import GradedRanks, graded_homology, lspace_verdict
from .typea import derive_cfa
from .typed import build_cfd, find_durable_pairs, solve_gradings, validate_type_d, walk_paths

OUT_OF_SCOPE = "out-of-scope"


class InvariantViolation(RuntimeError):
    """An internal structural guarantee failed (exit code 2 in the CLI)."""


def predict_lspace(tau1: int, lsf1: bool, n1: int, tau2: int, lsf2: bool, n2: int):
    """Closed-form L-space prediction for a splice of framed complements.

    Returns True/False, or the out-of-scope marker when either side is a
    trivial knot (L-space form with tau = 0), for which the splice is a
    Dehn filling rather than a genuine splice.
    """
    if (lsf1 and tau1 == 0) or (lsf2 and tau2 == 0):
        return OUT_OF_SCOPE
    if not (lsf1 and lsf2):
        return False
    for tau, n_ in ((tau1, n1), (tau2, n2)):
        if tau > 0 and n_ < 2 * tau:
            return False
        if tau < 0 and n_ > 2 * tau:
            return False
    if tau1 * tau2 > 0 and n1 == 2 * tau1 and n2 == 2 * tau2:
        return False
    return True


def conjecture_check(tau1: int, n1: int, n2: int, tau2: int) -> dict:
    """Exact rational reformulation of the splice conditions.

    With t = 2*tau1 - 1 (tau1 > 0) or 2*tau1 + 1 (tau1 < 0), the splice
    gluing identifies the two slopes p/q = n2 and r/s = n2 + 1/(t - n1).
    Assuming both sides are L-space knot complexes, the verdict is the
    conjunction of the slope inequality for tau1's sign with both slopes
    lying in the open interval determined by tau2.  t = n1 is degenerate.
    """
    if tau1 == 0:
        raise ValueError("slope reformulation requires tau1 != 0")
    t = 2 * tau1 - 1 if tau1 > 0 else 2 * tau1 + 1
    p_over_q = Fraction(n2)
    if t == n1:
        return {"p_over_q": p_over_q, "r_over_s": None, "degenerate": True, "verdict": None}
    r_over_s = Fraction(n2) + Fraction(1, t - n1)

    if tau1 > 0:
        ok = p_over_q > r_over_s
    else:
        ok = p_over_q < r_over_s
    if tau2 > 0:
        bound = Fraction(2 * tau2 - 1)
        ok = ok and p_over_q > bound and r_over_s > bound
    elif tau2 < 0:
        bound = Fraction(2 * tau2 + 1)
        ok = ok and p_over_q < bound and r_over_s < bound
    return {"p_over_q": p_over_q, "r_over_s": r_over_s, "degenerate": False, "verdict": ok}


@dataclass
class KnotSummary:
    name: str
    tau: int
    genus: int
    lspace_form: bool


@dataclass
class SpliceReport:
    knot1: KnotSummary
    knot2: KnotSummary
    n1: int
    n2: int
    t1: int
    t2: int
    prediction: object          # bool or OUT_OF_SCOPE
    computed: GradedRanks
    verdict: bool
    agree: bool
    durable_fast_path: bool | None

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "knot1": vars(self.knot1),
            "knot2": vars(self.knot2),
            "n1": self.n1,
            "n2": self.n2,
            "t1": self.t1,
            "t2": self.t2,
            "prediction": self.prediction,
            "computed": [self.computed.rank0, self.computed.rank1],
            "euler_abs": self.computed.euler_abs,
            "verdict": self.verdict,
            "agree": self.agree,
            "durable_fast_path": self.durable_fast_path,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _longest_reeb_path(d) -> int:
    """Length of the longest non-identity labeled directed path (d bounded)."""
    paths = walk_paths(d.out_edges(REEB_LABELS), lambda state, label: None, None)
    return max((length for *_, length in paths), default=0)


def _prepare_side(c: KnotComplex, n: int):
    report = validate_complex(c)
    if not report.ok:
        raise ValueError(f"{c.name}: validation failed: {', '.join(report.failures())}")
    s = simplify(c)
    d = build_cfd(s, n)
    dreport = validate_type_d(d)
    if not dreport.ok:
        raise InvariantViolation(f"{c.name}[{n}]: {'; '.join(dreport.problems)}")
    return s, solve_gradings(d)


def splice_pair(c1: KnotComplex, n1: int, c2: KnotComplex, n2: int):
    """Build the chain complex of the splice; returns (s1, d1, s2, d2, box)."""
    s1, d1 = _prepare_side(c1, n1)
    s2, d2 = _prepare_side(c2, n2)
    if d1.is_bounded():
        a1 = derive_cfa(d1)
    else:
        if not d2.is_bounded():
            raise ValueError("both framed complements are unbounded; cannot pair")
        # Only operations whose word can match a path on the bounded side matter.
        a1 = derive_cfa(d1, max_word_length=_longest_reeb_path(d2))
    box = box_tensor(a1, d2)
    if not box.d_squared_is_zero():
        raise InvariantViolation("box tensor differential does not square to zero")
    if not box.boundary_flips_grading():
        raise InvariantViolation("box tensor differential does not flip the grading")
    return s1, d1, s2, d2, box


def splice_report(c1: KnotComplex, n1: int, c2: KnotComplex, n2: int) -> SpliceReport:
    s1, d1, s2, d2, box = splice_pair(c1, n1, c2, n2)
    ranks = graded_homology(box)
    verdict = lspace_verdict(ranks)
    prediction = predict_lspace(s1.tau, s1.lspace_form, n1, s2.tau, s2.lspace_form, n2)
    agree = True if prediction == OUT_OF_SCOPE else (prediction == verdict)

    fast: bool | None = None
    if d1.is_bounded() and d2.is_bounded():
        pairs1 = find_durable_pairs(d1, s1)
        pairs2 = find_durable_pairs(d2, s2)
        if any(p[2] == "durable" for p in pairs1) and pairs2:
            fast = True
            if verdict:
                raise InvariantViolation(
                    "durable-pair shortcut contradicts the computed verdict"
                )

    return SpliceReport(
        knot1=KnotSummary(c1.name, s1.tau, s1.genus, s1.lspace_form),
        knot2=KnotSummary(c2.name, s2.tau, s2.genus, s2.lspace_form),
        n1=n1,
        n2=n2,
        t1=n1 - 2 * s1.tau,
        t2=n2 - 2 * s2.tau,
        prediction=prediction,
        computed=ranks,
        verdict=verdict,
        agree=agree,
        durable_fast_path=fast,
    )


def survey(
    c1: KnotComplex,
    range1: tuple[int, int],
    c2: KnotComplex,
    range2: tuple[int, int],
) -> list[SpliceReport]:
    """One report per framing pair over the inclusive integer ranges."""
    reports = []
    for n1 in range(range1[0], range1[1] + 1):
        for n2 in range(range2[0], range2[1] + 1):
            reports.append(splice_report(c1, n1, c2, n2))
    return reports


def survey_summary(reports: list[SpliceReport]) -> dict:
    agreements = sum(1 for r in reports if r.agree)
    return {
        "rows": len(reports),
        "agreements": agreements,
        "disagreements": len(reports) - agreements,
        "lspaces": sum(1 for r in reports if r.verdict),
    }
