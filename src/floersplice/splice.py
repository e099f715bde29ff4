"""End-to-end splice computations, the structural predictor, and surveys.

splice_report runs the full pipeline for a pair of framed complexes: both
complexes are simplified, the type D modules of the framed complements are
built and graded, the left side is converted to its type A module, the box
tensor is taken, and the graded homology decides the L-space question.
The result is compared against the closed-form predictor and (when both
sides are bounded) the durable generator shortcut.  conjecture_check, the
exact rational reformulation of the splice conditions, stands apart: no
report calls it; the tests compare it with the predictor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .boxtensor import ChainComplex, box_tensor
from .cfk import KnotComplex, simplify, validate_complex
from .homology import GradedRanks, graded_homology, lspace_verdict
from .typea import TypeAModule, derive_cfa
from .typed import (
    build_cfd,
    durable_candidates,
    find_durable_pairs,
    iter_durable_pairs,
    solve_gradings,
    validate_type_d,
)

OUT_OF_SCOPE = "out-of-scope"


class InvariantViolation(RuntimeError):
    """An internal structural guarantee failed (exit code 2 in the CLI); `stage`
    names the check and `sides` the (complex name, framing) of each side involved."""

    def __init__(self, message: str, stage: str, sides: tuple[tuple[str, int], ...]):
        super().__init__(message)
        self.stage = stage
        self.sides = sides

    def __reduce__(self):  # pickle and copy pass the fields, not only the message
        return type(self), (str(self), self.stage, self.sides)


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


class Prepared:
    """What every framing of a complex shares: its validation, its simplified
    bases `s` (on which build_cfd keeps the stable part of the type D module)
    and, on first use, its durable-pair candidates."""

    def __init__(self, c: KnotComplex):
        report = validate_complex(c)
        if not report.ok:
            raise ValueError(f"{c.name}: validation failed: {', '.join(report.failures())}")
        self.s = simplify(c)

    @cached_property
    def candidates(self) -> list[int]:
        return durable_candidates(self.s)

    @staticmethod
    def of(c: KnotComplex) -> Prepared:
        """c's Prepared, kept in c's instance dict as cached_property keeps a
        value (so equality, repr and pickling ignore it); c cannot change.
        A refusal is not kept: the next call raises it again."""
        kept = vars(c).get("_prepared")
        if kept is None:
            kept = vars(c)["_prepared"] = Prepared(c)
        return kept


class FramedSide:
    """One framed complement, prepared once per splice_report or survey call.

    Holds the complex's Prepared `knot`, its simplified bases `s` and the
    graded type D module `d`, whose unstable chain is built, validated and
    graded per framing over the stable part kept on `s`.  The type D module,
    the durable pairs and the whole type A module depend on the framing and
    are never kept across calls; the last two are computed on first use and
    then kept on the side.
    """

    def __init__(self, c: KnotComplex, n: int):
        self.knot = Prepared.of(c)
        s = self.knot.s
        d = build_cfd(s, n)
        dreport = validate_type_d(d)
        if not dreport.ok:
            raise InvariantViolation(
                f"{c.name}[{n}]: {'; '.join(dreport.problems)}", "validate_type_d", ((c.name, n),)
            )
        self.n, self.s, self.d = n, s, solve_gradings(d)

    def __str__(self) -> str:
        return f"{self.s.complex.name}[{self.n}]"

    def violation(self, other: FramedSide, stage: str, detail: str) -> InvariantViolation:
        """The violation of a check on the splice of this side with other."""
        sides = ((self.s.complex.name, self.n), (other.s.complex.name, other.n))
        return InvariantViolation(f"{self} x {other}: {stage}{detail}", stage, sides)

    @cached_property
    def durable_pairs(self) -> list[tuple[int, int, str]]:
        return find_durable_pairs(self.d, self.s)

    # What the durable-pair shortcut reads of side 1 and of side 2, found at the first hit.
    @cached_property
    def has_durable_pair(self) -> bool:
        return any(p[2] == "durable" for p in iter_durable_pairs(self.d, self.knot.candidates))

    @cached_property
    def has_pair(self) -> bool:
        return any(iter_durable_pairs(self.d, self.knot.candidates))

    @cached_property
    def cfa(self) -> TypeAModule:
        return derive_cfa(self.d)

    def box_with(self, other: FramedSide) -> ChainComplex:
        """Chain complex of the splice: this side's type A module boxed with other's type D.

        The whole type A module pairs when this side already has it (survey
        derives it for a side that meets many framings); otherwise only the
        operations whose word has a nonzero composite map in other are
        derived, which also ends an unbounded side's walk (derive_cfa refuses
        two unbounded sides).  Both routes give the same counted box.
        """
        a = self.cfa if "cfa" in vars(self) else derive_cfa(self.d, against=other.d)
        box = box_tensor(a, other.d)
        if not box.d_squared_is_zero():
            raise self.violation(other, "box tensor differential", " does not square to zero")
        if not box.boundary_flips_grading():
            raise self.violation(other, "box tensor differential", " does not flip the grading")
        return box


def _splice(side1: FramedSide, side2: FramedSide) -> SpliceReport:
    s1, s2, n1, n2 = side1.s, side2.s, side1.n, side2.n
    ranks = graded_homology(side1.box_with(side2))
    if ranks.euler_abs != abs(n1 * n2 - 1):
        raise side1.violation(
            side2,
            "graded homology",
            f": |rank1 - rank0| = {ranks.euler_abs}"
            f" breaks the Euler identity |n1*n2 - 1| = {abs(n1 * n2 - 1)}",
        )
    verdict = lspace_verdict(ranks)
    prediction = predict_lspace(s1.tau, s1.lspace_form, n1, s2.tau, s2.lspace_form, n2)
    agree = True if prediction == OUT_OF_SCOPE else (prediction == verdict)

    bounded = side1.d.bounded and side2.d.bounded
    fast = True if bounded and side1.has_durable_pair and side2.has_pair else None
    if fast and verdict:
        raise side1.violation(
            side2, "durable-pair shortcut", " contradicts the computed verdict"
        )

    return SpliceReport(
        knot1=KnotSummary(s1.complex.name, s1.tau, s1.genus, s1.lspace_form),
        knot2=KnotSummary(s2.complex.name, s2.tau, s2.genus, s2.lspace_form),
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


def splice_report(c1: KnotComplex, n1: int, c2: KnotComplex, n2: int) -> SpliceReport:
    return _splice(FramedSide(c1, n1), FramedSide(c2, n2))


def survey(
    c1: KnotComplex,
    range1: tuple[int, int],
    c2: KnotComplex,
    range2: tuple[int, int],
) -> list[SpliceReport]:
    """One report per framing pair over the inclusive integer ranges.

    Each side is prepared once, on first use in row order, so a failure
    surfaces at the same row as with one splice_report call per row.
    """
    sides2: dict[int, FramedSide] = {}
    reports = []
    for n1 in range(range1[0], range1[1] + 1):
        side1 = None
        for n2 in range(range2[0], range2[1] + 1):
            side1 = side1 or FramedSide(c1, n1)
            if n2 not in sides2:
                sides2[n2] = FramedSide(c2, n2)
            if side1.d.bounded and range2[0] < range2[1]:
                side1.cfa  # side 1 meets every framing of range2: derive it whole, once
            reports.append(_splice(side1, sides2[n2]))
    return reports


def survey_summary(reports: list[SpliceReport]) -> dict:
    agreements = sum(1 for r in reports if r.agree)
    return {
        "rows": len(reports),
        "agreements": agreements,
        "disagreements": len(reports) - agreements,
        "lspaces": sum(1 for r in reports if r.verdict),
    }
