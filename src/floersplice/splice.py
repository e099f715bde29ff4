"""End-to-end splice computations, the structural predictor, and surveys.

splice_report runs the full pipeline for a pair of framed complexes: both
complexes are validated and simplified (once per complex object, by
prepare), the type D modules of the framed complements are built and
graded, the side with fewer generators is converted to its type A module
(either side's gives the same homology), the box tensor is taken, and the
graded homology decides the L-space question.  _splice alone decides which
type A module pairs: that pruned one, or the whole module of side 1 that
survey derives once for a row range.
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

from .boxtensor import box_tensor
from .cfk import KnotComplex, SimplifiedBases, simplify, validate_complex
from .homology import GradedRanks, graded_homology, lspace_verdict
from .typea import TypeAModule, derive_cfa
from .typed import (
    build_cfd,
    durable_fact,
    find_durable_pairs,
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


def prepare(c: KnotComplex) -> SimplifiedBases:
    """c's validated, simplified bases, kept in c's instance dict as
    cached_property keeps a value (so equality, repr and pickling ignore
    it); c cannot change.  A refusal is not kept: the next call raises it
    again.  The bases keep what every framing of c shares: build_cfd's
    stable part, derive_cfa's walk of it, the durable candidates and the
    durable shortcut's answers, one per fact and chain class."""
    s = vars(c).get("_bases")
    if s is None:
        report = validate_complex(c)
        if not report.ok:
            raise ValueError(f"{c.name}: validation failed: {', '.join(report.failures())}")
        s = vars(c)["_bases"] = simplify(c)
    return s


def _require_int(n, what: str) -> None:
    """ValueError naming `what` unless n is an int (a bool is not)."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} {n!r} is not an int")


class FramedSide:
    """One framed complement, prepared once per splice_report or survey call.

    Holds the complex's simplified bases `s` and the graded type D module
    `d`, built, validated and graded per framing over the stable part kept
    on `s`; a long unstable chain is held as a run, so a side costs its
    stable part and the chain's ends, not its framing.  The type D module
    and the durable pairs depend on the framing and are never kept across
    calls; the pairs are listed on first use and then kept on the side.
    The shortcut's two facts are the same for every framing of one chain
    class, so they are kept on `s` (typed.durable_fact).
    """

    def __init__(self, c: KnotComplex, n: int):
        _require_int(n, f"{c.name}: framing")
        s = prepare(c)
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

    # What the durable-pair shortcut reads of side 1 and of side 2, kept per chain class.
    @property
    def has_durable_pair(self) -> bool:
        return durable_fact(self.d, self.s, self.n - 2 * self.s.tau, True)

    @property
    def has_pair(self) -> bool:
        return durable_fact(self.d, self.s, self.n - 2 * self.s.tau, False)


def _splice(side1: FramedSide, side2: FramedSide, whole: TypeAModule | None = None) -> SpliceReport:
    """The report of side1 x side2, pairing side 1's whole type A module if given.

    Otherwise the side with fewer generators (its walk starts a path at every
    chain generator) derives only the operations its partner can pair, which
    also ends an unbounded side's walk; either box has the splice's homology.
    """
    s1, s2, n1, n2 = side1.s, side2.s, side1.n, side2.n
    if whole is not None:
        box = box_tensor(whole, side2.d)
    else:
        small, other = side1, side2
        if len(side1.d.generators) > len(side2.d.generators):
            small, other = side2, side1
        box = box_tensor(derive_cfa(small.d, against=other.d), other.d)
    if not box.d_squared_is_zero():
        raise side1.violation(side2, "box tensor differential", " does not square to zero")
    if not box.boundary_flips_grading():
        raise side1.violation(side2, "box tensor differential", " does not flip the grading")
    ranks = graded_homology(box)
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
    A range that is not a tuple or list of two int ends, or is empty (its
    first end past its last), is refused before any row.
    """
    for r in (range1, range2):
        if not isinstance(r, (tuple, list)) or len(r) != 2:
            raise ValueError(f"survey range {r!r} is not two ends")
        for end in r:
            _require_int(end, f"survey range {r!r}: end")
        if r[0] > r[1]:
            raise ValueError(f"survey range {r!r} is empty")
    sides2: dict[int, FramedSide] = {}
    reports = []
    for n1 in range(range1[0], range1[1] + 1):
        side1 = whole = None
        for n2 in range(range2[0], range2[1] + 1):
            side1 = side1 or FramedSide(c1, n1)
            if n2 not in sides2:
                sides2[n2] = FramedSide(c2, n2)
            # A bounded side 1 that meets several framings is derived whole,
            # once per row range: pruning it per row instead took an in-process
            # 41x41 trefoil x mirror survey from 92 to 151 ms (median of 9
            # calls, one Intel Xeon core, Python 3.11).
            if whole is None and side1.d.bounded and range2[0] < range2[1]:
                whole = derive_cfa(side1.d)
            reports.append(_splice(side1, sides2[n2], whole))
    return reports


def survey_summary(reports: list[SpliceReport]) -> dict:
    agreements = sum(1 for r in reports if r.agree)
    return {
        "rows": len(reports),
        "agreements": agreements,
        "disagreements": len(reports) - agreements,
        "lspaces": sum(1 for r in reports if r.verdict),
    }
