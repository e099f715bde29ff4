"""Correctness oracle for every row the benchmark times.

A row fails when its call raised, when the Euler identity
|rank1 - rank0| = |n1*n2 - 1| does not hold, when the predictor disagrees
on an in-scope row, or when its graded ranks differ from the golden table
recorded by `record_golden.py` at the seed commit.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")


def load_golden(path: Path = GOLDEN) -> dict[str, tuple[int, int]]:
    with open(path) as f:
        return {key: tuple(ranks) for key, ranks in json.load(f)["ranks"].items()}


def check_report(row, report, golden: dict | None) -> str | None:
    """Why the report is wrong for the row, or None when it checks out.

    With golden=None the golden-table comparison is skipped (probe rows lie
    outside the table).
    """
    names = (report.knot1.name, report.n1, report.knot2.name, report.n2)
    if names != (row.k1, row.n1, row.k2, row.n2):
        return f"report is for {names}"
    ranks = (report.computed.rank0, report.computed.rank1)
    if abs(ranks[1] - ranks[0]) != abs(row.n1 * row.n2 - 1):
        return f"Euler identity fails: ranks {ranks}"
    if not report.agree:
        return f"predictor {report.prediction} disagrees with verdict {report.verdict}"
    if golden is not None:
        want = golden.get(row.key)
        if want is None:
            return "row is missing from the golden table"
        if ranks != want:
            return f"ranks {ranks} differ from golden {want}"
    return None


def check_survey(rows, reports, summary: dict, golden: dict) -> list[tuple[object, str]]:
    """Failures of a survey call: per row, plus a nonzero disagreement count."""
    if len(reports) != len(rows):
        return [(rows[0], f"survey returned {len(reports)} reports for {len(rows)} rows")]
    failures = []
    for row, report in zip(rows, reports):
        reason = check_report(row, report, golden)
        if reason:
            failures.append((row, reason))
    if summary["disagreements"] or summary["rows"] != len(rows):
        failures.append((rows[0], f"survey_summary reports {summary}"))
    return failures
