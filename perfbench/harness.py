"""Timed and traced passes over a workload plan.

One client drives the library from one thread in a closed loop: each
`splice_report` or `survey` call starts after the previous one returned.
A pass runs the plan's survey call (if any) and then every row, in an
order drawn afresh for the pass, and checks every result it timed.
Between calls, at most every `speed.SAMPLE_EVERY_S`, it samples the
reference kernel of `speed.py`, and each call's wall time is scaled by the
samples around it.

Untraced runs repeat passes while another pass fits in the time budget.
A row's time in the run is the median of its scaled calls, one per pass;
the survey's time likewise.  Traced runs make one untraced and one traced
pass over the same plan, so the tracing overhead is measured on identical
work.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import oracle
from speed import Speed
from tracing import Tracer


@dataclass
class PassResult:
    """Reference-scaled call times of one pass."""

    row_seconds: dict[int, float] = field(default_factory=dict)  # row index -> call time, rows that passed
    survey_seconds: float | None = None                           # survey call time, if it passed
    attempted: int = 0
    failures: list[tuple[object, str]] = field(default_factory=list)
    reference_ms: float = 0.0                                     # median raw reference sample


def rows_per_s(plan, row_seconds: dict[int, float], survey_seconds: float | None) -> float:
    """Survey rows over survey time when the plan has a survey, else rows over summed row time."""
    if plan.survey is not None:
        return len(plan.survey_rows()) / survey_seconds if survey_seconds else 0.0
    total = sum(row_seconds.values())
    return len(row_seconds) / total if total else 0.0


def run_pass(plan, golden, order: list[int]) -> PassResult:
    splice = sys.modules["floersplice.splice"]
    cx = plan.complexes
    out = PassResult()
    speed = Speed()
    speed.bracket()
    calls: dict[object, tuple[float, float]] = {}  # row index or "survey" -> (start, wall seconds)
    if plan.survey is not None:
        k1, range1, k2, range2 = plan.survey
        rows = plan.survey_rows()
        out.attempted += len(rows)
        t0 = perf_counter()
        try:
            reports = splice.survey(cx[k1], range1, cx[k2], range2)
        except Exception as exc:  # a failed call is counted, the run goes on
            out.failures.append((rows[0], f"survey raised {exc!r}"))
        else:
            dt = perf_counter() - t0
            speed.bracket()
            failures = oracle.check_survey(rows, reports, splice.survey_summary(reports), golden)
            out.failures += failures
            if not failures:
                calls["survey"] = (t0, dt)
    for i in order:
        row = plan.rows[i]
        out.attempted += 1
        t0 = perf_counter()
        try:
            report = splice.splice_report(cx[row.k1], row.n1, cx[row.k2], row.n2)
        except Exception as exc:  # a failed call is counted, the run goes on
            out.failures.append((row, f"raised {exc!r}"))
            continue
        dt = perf_counter() - t0
        speed.sample_if_due()
        reason = oracle.check_report(row, report, golden)
        if reason:
            out.failures.append((row, reason))
        else:
            calls[i] = (t0, dt)
    speed.bracket()
    scaled = {key: dt * speed.scale_at(t0) for key, (t0, dt) in calls.items()}
    out.survey_seconds = scaled.pop("survey", None)
    out.row_seconds = scaled
    out.reference_ms = 1000 * statistics.median(speed.durations)
    return out


def run_probes(plan) -> list[dict]:
    """Attempt the untimed probe rows once each; report each by name."""
    splice = sys.modules["floersplice.splice"]
    cx = plan.complexes
    results = []
    for row in plan.probes:
        t0 = perf_counter()
        try:
            report = splice.splice_report(cx[row.k1], row.n1, cx[row.k2], row.n2)
        except Exception as exc:  # the known depth defect raises RecursionError
            outcome = f"raised {type(exc).__name__}"
        else:
            outcome = oracle.check_report(row, report, None) or "ok"
        results.append({"row": str(row), "outcome": outcome, "ms": 1000 * (perf_counter() - t0)})
    return results


def harrell_davis(sorted_values: list[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    Unlike a single order statistic it does not jump with the one row that
    happens to sit at rank q, so it moves less with the seed's draws.
    """
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)
    # midpoint rule on each interval [i/n, (i+1)/n]
    return sum(
        value * h * sum(density((i * steps + j + 0.5) * h) for j in range(steps))
        for i, value in enumerate(sorted_values)
    )


def timed_run(plan, golden, seconds: float) -> tuple[dict, dict]:
    """Untraced passes while the next one fits in `seconds`; returns (summary, info)."""
    times: dict[int, list[float]] = {}
    survey_times: list[float] = []
    attempted, failures, reference_ms = 0, [], []
    start = perf_counter()
    last = 0.0
    while not reference_ms or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        result = run_pass(plan, golden, plan.pass_order(len(reference_ms)))
        last = perf_counter() - t0
        attempted += result.attempted
        failures += result.failures
        reference_ms.append(result.reference_ms)
        for i, dt in result.row_seconds.items():
            times.setdefault(i, []).append(dt)
        if result.survey_seconds is not None:
            survey_times.append(result.survey_seconds)
    row_times = {i: statistics.median(ts) for i, ts in times.items()}
    survey_time = statistics.median(survey_times) if survey_times else None
    samples = sorted(row_times.values())
    summary = {
        "attempted": attempted,
        "failures": failures,
        "rows_per_s": rows_per_s(plan, row_times, survey_time),
        "row_p50_ms": 1000 * harrell_davis(samples, 0.5) if samples else 0.0,
        "row_p90_ms": 1000 * harrell_davis(samples, 0.9) if samples else 0.0,
    }
    info = {
        "passes": len(reference_ms),
        "latency_rows": len(samples),
        "elapsed_s": perf_counter() - start,
        "reference_ms": reference_ms,
    }
    return summary, info


def traced_run(plan, golden) -> tuple[dict, dict, Tracer]:
    """One untraced and one traced pass; per-layer metrics come from the traced one."""
    order = plan.pass_order(0)
    plain = run_pass(plan, golden, order)
    with Tracer() as tracer:
        traced = run_pass(plan, golden, order)
    rate_plain = rows_per_s(plan, plain.row_seconds, plain.survey_seconds)
    rate_traced = rows_per_s(plan, traced.row_seconds, traced.survey_seconds)
    rows = len(plan.rows) + len(plan.survey_rows())
    metrics = tracer.per_layer(rows)
    metrics["trace.slowdown"] = rate_plain / rate_traced if rate_traced else 0.0
    metrics["trace.rows"] = rows
    summary = {
        "attempted": plain.attempted + traced.attempted,
        "failures": plain.failures + traced.failures,
        "metrics": metrics,
    }
    info = {
        "rows_per_s_untraced": rate_plain,
        "rows_per_s_traced": rate_traced,
        "reference_ms": [plain.reference_ms, traced.reference_ms],
    }
    return summary, info, tracer
