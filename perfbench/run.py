"""floersplice benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload cfa_deep --seed 1 --seconds 20 --trace 0

The library is imported from `src/` of the checkout.  Earlier lines of
standard output describe the run; the last line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones,
and the spans of the traced pass are written under `.perfbench_out/`.
The run exits with code 2 and prints no result when the library cannot
be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import harness
import oracle
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 25
FAILURES_SHOWN = 10


def fresh_import():
    """Import floersplice anew, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "floersplice" or m.startswith("floersplice.")]:
        del sys.modules[name]
    return importlib.import_module("floersplice")


def setup(workload: str, seed: int):
    """Import the library, build every input complex and generate the plan."""
    lib = fresh_import()
    return workloads.make_plan(workload, seed, workloads.build_complexes(lib))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "floersplice" / "__init__.py").is_file():
        print(f"perfbench: no floersplice package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    golden = oracle.load_golden()
    speed.warm_up()
    setup_speed = speed.Speed()
    setup_speed.bracket()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        plan = setup(args.workload, args.seed)
        setups.append((t0, perf_counter() - t0))
        setup_speed.sample_if_due()
    setup_speed.bracket()
    setup_seconds = [dt * setup_speed.scale_at(t0) for t0, dt in setups]
    if not Path(sys.modules["floersplice"].__file__).resolve().is_relative_to(src):
        print("perfbench: floersplice was not imported from src/", file=sys.stderr)
        return 2

    if args.trace:
        summary, info, tracer = harness.traced_run(plan, golden)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        info["spans"] = len(tracer.spans)
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        summary, info = harness.timed_run(plan, golden, args.seconds)

    probes = harness.run_probes(plan)
    failures = summary["failures"]
    if args.trace:
        metrics = summary["metrics"]
        metrics["splice.depth_probe_failed"] = sum(p["outcome"] != "ok" for p in probes)
    else:
        metrics = {
            "rows_per_s": summary["rows_per_s"],
            "row_p50_ms": summary["row_p50_ms"],
            "row_p90_ms": summary["row_p90_ms"],
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = {m["name"]: m["unit"] for m in _declared_metrics("per_layer" if args.trace else "end_to_end")}

    info.update(workload=args.workload, seed=args.seed, rows_per_pass=len(plan.rows) + len(plan.survey_rows()))
    print(json.dumps({"info": info}))
    for probe in probes:
        print(json.dumps({"probe": probe}))
    for row, reason in failures[:FAILURES_SHOWN]:
        print(json.dumps({"failure": {"row": str(row), "reason": reason}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": summary["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


def _declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[kind]


if __name__ == "__main__":
    sys.exit(main())
