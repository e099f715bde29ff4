"""Record the golden graded ranks of every row any seed can draw.

Run from the repository root, on the commit whose answers are taken as
correct:

    python3 perfbench/record_golden.py

Every row gets the Euler-identity and predictor checks before it is
written; a row that fails them stops the recording.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import floersplice  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    complexes = workloads.build_complexes(floersplice)
    rows = set()
    for name in workloads.WORKLOADS:
        rows |= workloads.all_rows(name)
    ranks = {}
    for row in sorted(rows, key=lambda r: r.key):
        report = floersplice.splice_report(complexes[row.k1], row.n1, complexes[row.k2], row.n2)
        reason = oracle.check_report(row, report, None)
        if reason:
            print(f"{row}: {reason}", file=sys.stderr)
            return 1
        ranks[row.key] = [report.computed.rank0, report.computed.rank1]
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(ranks.items())]
    with open(oracle.GOLDEN, "w") as f:
        f.write(f'{{"commit": {json.dumps(commit)}, "ranks": {{\n')
        f.write(",\n".join(lines))
        f.write("\n}}\n")
    print(f"{len(ranks)} rows recorded at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
