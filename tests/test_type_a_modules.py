"""Every derived type A module's operations, gradings and tally, against a
recorded snapshot.

tests/data/type_a_modules.json holds, for each framed side below, the
`ops_lines`, the `gradings` and the `tally` (as sorted [idempotent,
grading, count] rows) of its type A module: the whole module where the
side is bounded, and the module pruned against trefoil[3] otherwise.
Regenerate it (only when a change of the modules is intended) with

    PYTHONPATH=src:tests python tests/test_type_a_modules.py
"""

import json
from pathlib import Path

from floersplice.cfk import parse_complex, simplify
from floersplice.typea import derive_cfa, ops_lines
from floersplice.typed import build_cfd
from test_splice import benchmark_complexes

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "type_a_modules.json"


def snapshot_sides() -> dict:
    """(complex, framing) by key: the fixtures at -7..9 and the benchmark
    complexes at -5, 0 and 5."""
    out = {}
    for p in sorted(DATA.glob("*.cfk")):
        c = parse_complex(p.read_text(), name=p.stem)
        out.update((f"data/{p.stem}[{n}]", (c, n)) for n in range(-7, 10))
    for name, c in benchmark_complexes().items():
        out.update((f"benchmark/{name}[{n}]", (c, n)) for n in (-5, 0, 5))
    return out


def module_record(c, n, partner) -> dict:
    d = build_cfd(simplify(c), n)
    a = derive_cfa(d) if d.bounded else derive_cfa(d, against=partner)
    tally = sorted([idem, gr, count] for (idem, gr), count in a.tally.items())
    return {"ops_lines": ops_lines(a), "gradings": a.gradings, "tally": tally}


def _partner():
    return build_cfd(simplify(parse_complex((DATA / "trefoil.cfk").read_text(), name="trefoil")), 3)


def test_type_a_modules_match_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    sides, partner = snapshot_sides(), _partner()
    assert sorted(recorded) == sorted(sides)
    for key, (c, n) in sides.items():
        assert module_record(c, n, partner) == recorded[key], key


if __name__ == "__main__":
    partner = _partner()
    lines = [f"{json.dumps(key)}: {json.dumps(module_record(c, n, partner), sort_keys=True)}"
             for key, (c, n) in sorted(snapshot_sides().items())]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one side a line
