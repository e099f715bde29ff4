"""Every field of the simplified bases, against a recorded snapshot.

tests/data/simplified_bases.json holds, for each complex below, every
SimplifiedBases field except `complex`, or the message simplify refuses it
with.  Regenerate it (only when a change of the bases is intended) with

    PYTHONPATH=src:tests python tests/test_simplified_bases.py
"""

import dataclasses
import json
from pathlib import Path

from floersplice.cfk import make_complex, parse_complex, simplify, staircase
from test_splice import benchmark_complexes

DATA = Path(__file__).parent / "data"
SNAPSHOT = DATA / "simplified_bases.json"


def snapshot_complexes() -> dict:
    """The fixtures, two refused complexes, the benchmark complexes and
    staircases of 2, 4, ..., 128 unit steps of both signs, by key."""
    out = {f"data/{p.stem}": parse_complex(p.read_text(), name=p.stem) for p in sorted(DATA.glob("*.cfk"))}
    # Both pass validate_complex; the vertical, then the horizontal reduction
    # leaves other than one generator unpaired.
    out["two"] = make_complex("two", ["x", "y"], {"x": 0, "y": 1}, [])
    out["unsimplifiable"] = make_complex("h", ["a", "b", "c"], {"a": 0, "b": 1, "c": 1}, [("b", "a", 0)])
    out.update((f"benchmark/{name}", c) for name, c in benchmark_complexes().items())
    for g in (1, 2, 3, 5, 8, 16, 64):
        for sign in "+-":
            out[f"staircase({sign};1x{2 * g})"] = staircase([1] * (2 * g), sign)
    return out


def bases_record(c) -> dict:
    try:
        s = simplify(c)
    except ValueError as e:
        return {"refused": str(e)}
    fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(s) if f.name != "complex"}
    return json.loads(json.dumps(fields))  # tuples read back as lists


def test_simplified_bases_match_snapshot():
    recorded = json.loads(SNAPSHOT.read_text())
    complexes = snapshot_complexes()
    assert sorted(recorded) == sorted(complexes)
    for key, c in complexes.items():
        assert bases_record(c) == recorded[key], key


if __name__ == "__main__":
    lines = [f"{json.dumps(key)}: {json.dumps(bases_record(c), sort_keys=True)}"
             for key, c in sorted(snapshot_complexes().items())]
    SNAPSHOT.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one complex a line
