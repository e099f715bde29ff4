"""Seeded workloads of the floersplice benchmark.

A workload is a plan: rows that are timed one `splice_report` call each,
an optional `survey` call, and untimed probe rows.  The seed shuffles the
row order and draws each banded framing from its stratum of the band, so
every seed times nearly the same cost profile.  The library only receives
the complexes built here and the framings drawn here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("cfa_deep", "surgery_capped", "survey_grid", "box_wide")

# Same text as the figure-eight fixture of the test suite.
FIGURE_EIGHT = """\
gen a 1
gen b 0
gen c 0
gen d -1
gen e 0
d a = b
d c = U^1 a + d
d d = U^1 b
"""

STAIRCASE_HALF_LENGTHS = (4, 8, 12, 16)


@dataclass(frozen=True)
class Row:
    """One splice: complex names and framings of both sides."""

    k1: str
    n1: int
    k2: str
    n2: int

    @property
    def key(self) -> str:
        return f"{self.k1}|{self.n1}|{self.k2}|{self.n2}"

    def __str__(self) -> str:
        return f"{self.k1}[{self.n1}] x {self.k2}[{self.n2}]"


@dataclass
class Plan:
    name: str
    seed: int
    complexes: dict
    rows: list[Row]
    # (complex 1, inclusive range 1, complex 2, inclusive range 2) of a survey call
    survey: tuple[str, tuple[int, int], str, tuple[int, int]] | None = None
    probes: list[Row] = field(default_factory=list)

    def pass_order(self, i: int) -> list[int]:
        """Indices of the rows of pass i, in an order drawn from the seed and the pass."""
        return random.Random(f"{self.name}/{self.seed}/{i}").sample(range(len(self.rows)), len(self.rows))

    def survey_rows(self) -> list[Row]:
        """The rows of the survey call, in the order `survey` returns them."""
        if self.survey is None:
            return []
        k1, (a1, b1), k2, (a2, b2) = self.survey
        return [Row(k1, n1, k2, n2) for n1 in range(a1, b1 + 1) for n2 in range(a2, b2 + 1)]


def tensor_product(lib, c1, c2, name: str):
    """Connected-sum complex: the tensor product over F2[U], gradings adding."""
    gens, alex, entries = [], {}, []
    for g in c1.generators:
        for h in c2.generators:
            gh = f"{g}.{h}"
            gens.append(gh)
            alex[gh] = c1.alexander[g] + c2.alexander[h]
    for s, d, k in c1.differential:
        for h in c2.generators:
            entries.append((f"{s}.{h}", f"{d}.{h}", k))
    for s, d, k in c2.differential:
        for g in c1.generators:
            entries.append((f"{g}.{s}", f"{g}.{d}", k))
    return lib.cfk.make_complex(name, gens, alex, entries)


def build_complexes(lib) -> dict:
    """Every input complex of every workload, keyed by name."""
    out = {
        "trefoil": lib.staircase([1, 1], "+", name="trefoil"),
        "mirror_trefoil": lib.staircase([1, 1], "-", name="mirror_trefoil"),
        "unknot": lib.unknot(),
        "figure_eight": lib.parse_complex(FIGURE_EIGHT, name="figure_eight"),
    }
    out["fig8#trefoil"] = tensor_product(lib, out["figure_eight"], out["trefoil"], "fig8#trefoil")
    out["trefoil#trefoil"] = tensor_product(lib, out["trefoil"], out["trefoil"], "trefoil#trefoil")
    for k in STAIRCASE_HALF_LENGTHS:
        name = f"staircase_{2 * k}"
        out[name] = lib.staircase([1] * (2 * k), "+", name=name)
    return out


def _stratified(rng: random.Random):
    """A draw of one framing from each of `count` strata of the band [lo, hi].

    The strata split the band evenly in |n| ** power (power < 0 only for
    bands of one sign).  A negative power puts fewer rows where a row's cost
    grows fastest, so a pass stays short without leaving the band; -1/2 keeps
    the top strata narrow enough that the seed moves the summed cost little.
    """

    def draw(lo: int, hi: int, count: int, power: float = 1.0) -> list[int]:
        sign = -1 if hi < 0 else 1
        a, b = sorted((sign * lo, sign * hi))
        low, high = a**power, (b + 1) ** power
        out = []
        for i in range(count):
            y = rng.uniform(low + (high - low) * i / count, low + (high - low) * (i + 1) / count)
            out.append(sign * min(math.floor(y ** (1 / power)), b))
        return out

    return draw


def _every(lo: int, hi: int, count: int, power: float = 1.0) -> list[int]:
    """Every framing of the band: what all seeds together can draw."""
    return list(range(lo, hi + 1))


def _cfa_deep(draw):
    rows = [Row("trefoil", n, "trefoil", 3) for n in draw(10, 90, 34, power=-0.5)]
    rows += [Row("mirror_trefoil", n, "mirror_trefoil", -3) for n in draw(-90, -10, 34, power=-0.5)]
    rows += [Row("mirror_trefoil", n, "trefoil", 3) for n in draw(-90, -10, 34, power=-0.5)]
    return rows, None, []


# Framings this far out raise RecursionError at the seed commit; they are
# attempted once per run, outside the timed passes.
DEPTH_PROBES = [Row("unknot", 0, "trefoil", 400), Row("unknot", 0, "mirror_trefoil", -400)]


def _surgery_capped(draw):
    rows = [Row("unknot", 0, "trefoil", n) for n in draw(10, 80, 30, power=-0.5)]
    rows += [Row("unknot", 0, "mirror_trefoil", n) for n in draw(-80, -10, 30, power=-0.5)]
    rows += [
        Row(k, n, "unknot", s)
        for k in ("trefoil", "mirror_trefoil")
        for n in range(-10, 11)
        for s in (1, -1)
    ]
    return rows, None, list(DEPTH_PROBES)


SURVEY_GRID = ("trefoil", (-20, 20), "mirror_trefoil", (-20, 20))


def _survey_grid(draw):
    # Latency rows: every n1 of the grid against five n2 drawn across the range.
    rows = [
        Row("trefoil", n1, "mirror_trefoil", n2)
        for n1 in range(-20, 21)
        for n2 in draw(-20, 20, 5)
    ]
    return rows, SURVEY_GRID, []


def _box_wide(draw):
    rows = [
        Row(f"staircase_{2 * k}", 2 * k + 1, f"staircase_{2 * k}", 2 * k + extra)
        for k in STAIRCASE_HALF_LENGTHS
        for extra in (1, 20, 80)
    ]
    rows += [
        Row(k, n1, "trefoil", n2)
        for k in ("figure_eight", "fig8#trefoil", "trefoil#trefoil")
        for n1 in range(-8, 9)
        for n2 in (2, 3)
    ]
    return rows, None, []


_WORKLOAD_ROWS = {
    "cfa_deep": _cfa_deep,
    "surgery_capped": _surgery_capped,
    "survey_grid": _survey_grid,
    "box_wide": _box_wide,
}


def make_plan(name: str, seed: int, complexes: dict) -> Plan:
    rng = random.Random(f"{name}/{seed}")
    rows, grid, probes = _WORKLOAD_ROWS[name](_stratified(rng))
    return Plan(name, seed, complexes, rows, grid, probes)


def all_rows(name: str) -> set[Row]:
    """Every row any seed can draw for the workload, survey rows included."""
    rows, grid, _ = _WORKLOAD_ROWS[name](_every)
    return set(rows) | set(Plan(name, 0, {}, [], grid).survey_rows())
