"""Spans and counters around the library's public functions.

`Tracer` wraps, from outside the package, the names that
`floersplice.splice` imported (one span per call), the guard methods of
`ChainComplex`, and the counted entry points of `typea`, `typed` and
`gf2`.  A span records its name, start, end, parent span and row id; the
spans stay in memory until `write` stores them.  `install` patches and
`remove` restores the originals, so a traced pass leaves the library as it
found it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# Spans: (module, attribute, span name).  The stage functions are wrapped in
# the namespace of `floersplice.splice`, which is where the pipeline calls them.
SPANNED = [
    ("floersplice.splice", "splice_report", "splice.splice_report"),
    ("floersplice.splice", "survey", "splice.survey"),
    ("floersplice.splice", "validate_complex", "cfk.validate_complex"),
    ("floersplice.splice", "simplify", "cfk.simplify"),
    ("floersplice.splice", "build_cfd", "typed.build_cfd"),
    ("floersplice.splice", "solve_gradings", "typed.solve_gradings"),
    ("floersplice.splice", "validate_type_d", "typed.validate_type_d"),
    ("floersplice.splice", "find_durable_pairs", "typed.find_durable_pairs"),
    ("floersplice.splice", "derive_cfa", "typea.derive_cfa"),
    ("floersplice.splice", "box_tensor", "boxtensor.box_tensor"),
    ("floersplice.splice", "graded_homology", "homology.graded_homology"),
    ("floersplice.splice", "lspace_verdict", "homology.lspace_verdict"),
]
GUARDS = ("d_squared_is_zero", "boundary_flips_grading")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index, row id]
        self.counts: Counter = Counter()
        self.sides: set[tuple[str, int]] = set()
        self.row: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, after=None, new_row: bool = False):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if new_row:
                self.row = self.counts["rows"]
                self.counts["rows"] += 1
            record = [name, perf_counter(), None, stack[-1] if stack else None, self.row]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _after_build_cfd(self, args, d) -> None:
        s, n = args[0], args[1]
        self.sides.add((s.complex.name, n))
        self.counts["side_preparations"] += 1
        self.counts["d_gens"] += len(d.generators)
        self.counts["d_edges"] += len(d.edges)

    def _after_derive_cfa(self, args, a) -> None:
        self.counts["cfa_modules"] += 1
        self.counts["ops"] += len(a.operations)
        self.counts["max_word"] += a.max_word_length

    def _after_box_tensor(self, args, box) -> None:
        self.counts["box_dim"] += len(box.labels)
        self.counts["box_nnz"] += sum(col.bit_count() for col in box.boundary)

    def _after_find_durable_pairs(self, args, pairs) -> None:
        self.counts["durable_pairs"] += len(pairs)

    def _counted(self, key: str, fn, size=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if size is not None:
                counts[size] += len(args[0])
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> Tracer:
        mods = sys.modules
        after = {
            "build_cfd": self._after_build_cfd,
            "derive_cfa": self._after_derive_cfa,
            "box_tensor": self._after_box_tensor,
            "find_durable_pairs": self._after_find_durable_pairs,
        }
        for module, attr, name in SPANNED:
            owner = mods[module]
            fn = getattr(owner, attr)
            self._patch(owner, attr, self._span(name, fn, after.get(attr), attr == "splice_report"))
        chain = mods["floersplice.boxtensor"].ChainComplex
        for attr in GUARDS:
            self._patch(chain, attr, self._span(f"boxtensor.{attr}", getattr(chain, attr)))
        typea, typed, gf2 = (mods[f"floersplice.{m}"] for m in ("typea", "typed", "gf2"))
        self._patch(typea, "swap_and_merge", self._counted("paths", typea.swap_and_merge, "labels_in"))
        self._patch(typed, "durability", self._counted("durability_calls", typed.durability))
        self._patch(typed.TypeDModule, "matrix", self._counted("matrix_builds", typed.TypeDModule.matrix))
        self._patch(gf2, "apply_columns", self._counted("apply_columns_calls", gf2.apply_columns))
        self._patch(gf2, "rank", self._counted("rank_calls", gf2.rank))
        return self

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ----------------------------------------------------------------

    def busy_and_self(self) -> tuple[Counter, Counter]:
        """Seconds per span name: total duration, and duration minus child coverage."""
        busy, child = Counter(), Counter()
        durations = [end - start for _, start, end, _, _ in self.spans]
        for (name, _, _, parent, _), dur in zip(self.spans, durations):
            busy[name] += dur
            if parent is not None:
                child[parent] += dur
        own = Counter()
        for i, (name, *_rest) in enumerate(self.spans):
            own[name] += durations[i] - child[i]
        return busy, own

    def per_layer(self, rows: int) -> dict[str, float]:
        """Per-layer metrics; sizes, counts and times are per row."""
        c = self.counts
        busy, own = self.busy_and_self()

        def ms(*names: str) -> float:
            return 1000 * sum(busy[n] for n in names) / rows

        return {
            "typea.derive_ms": ms("typea.derive_cfa"),
            "typea.paths": c["paths"] / rows,
            "algebra.labels_in": c["labels_in"] / rows,
            "typea.ops": c["ops"] / rows,
            "typea.max_word": c["max_word"] / max(c["cfa_modules"], 1),
            "typea.useful_ratio": c["ops"] / max(c["paths"], 1),
            "typed.build_ms": ms("typed.build_cfd", "typed.solve_gradings", "typed.validate_type_d"),
            "typed.durable_ms": ms("typed.find_durable_pairs"),
            "typed.matrix_builds": c["matrix_builds"] / rows,
            "typed.durability_calls": c["durability_calls"] / rows,
            "typed.durable_hit_ratio": c["durable_pairs"] / max(c["durability_calls"], 1),
            "typed.d_gens": c["d_gens"] / rows,
            "typed.d_edges": c["d_edges"] / rows,
            "cfk.busy_ms": ms("cfk.validate_complex", "cfk.simplify"),
            "cfk.simplify_calls": sum(1 for s in self.spans if s[0] == "cfk.simplify") / rows,
            "splice.side_reuse_ratio": len(self.sides) / max(c["side_preparations"], 1),
            "splice.self_ms": 1000 * own["splice.splice_report"] / rows,
            "boxtensor.box_ms": ms("boxtensor.box_tensor"),
            "boxtensor.guard_ms": ms(*(f"boxtensor.{g}" for g in GUARDS)),
            "boxtensor.dim": c["box_dim"] / rows,
            "boxtensor.nnz": c["box_nnz"] / rows,
            "homology.rank_ms": ms("homology.graded_homology"),
            "gf2.apply_columns_calls": c["apply_columns_calls"] / rows,
            "gf2.rank_calls": c["rank_calls"] / rows,
        }

    def write(self, path) -> None:
        """Store the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, row in self.spans:
                f.write(json.dumps([name, start - t0, end - t0, parent, row]) + "\n")
