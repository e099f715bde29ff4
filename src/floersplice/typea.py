"""Type A modules derived from type D modules.

Generators correspond one to one with the source module's (bar notation is
implicit: the id is reused).  Every directed path of coefficient maps
contributes one multiplication operation whose input word is the
swap-and-merge of the path's labels; identity-labeled steps contribute no
letters, and a path of identity labels alone yields a differential (an
operation with empty word).  Operations cancel in pairs over F2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import REEB_IDEMPOTENTS, is_merged, swap_and_merge, word_grading
from .typed import TypeDModule, solve_gradings, walk_paths


@dataclass(frozen=True)
class AGen:
    id: str
    idempotent: int
    grading: int


@dataclass
class TypeAModule:
    generators: list[AGen]
    operations: frozenset[tuple[int, tuple[str, ...], int]]  # (input, word, output)
    max_word_length: int
    bounded: bool = True
    _by_word: dict[tuple[str, ...], list[tuple[int, int]]] = field(default=None, repr=False)

    def ops_by_word(self) -> dict[tuple[str, ...], list[tuple[int, int]]]:
        if self._by_word is None:
            table: dict[tuple[str, ...], list[tuple[int, int]]] = {}
            for src, word, dst in sorted(self.operations):
                table.setdefault(word, []).append((src, dst))
            object.__setattr__(self, "_by_word", table)
        return self._by_word

    def index_of(self, gen_id: str) -> int:
        for i, g in enumerate(self.generators):
            if g.id == gen_id:
                return i
        raise KeyError(gen_id)


def derive_cfa(m: TypeDModule, max_word_length: int | None = None) -> TypeAModule:
    """Enumerate coefficient-map paths and emit merged-word operations.

    The source module must be bounded (acyclic) unless max_word_length is
    given, in which case only operations whose word has at most that many
    letters are kept and the result is marked unbounded.  Such a word comes
    from a path of at most 3k+2 edges: each non-identity label adds at least
    one of the word's at most 3k digits, and a built module has at most one
    identity edge, on no cycle.  Source gradings are solved if absent; the
    derived module flips the grading of every iota_0 generator.
    """
    bounded = m.is_bounded()
    if not bounded and max_word_length is None:
        raise ValueError("type D module is unbounded; a word-length cap is required")
    if m.gradings is None:
        m = solve_gradings(m)

    gens = [
        AGen(g.id, g.idempotent, (m.gradings[i] + (1 if g.idempotent == 0 else 0)) % 2)
        for i, g in enumerate(m.generators)
    ]

    k = max_word_length
    parity: dict[tuple[int, tuple[str, ...], int], int] = {}
    paths = walk_paths(
        m.out_edges(),
        lambda word, label: swap_and_merge((label,), word),
        (),
        None if k is None else 3 * k + 2,
    )
    for start, end, word, _ in paths:
        if k is None or len(word) <= k:
            key = (start, word, end)
            parity[key] = parity.get(key, 0) ^ 1

    ops = frozenset(key for key, p in parity.items() if p)
    max_len = max((len(w) for _, w, _ in ops), default=0)
    return TypeAModule(gens, ops, max_len, bounded=bounded)


@dataclass
class TypeAReport:
    idempotents_ok: bool
    merged_ok: bool
    grading_ok: bool
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.idempotents_ok and self.merged_ok and self.grading_ok


def validate_cfa(a: TypeAModule) -> TypeAReport:
    """Check idempotent compatibility, mergedness, and the grading law.

    For an operation with input word of length k the output grading must be
    gr(input) + sum of letter gradings + k + 1 mod 2; an empty word encodes
    a differential, which flips the grading.
    """
    idem_ok = merged_ok = grading_ok = True
    problems = []
    for src, word, dst in sorted(a.operations):
        gs, gd = a.generators[src], a.generators[dst]
        if word:
            left = REEB_IDEMPOTENTS[word[0]][0]
            right = REEB_IDEMPOTENTS[word[-1]][1]
            ok = gs.idempotent == left and gd.idempotent == right
            for w1, w2 in zip(word, word[1:]):
                if REEB_IDEMPOTENTS[w1][1] != REEB_IDEMPOTENTS[w2][0]:
                    ok = False
            if not ok:
                idem_ok = False
                problems.append(f"idempotent mismatch in op {gs.id},{word}")
            if not is_merged(word):
                merged_ok = False
                problems.append(f"unmerged word {word} at {gs.id}")
        else:
            if gs.idempotent != gd.idempotent:
                idem_ok = False
                problems.append(f"differential {gs.id} -> {gd.id} mixes idempotents")
        want = (gs.grading + word_grading(word) + len(word) + 1) % 2
        if gd.grading != want:
            grading_ok = False
            problems.append(f"grading law fails on op {gs.id},{word} -> {gd.id}")
    return TypeAReport(idem_ok, merged_ok, grading_ok, problems)


def ops_text(a: TypeAModule) -> str:
    """Stable text dump: one `m{k+1}(<gen>, <letters>) = <gen>` line per op."""
    lines = []
    for src, word, dst in a.operations:
        letters = " ".join(f"rho{w}" for w in word)
        inner = f"{a.generators[src].id}, {letters}" if word else a.generators[src].id
        lines.append(f"m{len(word) + 1}({inner}) = {a.generators[dst].id}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")
