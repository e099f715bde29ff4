"""Type A modules derived from type D modules.

A type A module holds its type D source and adds only its operations: it
has the source's generators (bar notation is implicit: the id is reused)
and gradings, each iota_0 one flipped.  Every directed path of coefficient
maps contributes one multiplication operation whose input word is the
swap-and-merge of the path's labels; identity-labeled steps contribute no
letters, and a path of identity labels alone yields a differential (an
operation with empty word).  Operations cancel in pairs over F2.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import REEB_IDEMPOTENTS, is_merged, swap_and_merge, word_grading
from .cfk import ValidationReport
from .typed import TypeDModule, then, walk_paths


@dataclass(frozen=True)
class TypeAModule:
    """The operations derived from source, a type D module whose generators
    and idempotents are this module's, and whose gradings it flips at iota_0."""

    source: TypeDModule
    operations: frozenset[tuple[int, tuple[str, ...], int]]  # (input, word, output)
    # the type D module derive_cfa pruned against; None for a whole module
    against: TypeDModule | None = field(default=None, repr=False, compare=False)
    # word -> (input, output) pairs of its operations, and the longest word,
    # built once from operations
    by_word: dict[tuple[str, ...], list[tuple[int, int]]] = field(init=False, repr=False, compare=False)
    max_word_length: int = field(init=False, compare=False)

    def __post_init__(self):
        by_word: dict[tuple[str, ...], list[tuple[int, int]]] = {}
        for src, word, dst in sorted(self.operations):
            by_word.setdefault(word, []).append((src, dst))
        object.__setattr__(self, "by_word", by_word)
        object.__setattr__(self, "max_word_length", max(map(len, by_word), default=0))

    @cached_property
    def gradings(self) -> list[int]:
        """generator -> its grading, source's with each iota_0 one flipped."""
        return [gr ^ i ^ 1 for gr, i in zip(self.source.gradings, self.source.idempotents)]

    @cached_property
    def tally(self) -> Counter:
        """(idempotent, grading) -> number of generators: source's tally, flipped as gradings is."""
        return Counter({(i, gr ^ i ^ 1): n for (i, gr), n in self.source.tally.items()})


def derive_cfa(m: TypeDModule, against: TypeDModule | None = None) -> TypeAModule:
    """Enumerate coefficient-map paths and emit merged-word operations.

    The derived module holds m as its source: it has m's generators and
    flips the grading of every iota_0 one.

    With against, the type D module the result will be paired with, only
    the operations whose word has a nonzero composite map in against are
    kept, and a path is cut once its word minus the last letter has none:
    extending a path merges at most that last letter, so every later map
    has this one as a factor.  The result keeps against, and box_tensor
    refuses to pair it with any other module.

    The walk ends when m is bounded (acyclic) or when against is; an
    unbounded m without a bounded against is refused, and so is an m whose
    identity-labeled edges close a cycle.  A nonzero map of a j-letter word
    needs a j-edge Reeb path in against, so with L the longest Reeb path of
    a bounded against, every path kept or extended has a word of at most
    L + 1 letters.  Those hold at most 3(L + 1) digits and each
    non-identity label adds at least one, so a path has boundedly many
    non-identity edges; between two of them it runs along identity edges
    only, which close no cycle.

    Whole or pruned, the module comes from one walk.  The paths of m's
    stable part are walked once per stable part and kept on it (see
    _stable_walk); a call keeps those whose word against pairs and walks
    only the paths that take a chain edge: those that start on the chain,
    and those that leave a stable generator u by one, after a kept path
    into u or none.

    A path's word is a node of a trie kept for the length of one call:
    node 0 is the empty word, and every other node is its parent's word
    followed by one letter, with its map in against, the parent's map
    followed by that letter's (typed.then).  A step along a label merges it
    onto the word's last letter alone, the only one merging can touch, and
    extends the parent node by the result.  Steps are kept per node and
    label, so each distinct word is stepped and mapped once however many
    paths spell it, and a step costs the same at any word length: no word
    is built, sliced or hashed.  The stable walk's words are interned once
    each; the kept operations' words are spelled at the end, and their maps
    put in against.composites, where box_tensor reads them.  Nothing else
    outlives the call.
    """
    if not m.bounded:
        if against is None:
            raise ValueError("type D module is unbounded; only a bounded partner ends its walk")
        if not against.bounded:
            raise ValueError("both framed complements are unbounded; cannot pair")
        if not m.identity_acyclic:
            raise ValueError("identity-labeled maps close a cycle; the walk would not end")

    m.gradings  # a module whose gradings do not solve is refused before the walk

    # node -> (its parent, its last letter as a 1-tuple, its map in against,
    # truthy iff nonzero: True for every node without against); node 0, the
    # empty word, has no letter and the identity's map, nonzero iff against
    # has generators
    nodes = [(0, (), against is None or bool(against.generators))]
    child: dict[tuple[int, str], int] = {}  # (node, letter) -> the node of node's word and letter
    steps: dict[tuple[int, str], int | None] = {}  # (node, label) -> the merged word's node, or None for a cut
    cache = None if against is None else against.composites  # the single-label maps, and the kept words'

    def grow(node, x):
        """The node of node's word followed by the letter x, made on first ask."""
        nxt = child.get((node, x))
        if nxt is None:
            comp = nodes[node][2]
            if cache is not None and comp:  # a vanishing map stays so
                comp = then(comp, cache[x,]) if node else cache[x,]
            nxt = child[node, x] = len(nodes)
            nodes.append((node, (x,), comp))
        return nxt

    def step(node, label):
        key = node, label
        nxt = steps.get(key, -1)
        if nxt == -1:  # merged onto the last letter: the rest of the word stays
            up, last, _ = nodes[node]
            merged = swap_and_merge((label,), last)
            for x in merged[:-1]:  # up becomes the new word minus its last letter
                up = grow(up, x)
            nxt = steps[key] = (grow(up, merged[-1]) if merged else up) if nodes[up][2] else None
        return nxt

    # Each distinct stable word is interned once: it and every kept word have
    # their tuple in words, and a nonzero map of theirs is put in the cache.
    nb, into = _stable_walk(m)
    interned: dict[tuple[str, ...], int] = {(): 0}
    words = {0: ()}  # node -> its word
    parity = {}  # (start, node, end) -> the number of paths mod 2
    for end, paths in into.items():
        for src, word in paths:
            node = interned.get(word)
            if node is None:
                node = 0
                for x in word:
                    node = grow(node, x)
                interned[word] = node
                words[node] = word
                if cache is not None and nodes[node][2]:
                    cache.setdefault(word, nodes[node][2])
            if nodes[node][2]:
                parity[src, node, end] = 1
    leaving: dict[int, list[tuple[str, int]]] = {}  # stable generator -> its chain out-edges
    for src, label, dst in m.chain[:bisect_left(m.chain, (nb,))]:  # sorted: those come first
        leaving.setdefault(src, []).append((label, dst))
    roots = [(start, interned[word], first)
             for u, first in leaving.items() for start, word in [(u, ()), *into.get(u, [])]]
    roots += [(u, 0, m.adj[u]) for u in range(nb, len(m.generators))]
    for start, end, node in walk_paths(m.adj, step, roots):
        if nodes[node][2]:
            key = (start, node, end)
            parity[key] = parity.get(key, 0) ^ 1

    def spell(node):
        """A kept node's word: its nearest ancestor's with a word, followed by
        the letters below it, read up the trie.  The word is kept, and its map
        put in the cache."""
        k, word, comp = nodes[node]
        letters = []
        while k not in words:
            k, last, _ = nodes[k]
            letters += last
        word = words[node] = words[k] + tuple(reversed(letters)) + word
        if cache is not None:
            cache.setdefault(word, comp)
        return word

    ops = frozenset((src, words[node] if node in words else spell(node), end)
                    for (src, node, end), p in parity.items() if p)
    return TypeAModule(m, ops, against)


def _stable_walk(m: TypeDModule) -> tuple[int, dict[int, list[tuple[int, tuple[str, ...]]]]]:
    """(number of stable generators, end -> (start, word) of each path into
    it): the odd-parity paths of the whole type A module of m's stable part,
    derived on the first call for the stable part and kept, read-only, in
    its instance dict as cached_property keeps a value.  A module without a
    stable part, or with an unbounded one, gets (0, {})."""
    base = m.stable
    if base is None or not base.bounded:
        return 0, {}
    if "_cfa_walk" not in vars(base):
        a, into = derive_cfa(base), {}
        for src, word, dst in sorted(a.operations):
            into.setdefault(dst, []).append((src, word))
        vars(base)["_cfa_walk"] = into
    return len(base.generators), vars(base)["_cfa_walk"]


def validate_cfa(a: TypeAModule) -> ValidationReport:
    """Check idempotent compatibility, mergedness, and the grading law.

    For an operation with input word of length k the output grading must be
    gr(input) + sum of letter gradings + k + 1 mod 2; an empty word encodes
    a differential, which flips the grading.
    """
    report = ValidationReport(dict.fromkeys(("idempotents", "merged", "grading_law"), True))
    gens, gradings = a.source.generators, a.gradings
    for src, word, dst in sorted(a.operations):
        gs, gd = gens[src], gens[dst]
        if word:
            left = REEB_IDEMPOTENTS[word[0]][0]
            right = REEB_IDEMPOTENTS[word[-1]][1]
            ok = gs.idempotent == left and gd.idempotent == right
            for w1, w2 in zip(word, word[1:]):
                if REEB_IDEMPOTENTS[w1][1] != REEB_IDEMPOTENTS[w2][0]:
                    ok = False
            if not ok:
                report.fail("idempotents", f"idempotent mismatch in op {gs.id},{word}")
            if not is_merged(word):
                report.fail("merged", f"unmerged word {word} at {gs.id}")
        else:
            if gs.idempotent != gd.idempotent:
                report.fail("idempotents", f"differential {gs.id} -> {gd.id} mixes idempotents")
        want = (gradings[src] + word_grading(word) + len(word) + 1) % 2
        if gradings[dst] != want:
            report.fail("grading_law", f"grading law fails on op {gs.id},{word} -> {gd.id}")
    return report


def ops_lines(a: TypeAModule) -> list[str]:
    """One `m{k+1}(<gen>, <letters>) = <gen>` line per op, each ending in a newline, sorted."""
    lines, gens = [], a.source.generators
    for src, word, dst in a.operations:
        letters = " ".join(f"rho{w}" for w in word)
        inner = f"{gens[src].id}, {letters}" if word else gens[src].id
        lines.append(f"m{len(word) + 1}({inner}) = {gens[dst].id}\n")
    lines.sort()
    return lines


def ops_text(a: TypeAModule) -> str:
    """Stable text dump: the lines of ops_lines, joined."""
    return "".join(ops_lines(a))
