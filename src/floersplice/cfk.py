"""Reduced knot Floer complexes over F2[U] and their simplified bases.

A complex is stored as a finite list of generators with Alexander gradings
and a differential whose entries are triples (src, dst, k), meaning d(src)
contains U^k * dst.  Simplification produces a vertically simplified basis
(pairing off the U^0 part of the differential) and a horizontally
simplified basis (pairing off the grading-raising part), the two
change-of-basis matrices at U = 0, tau, genus, and the staircase
recognizer used to detect L-space-knot complexes.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import gf2


_NAME = re.compile(r"[^\s#+=]+")  # what a `gen` line and the terms of a `d` line can carry
_NAME_RULE = "a name is a nonempty str with no whitespace, '#', '+' or '='"


class FormatError(ValueError):
    """Malformed complex file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class KnotComplex:
    name: str
    generators: tuple[str, ...]
    alexander: Mapping[str, int]  # a read-only copy of the mapping given
    differential: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "alexander", MappingProxyType(dict(self.alexander)))
        seen = set()
        for g in self.generators:
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
            if not (isinstance(g, str) and _NAME.fullmatch(g)):
                raise ValueError(f"generator {g!r}: {_NAME_RULE}")
            a = self.alexander.get(g)
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"generator {g!r} has no int Alexander grading")
        if stray := [a for a in self.alexander if a not in seen]:
            raise ValueError(f"Alexander grading for {stray[0]!r}, which is not a generator")
        for src, dst, k in self.differential:
            if src not in seen or dst not in seen:
                raise ValueError(f"differential entry ({src},{dst}) uses unknown generator")
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"U power {k!r} in entry ({src},{dst}) is not an int")
            if k < 0:
                raise ValueError(f"negative U power in entry ({src},{dst},{k})")

    def __reduce__(self):
        # A mappingproxy does not pickle or copy; rebuild from a plain dict.
        return (KnotComplex, (self.name, self.generators, dict(self.alexander), self.differential))


def _canonical_entries(entries) -> tuple[tuple[str, str, int], ...]:
    """Cancel duplicate entries mod 2 and sort deterministically."""
    parity: dict[tuple[str, str, int], int] = {}
    for e in entries:
        parity[e] = parity.get(e, 0) ^ 1
    return tuple(sorted(e for e, p in parity.items() if p))


def make_complex(name, generators, alexander, entries) -> KnotComplex:
    return KnotComplex(name, tuple(generators), alexander, _canonical_entries(entries))


def staircase(steps: list[int], sign: str, name: str | None = None) -> KnotComplex:
    """Staircase complex of an L-space knot with the given step vector.

    steps must be a nonempty palindromic list of positive integers of even
    length.  Generators x0..x{2k} get Alexander gradings with consecutive
    gaps equal to the steps, symmetric about zero.  sign '+' puts the
    differentials on odd-index generators; sign '-' gives the reflected
    pattern with differentials on the even interior generators plus
    d(x0) = U^b1 x1 and d(x{2k}) = x{2k-1}.
    """
    if sign not in ("+", "-"):
        raise ValueError("staircase sign must be '+' or '-'")
    if not steps or len(steps) % 2 != 0:
        raise ValueError("step vector must be nonempty of even length")
    if any(not isinstance(b, int) or isinstance(b, bool) or b <= 0 for b in steps):
        raise ValueError("steps must be positive integers")
    if steps != steps[::-1]:
        raise ValueError("step vector must be palindromic")
    total = sum(steps)
    gens = [f"x{i}" for i in range(len(steps) + 1)]
    alex = {}
    level = -total // 2
    for i, g in enumerate(gens):
        alex[g] = level
        if i < len(steps):
            level += steps[i]
    entries = []
    n = len(steps)
    if sign == "+":
        for i in range(1, n + 1, 2):
            entries.append((gens[i], gens[i - 1], 0))
            entries.append((gens[i], gens[i + 1], alex[gens[i + 1]] - alex[gens[i]]))
    else:
        entries.append((gens[0], gens[1], alex[gens[1]] - alex[gens[0]]))
        entries.append((gens[n], gens[n - 1], 0))
        for i in range(2, n, 2):
            entries.append((gens[i], gens[i - 1], 0))
            entries.append((gens[i], gens[i + 1], alex[gens[i + 1]] - alex[gens[i]]))
    if name is None:
        name = f"staircase({sign};{','.join(map(str, steps))})"
    return make_complex(name, gens, alex, entries)


def unknot() -> KnotComplex:
    return make_complex("unknot", ["e"], {"e": 0}, [])


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def parse_complex(text: str, name: str = "complex") -> KnotComplex:
    """Parse the line-based complex format.

    Lines are either `gen <name> <alexander>`, `d <name> = <term> [+ <term>]*`
    with terms `<name>` or `U^<k> <name>` (k >= 1), or a single
    `staircase <+|-> <b1> ... <b2k>` line.  '#' starts a comment.
    """
    gens: list[str] = []
    alex: dict[str, int] = {}
    entries: list[tuple[str, str, int]] = []
    stair: KnotComplex | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if stair is not None or (kind == "staircase" and gens):
            raise FormatError("staircase line cannot be combined with other lines", lineno)
        if kind == "gen":
            if len(tokens) != 3:
                raise FormatError("expected `gen <name> <alexander>`", lineno)
            g = tokens[1]
            if not _NAME.fullmatch(g):
                raise FormatError(f"generator {g!r}: {_NAME_RULE}", lineno)
            try:
                a = int(tokens[2])
            except ValueError:
                raise FormatError(f"bad Alexander grading {tokens[2]!r}", lineno) from None
            if g in alex:
                raise FormatError(f"duplicate generator {g!r}", lineno)
            gens.append(g)
            alex[g] = a
        elif kind == "d":
            rest = line[1:].strip()
            if "=" not in rest:
                raise FormatError("expected `d <name> = <terms>`", lineno)
            lhs, rhs = rest.split("=", 1)
            src = lhs.strip()
            if src not in alex:
                raise FormatError(f"unknown generator {src!r}", lineno)
            for term in rhs.split("+"):
                term = term.strip()
                if not term:
                    raise FormatError("empty term", lineno)
                parts = term.split()
                if len(parts) == 1:
                    dst, k = parts[0], 0
                elif len(parts) == 2 and parts[0].startswith("U^"):
                    try:
                        k = int(parts[0][2:])
                    except ValueError:
                        raise FormatError(f"bad U power {parts[0]!r}", lineno) from None
                    if k < 1:
                        raise FormatError(f"U power must be >= 1, got {k}", lineno)
                    dst = parts[1]
                else:
                    raise FormatError(f"bad term {term!r}", lineno)
                if dst not in alex:
                    raise FormatError(f"unknown generator {dst!r}", lineno)
                entries.append((src, dst, k))
        elif kind == "staircase":
            if len(tokens) < 3:
                raise FormatError("expected `staircase <+|-> <b1> ... <b2k>`", lineno)
            try:
                steps = [int(t) for t in tokens[2:]]
            except ValueError:
                raise FormatError("steps must be integers", lineno) from None
            try:
                stair = staircase(steps, tokens[1], name=name)
            except ValueError as e:
                raise FormatError(str(e), lineno) from None
        else:
            raise FormatError(f"unknown directive {kind!r}", lineno)

    if stair is not None:
        return stair
    if not gens:
        raise FormatError("no generators", None)
    return make_complex(name, gens, alex, entries)


def serialize_complex(c: KnotComplex) -> str:
    """Inverse of parse_complex up to generator order."""
    lines = [f"gen {g} {c.alexander[g]}" for g in c.generators]
    by_src: dict[str, list[tuple[str, int]]] = {}
    for src, dst, k in c.differential:
        by_src.setdefault(src, []).append((dst, k))
    order = {g: i for i, g in enumerate(c.generators)}
    for src in c.generators:
        terms = by_src.get(src)
        if not terms:
            continue
        terms.sort(key=lambda t: (t[1], order[t[0]]))
        rendered = [d if k == 0 else f"U^{k} {d}" for d, k in terms]
        lines.append(f"d {src} = " + " + ".join(rendered))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Named checks, each passed or failed, with warnings and the problems
    found by the failed checks; every validator returns one."""

    checks: dict[str, bool] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]

    def fail(self, check: str, problem: str) -> None:
        self.checks[check] = False
        self.problems.append(problem)


def _columns(c: KnotComplex, keep) -> list[int]:
    """Columns, in generator coordinates, of the entries (src, dst, k) of the
    differential that keep(src, dst, k) accepts: k = 0 for the part mod U,
    k = A(dst) - A(src) >= 1 for the grading-raising part."""
    idx = {g: i for i, g in enumerate(c.generators)}
    cols = [0] * len(c.generators)
    for src, dst, k in c.differential:
        if keep(src, dst, k):
            cols[idx[src]] ^= 1 << idx[dst]
    return cols


def validate_complex(c: KnotComplex) -> ValidationReport:
    """Check d^2 = 0, filteredness, reducedness, and vertical homology rank 1."""
    report = ValidationReport()
    A = c.alexander

    square: dict[tuple[str, str, int], int] = {}
    by_src: dict[str, list[tuple[str, int]]] = {}
    for src, dst, k in c.differential:
        by_src.setdefault(src, []).append((dst, k))
    for src, dst, k in c.differential:
        for dst2, k2 in by_src.get(dst, ()):  # second application
            key = (src, dst2, k + k2)
            square[key] = square.get(key, 0) ^ 1
    report.checks["d_squared_zero"] = not any(square.values())

    report.checks["filtered"] = all(A[d] - k <= A[s] for s, d, k in c.differential)
    report.checks["reduced"] = all(A[d] < A[s] for s, d, k in c.differential if k == 0)

    n = len(c.generators)
    rank_v = gf2.rank(_columns(c, lambda src, dst, k: k == 0))
    report.checks["vertical_homology_rank_one"] = (n - 2 * rank_v) == 1

    grades = sorted(A[g] for g in c.generators)
    if grades != sorted(-a for a in grades):
        report.warnings.append("Alexander multiset is not symmetric under negation")
    return report


# ---------------------------------------------------------------------------
# Simplified bases
# ---------------------------------------------------------------------------

@dataclass
class SimplifiedBases:
    """Vertically and horizontally simplified bases of a reduced complex.

    Basis vectors are bitmasks in input generator coordinates, each read at
    its own Alexander level: the xi vectors are the top-level parts of the
    vertical reduction classes, the eta vectors the lowest-level parts of
    the honest F2[U] horizontal basis elements (at U = 0).  Both bases are
    homogeneous, so b_matrix row p, eta_p written in the xi basis, names
    xi vectors at eta_p's level only (a_matrix is its inverse).  Arrows
    pair indices (2j-1, 2j) in each family, with index 0 unpaired.
    """

    complex: KnotComplex
    xi: list[int]
    xi_alex: list[int]
    eta: list[int]
    eta_alex: list[int]
    vertical_arrows: list[tuple[int, int, int]]   # (2j-1, 2j, h_j)
    horizontal_arrows: list[tuple[int, int, int]]  # (2j-1, 2j, l_j)
    a_matrix: list[int]
    b_matrix: list[int]
    tau: int
    genus: int
    lspace_form: bool
    sign: str | None
    steps: list[int] | None


def _reduced_basis(c: KnotComplex, side: str, keep, sign: int):
    """One side's simplified basis, each vector read at its own level.

    Lowest-one reduction of the part of the differential that keep accepts,
    processing generators in ascending (sign * A, index): keep's entries
    point strictly earlier, and each source meets its closest target, so
    arrow lengths are canonical.  The basis is the one unpaired class, then
    each pair's source and target, pairs by (length, source index); a vector
    is read as its part at its extreme sign * A.  Returns (basis, levels,
    arrows); raises ValueError naming the side when other than one
    generator stays unpaired.
    """
    a = [c.alexander[g] for g in c.generators]
    n, mask = len(a), (1 << len(a)) - 1
    order = sorted(range(n), key=lambda i: (sign * a[i], i))
    pos = {g: p for p, g in enumerate(order)}
    cols = _columns(c, keep)
    # Column p is generator order[p]'s boundary in position coordinates, from
    # bit n up, tagged by its generator below: its residue's high part is the
    # boundary of the basis vector its tags name, in generator coordinates.
    _, residues = gf2.echelon(
        [sum(1 << (n + pos[i]) for i in gf2.bits(cols[g])) | 1 << g for g in order], n)
    low = {p: (r >> n).bit_length() - 1 for p, r in enumerate(residues) if r >> n}
    unpaired = set(range(n)).difference(low, low.values())
    if len(unpaired) != 1:
        raise ValueError(f"{c.name}: {side} reduction left {len(unpaired)} unpaired generators (expected 1)")

    vectors, arrows = [residues[unpaired.pop()] & mask], []
    pairs = sorted((abs(a[order[p]] - a[order[q]]), order[p], p) for p, q in low.items())
    for j, (length, _, p) in enumerate(pairs, start=1):
        vectors += [residues[p] & mask, sum(1 << order[b] for b in gf2.bits(residues[p] >> n))]
        arrows.append((2 * j - 1, 2 * j, length))
    levels = [sign * max(sign * a[i] for i in gf2.bits(v)) for v in vectors]
    basis = [sum(1 << i for i in gf2.bits(v) if a[i] == lvl) for v, lvl in zip(vectors, levels)]
    return basis, levels, arrows


def _staircase_recognizer(xi_alex, eta_alex, xi, eta):
    """Evaluate the one-per-level pairing conditions on the two bases.

    Returns (lspace_form, sign, steps).  The conditions: every occupied
    Alexander level is one dimensional, carried by a single xi and a single
    eta basis vector which agree, with index parities matched (an odd eta
    pairs with xi_0 or an odd xi, an even eta with xi_0 or an even xi, and
    symmetrically).
    """
    levels: dict[int, tuple[list[int], list[int]]] = {}
    for p, a in enumerate(xi_alex):
        levels.setdefault(a, ([], []))[0].append(p)
    for p, a in enumerate(eta_alex):
        levels.setdefault(a, ([], []))[1].append(p)

    for a, (xs, es) in levels.items():
        if len(xs) != 1 or len(es) != 1:
            return False, None, None
        p, q = xs[0], es[0]
        if xi[p] != eta[q]:
            return False, None, None
        if p and q and (p - q) % 2:
            return False, None, None

    occupied = sorted(levels)
    steps = [occupied[i + 1] - occupied[i] for i in range(len(occupied) - 1)]
    tau = xi_alex[0]
    sign = "-" if tau < 0 else "+"
    return True, sign, steps


def simplify(c: KnotComplex) -> SimplifiedBases:
    """Compute simplified bases, arrows, change of basis, tau and genus.

    Pre-condition: c passes validate_complex.  Raises ValueError when
    either reduction leaves other than one unpaired generator (the complex
    does not have one-dimensional vertical homology) or when
    A(xi_0) != -A(eta_0).
    """
    A = c.alexander
    # Vertical: the part mod U, each vector read at its top level.  Horizontal:
    # the grading-raising part; at U = 0 an honest F2[U] representative keeps
    # only its lowest level.  Both bases are homogeneous, so each eta vector
    # is a combination of xi vectors at its own level.
    xi, xi_alex, vertical_arrows = _reduced_basis(c, "vertical", lambda src, dst, k: k == 0, 1)
    eta, eta_alex, horizontal_arrows = _reduced_basis(
        c, "horizontal", lambda src, dst, k: 1 <= k == A[dst] - A[src], -1)

    tau = xi_alex[0]
    if tau != -eta_alex[0]:
        raise ValueError(f"{c.name}: A(xi_0) = {tau} does not equal -A(eta_0) = {-eta_alex[0]}")
    genus = max(abs(A[g]) for g in c.generators)

    b_matrix = gf2.solve(xi, eta)
    if b_matrix is None:
        raise ValueError(f"{c.name}: eta basis does not lie in the xi span at U=0")
    a_matrix = gf2.solve(eta, xi)
    if a_matrix is None:
        raise ValueError(f"{c.name}: xi basis does not lie in the eta span at U=0")

    lspace_form, sign, steps = _staircase_recognizer(xi_alex, eta_alex, xi, eta)

    return SimplifiedBases(
        complex=c,
        xi=xi,
        xi_alex=xi_alex,
        eta=eta,
        eta_alex=eta_alex,
        vertical_arrows=vertical_arrows,
        horizontal_arrows=horizontal_arrows,
        a_matrix=a_matrix,
        b_matrix=b_matrix,
        tau=tau,
        genus=genus,
        lspace_form=lspace_form,
        sign=sign,
        steps=steps,
    )


def knot_invariants(s: SimplifiedBases) -> dict:
    """tau, genus, whether the complex is of L-space form, and its staircase data if so."""
    out = {"tau": s.tau, "genus": s.genus, "lspace_form": s.lspace_form}
    if s.lspace_form:
        out["sign"] = s.sign
        out["step_vector"] = list(s.steps or [])
    return out
