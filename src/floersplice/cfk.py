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

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import gf2


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
            a = self.alexander.get(g)
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"generator {g!r} has no int Alexander grading")
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

    Basis vectors are bitmasks in input generator coordinates (at U = 0;
    the horizontal vectors are the lowest-grading homogeneous parts of the
    honest F2[U] basis elements).  Arrows pair indices (2j-1, 2j) in each
    family, with index 0 unpaired.  b_matrix row p is eta_p written in
    the xi basis (a_matrix is its inverse).
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
    bases_compatible: bool

    def require_compatible(self) -> SimplifiedBases:
        """Self, or ValueError if the bases are not filtration compatible (see build_cfd)."""
        if not self.bases_compatible:
            raise ValueError(
                f"{self.complex.name}: the vertical and horizontal reductions produced"
                " bases that are not filtration compatible; re-present the complex"
                " in a basis where they are"
            )
        return self


def _reduce_pairing(columns: list[int], order: list[int]):
    """Lowest-one column reduction in the given processing order.

    order lists generator indices from earliest to latest; boundary supports
    must lie strictly earlier than the column's own position.  Returns
    (pairs, unpaired) where pairs are (src_vec, dst_vec, src_gen, dst_gen)
    with vectors in generator coordinates and unpaired is a list of
    (vec, gen) for the essential cycles.
    """
    pos = {g: p for p, g in enumerate(order)}
    n, mask = len(columns), (1 << len(columns)) - 1
    # Column p is generator order[p]'s boundary in position coordinates, from
    # bit n up, tagged by its generator below: its residue's high part is the
    # boundary of the basis vector its tags name, in generator coordinates.
    _, residues = gf2.echelon(
        [sum(1 << (n + pos[i]) for i in gf2.bits(columns[g])) | 1 << g for g in order], n)
    pairs_by_col = {p: (r >> n).bit_length() - 1 for p, r in enumerate(residues) if r >> n}

    paired_positions = set(pairs_by_col) | set(pairs_by_col.values())
    unpaired = [(residues[p] & mask, g) for p, g in enumerate(order) if p not in paired_positions]
    pairs = [
        (residues[p] & mask, sum(1 << order[q] for q in gf2.bits(residues[p] >> n)), order[p], order[low])
        for p, low in sorted(pairs_by_col.items())
    ]
    return pairs, unpaired


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
    either reduction leaves more than one unpaired generator (the complex
    does not have one-dimensional vertical homology) or when
    A(xi_0) != -A(eta_0).
    """
    A = c.alexander
    gens = c.generators

    def vec_alex(vec: int) -> int:
        return max(A[gens[i]] for i in gf2.bits(vec))

    # Vertical side: differentials strictly drop the grading, so process in
    # ascending (A, input index); the lowest-one pairing then matches each
    # source to its closest target, making arrow lengths canonical.
    vorder = sorted(range(len(gens)), key=lambda i: (A[gens[i]], i))
    vpairs, vunpaired = _reduce_pairing(_columns(c, lambda src, dst, k: k == 0), vorder)
    if len(vunpaired) != 1:
        raise ValueError(
            f"{c.name}: vertical reduction left {len(vunpaired)} unpaired generators (expected 1)"
        )

    # Horizontal side: the grading-raising part, processed in descending A.
    horder = sorted(range(len(gens)), key=lambda i: (-A[gens[i]], i))
    hcols = _columns(c, lambda src, dst, k: 1 <= k == A[dst] - A[src])
    hpairs, hunpaired = _reduce_pairing(hcols, horder)
    if len(hunpaired) != 1:
        raise ValueError(
            f"{c.name}: horizontal reduction left {len(hunpaired)} unpaired generators (expected 1)"
        )

    def assemble(pairs, unpaired):
        basis = [unpaired[0][0]]
        arrows = []
        decorated = []
        for src_vec, dst_vec, src_gen, dst_gen in pairs:
            length = abs(A[gens[src_gen]] - A[gens[dst_gen]])
            decorated.append((length, src_gen, src_vec, dst_vec))
        decorated.sort(key=lambda t: (t[0], t[1]))
        for j, (length, _src, src_vec, dst_vec) in enumerate(decorated, start=1):
            basis.append(src_vec)
            basis.append(dst_vec)
            arrows.append((2 * j - 1, 2 * j, length))
        return basis, arrows

    xi, vertical_arrows = assemble(vpairs, vunpaired)
    xi_alex = [vec_alex(v) for v in xi]

    # Horizontal basis vectors are reduction classes whose honest F2[U]
    # representatives carry U powers A(g) - level on each generator g of the
    # support; at U = 0 only the lowest-grading part survives, and that level
    # is the vector's filtration level.
    eta_classes, horizontal_arrows = assemble(hpairs, hunpaired)
    eta = []
    eta_alex = []
    for vec in eta_classes:
        lvl = min(A[gens[i]] for i in gf2.bits(vec))
        lead = 0
        for i in gf2.bits(vec):
            if A[gens[i]] == lvl:
                lead |= 1 << i
        eta.append(lead)
        eta_alex.append(lvl)

    tau = xi_alex[0]
    if tau != -eta_alex[0]:
        raise ValueError(f"{c.name}: A(xi_0) = {tau} does not equal -A(eta_0) = {-eta_alex[0]}")
    genus = max(abs(A[g]) for g in gens)

    b_matrix = gf2.solve(xi, eta)
    if b_matrix is None:
        raise ValueError(f"{c.name}: eta basis does not lie in the xi span at U=0")
    a_matrix = gf2.solve(eta, xi)
    if a_matrix is None:
        raise ValueError(f"{c.name}: xi basis does not lie in the eta span at U=0")

    lspace_form, sign, steps = _staircase_recognizer(xi_alex, eta_alex, xi, eta)

    compatible = all(
        all(xi_alex[q] == eta_alex[p] for q in gf2.bits(row))
        for p, row in enumerate(b_matrix)
    )

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
        bases_compatible=compatible,
    )


def knot_invariants(s: SimplifiedBases) -> dict:
    """tau, genus, whether the bases are compatible, and staircase data in L-space form."""
    out = {"tau": s.tau, "genus": s.genus, "lspace_form": s.lspace_form}
    out["bases_compatible"] = s.bases_compatible
    if s.lspace_form:
        out["sign"] = s.sign
        out["step_vector"] = list(s.steps or [])
    return out
