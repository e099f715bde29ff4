"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All checks are exact; the whole suite stays well under a minute.
"""

from itertools import product

import pytest

from floersplice import gf2
from floersplice.algebra import (
    BASIS,
    GRADING,
    PRODUCT_TABLE,
    REEB_IDEMPOTENTS,
    REEB_LABELS,
    multiply,
)
from floersplice.boxtensor import box_tensor
from floersplice.cfk import (
    make_complex,
    parse_complex,
    serialize_complex,
    simplify,
    staircase,
    unknot,
    validate_complex,
)
from floersplice.homology import graded_homology
from floersplice.splice import (
    FramedSide,
    conjecture_check,
    predict_lspace,
    splice_report,
    survey,
)
from floersplice.typea import derive_cfa
from floersplice.typed import (
    build_cfd,
    find_durable_pairs,
    solve_gradings,
    validate_type_d,
)
from conftest import ONE, element, gen_index
from test_pairing import assert_isolated

TREFOIL = staircase([1, 1], "+", name="trefoil")
MIRROR = staircase([1, 1], "-", name="mirror_trefoil")
T25 = staircase([1, 1, 1, 1], "+", name="t25")
FIG8 = make_complex(
    "figure_eight",
    ["a", "b", "c", "d", "e"],
    {"a": 1, "b": 0, "c": 0, "d": -1, "e": 0},
    [("a", "b", 0), ("c", "a", 1), ("c", "d", 0), ("d", "b", 1)],
)

SWEEPS = {
    2: (TREFOIL, (-3, 6), TREFOIL, (-3, 6)),
    3: (TREFOIL, (-4, 6), MIRROR, (-6, 4)),
    4: (T25, (0, 6), TREFOIL, (0, 6)),
    5: (FIG8, (-2, 2), TREFOIL, (-2, 2)),
}


@pytest.fixture(scope="module")
def sweeps():
    return {
        key: survey(c1, r1, c2, r2) for key, (c1, r1, c2, r2) in SWEEPS.items()
    }


def report_line(number, ok, text):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_algebra_axioms():
    ok = True
    for x, y, z in product(BASIS, repeat=3):
        a, b, c = element(x), element(y), element(z)
        ok &= multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    for x in BASIS:
        ok &= multiply(ONE, element(x)) == element(x)
        ok &= multiply(element(x), ONE) == element(x)
    ok &= multiply(element("i0"), element("i0")) == element("i0")
    ok &= multiply(element("i0"), element("i1")) == set()
    for r in REEB_LABELS:
        left, right = REEB_IDEMPOTENTS[r]
        ok &= multiply(element(f"i{left}"), element(r)) == element(r)
        ok &= multiply(element(r), element(f"i{right}")) == element(r)
    for x in REEB_LABELS:
        for y in REEB_LABELS:
            p = PRODUCT_TABLE[x, y]
            if p is not None:
                ok &= GRADING[p] == (GRADING[x] + GRADING[y]) % 2
    report_line(1, ok, "512 associativity triples, units, idempotents, gradings")


def test_criterion_02_trefoil_sweep(sweeps):
    rows = sweeps[2]
    ok = len(rows) == 100 and all(r.agree for r in rows)
    by_framing = {(r.n1, r.n2): r.verdict for r in rows}
    ok &= by_framing[2, 2] is False
    ok &= by_framing[2, 3] is True
    ok &= by_framing[3, 2] is True
    ok &= by_framing[6, 6] is True
    report_line(2, ok, "trefoil x trefoil over [-3,6]^2: 100/100 agreement")


def test_criterion_03_mixed_sign_sweep(sweeps):
    rows = sweeps[3]
    ok = len(rows) == 11 * 11 and all(r.agree for r in rows)
    ok &= all(r.verdict == (r.n1 >= 2 and r.n2 <= -2) for r in rows)
    report_line(3, ok, "trefoil x mirror over [-4,6]x[-6,4]: L-space iff n1>=2, n2<=-2")


def test_criterion_04_higher_staircase_sweep(sweeps):
    rows = sweeps[4]
    ok = len(rows) == 49 and all(r.agree for r in rows)
    ok &= all(
        r.verdict == (r.n1 >= 4 and r.n2 >= 2 and not (r.n1 == 4 and r.n2 == 2))
        for r in rows
    )
    report_line(4, ok, "t25 x trefoil over [0,6]^2: predictor reproduced")


def test_criterion_05_non_lspace_knot(sweeps):
    rows = sweeps[5]
    ok = len(rows) == 25 and all(not r.verdict and r.agree for r in rows)
    s = simplify(FIG8)
    d_bit = 1 << 4  # xi_4 = generator d
    for n in range(-2, 3):
        d = build_cfd(s, n)
        pairs = find_durable_pairs(d, s)
        expected_y = gf2.apply_columns(d.matrix("123"), d_bit)
        ok &= (d_bit, expected_y, "durable") in pairs
    report_line(5, ok, "figure-eight x trefoil: 25/25 not L-space, durable pair (d, D123 d)")


def test_criterion_06_euler_oracle(sweeps):
    ok = True
    for rows in sweeps.values():
        for r in rows:
            ok &= r.computed.euler_abs == abs(r.n1 * r.n2 - 1)
    report_line(6, ok, "|rank1 - rank0| = |n1*n2 - 1| on every sweep row")


def test_criterion_07_structural_guards():
    ok = True
    complexes = [TREFOIL, MIRROR, T25, FIG8, unknot(),
                 staircase([2, 1, 1, 2], "+"), staircase([2, 2], "-")]
    for c in complexes:
        ok &= validate_complex(c).checks["d_squared_zero"]
        back = parse_complex(serialize_complex(c), name=c.name)
        ok &= validate_complex(back).checks["d_squared_zero"]
    for c in (TREFOIL, MIRROR, T25, FIG8):
        s = simplify(c)
        for n in range(-4, 7):
            ok &= validate_type_d(build_cfd(s, n)).ok
    for key, (c1, r1, c2, r2) in SWEEPS.items():
        for n1 in range(r1[0], r1[1] + 1):
            for n2 in range(r2[0], r2[1] + 1):
                side1, side2 = FramedSide(c1, n1), FramedSide(c2, n2)
                box = box_tensor(derive_cfa(side1.d, against=side2.d), side2.d)
                ok &= box.d_squared_is_zero()
                ok &= box.boundary_flips_grading()
    report_line(7, ok, "d^2 = 0, structure equations, box guards on all pairings")


def test_criterion_08_operation_vectors():
    ok = True

    def ops(c, n):
        d = solve_gradings(build_cfd(simplify(c), n))
        a = derive_cfa(d)
        return {(a.source.generators[s].id, w, a.source.generators[t].id) for s, w, t in a.operations}

    # single-edge operations and the t = 0 turn, on the 2-framed trefoil
    tre2 = ops(TREFOIL, 2)
    ok &= ("x1", ("3",), "kap1_1") in tre2     # vertical start
    ok &= ("x1", ("1",), "lam1_1") in tre2     # horizontal start
    ok &= ("lam1_1", ("2",), "x0") in tre2     # horizontal end
    ok &= ("x0", ("3", "2"), "x2") in tre2     # framing edge at n = 2 tau
    ok &= ("lam1_1", ("23", "2"), "x2") in tre2

    # one step above 2 tau: the framing chain has length one
    tre3 = ops(TREFOIL, 3)
    ok &= ("x0", ("3", "2", "12"), "x2") in tre3

    # a staircase whose top horizontal chain has length two, at n = 2 tau
    s2112 = ops(staircase([2, 1, 1, 2], "+"), 6)
    ok &= ("lam2_1", ("2", "123", "2"), "x4") in s2112

    report_line(8, ok, "derived operations match the published chains verbatim")


def test_criterion_09_survival_at_double_boundary():
    d = solve_gradings(build_cfd(simplify(TREFOIL), 2))
    a = derive_cfa(d)
    box = box_tensor(a, d)
    # The whole complex, by matrix products: the counted box must match it,
    # and both pairs are absent from it with a zero row and column there.
    pairs = [("x2", "x2"), ("kap1_1", "kap1_1")]  # xbar_0 (x) u_0, ybar (x) v
    g1, g2 = assert_isolated(a, d, box, [(gen_index(a.source, x), gen_index(d, y)) for x, y in pairs])
    ok = g1 != g2
    r = graded_homology(box)
    ok &= r.rank0 >= 1 and r.rank1 >= 1  # both classes persist
    report_line(9, ok, "the two distinguished generators survive with opposite gradings")


def test_criterion_10_meridional_filling():
    u = unknot()
    ok = True
    for c in (TREFOIL, MIRROR, T25, FIG8):
        for n in range(-2, 3):
            r = splice_report(c, n, u, 0)
            ok &= r.computed.total == 1
    report_line(10, ok, "filling against the 0-framed unknot yields total rank 1")


def test_criterion_11_conjecture_consistency(sweeps):
    taus = {2: (1, 1), 3: (1, -1), 4: (2, 1)}
    ok = True
    checked = 0
    for key in (2, 3, 4):
        tau1, tau2 = taus[key]
        for r in sweeps[key]:
            c = conjecture_check(tau1, r.n1, r.n2, tau2)
            if c["degenerate"]:
                continue
            p = predict_lspace(tau1, True, r.n1, tau2, True, r.n2)
            ok &= c["verdict"] == p
            checked += 1
    ok &= checked > 200
    report_line(11, ok, f"slope arithmetic agrees with the predictor on {checked} rows")
