"""Integer surgeries realized as splices against framed trivial knots.

Gluing the m-framed trivial-knot complement to an n-framed complement of K
fills along the slope n - 1/m, so m = +1 gives (n-1)-surgery and m = -1
gives (n+1)-surgery.  Several of the resulting manifolds have well known
invariant ranks, and the same slope is reachable through two different
gluings, giving an oracle that is independent of the splice predictor.
"""

from itertools import product

from floersplice.cfk import staircase, unknot
from floersplice.splice import splice_report

TREFOIL = staircase([1, 1], "+", name="trefoil")
MIRROR = staircase([1, 1], "-", name="mirror")
UNKNOT = unknot()


def ranks(c, n, m):
    r = splice_report(c, n, UNKNOT, m).computed
    return r.rank0, r.rank1


def total(c, n, m):
    return sum(ranks(c, n, m))


def test_positive_surgeries_on_the_trefoil_are_lens_like():
    # (n-1)-surgery for n-1 >= 1: rank equals the first homology order
    for n in range(2, 7):
        assert total(TREFOIL, n, 1) == n - 1


def test_poincare_sphere_has_rank_one():
    assert total(TREFOIL, 2, 1) == 1      # +1 surgery
    assert total(MIRROR, 0, 1) == 1       # -1 surgery on the mirror
    assert total(MIRROR, -2, -1) == 1     # same slope, other gluing


def test_minus_one_surgery_has_rank_three():
    assert total(TREFOIL, 0, 1) == 3      # -1 surgery
    assert total(TREFOIL, -2, -1) == 3    # same slope, other gluing
    assert total(MIRROR, 2, 1) == 3       # mirror image
    assert total(MIRROR, 0, -1) == 3


def test_zero_surgery_has_rank_two():
    assert total(TREFOIL, 1, 1) == 2
    assert total(TREFOIL, -1, -1) == 2
    assert total(MIRROR, 1, 1) == 2


def test_same_slope_through_both_gluings():
    """n with framing +1 and n-2 with framing -1 both fill slope n-1."""
    for c in (TREFOIL, MIRROR):
        for n in range(-2, 6):
            assert sorted(ranks(c, n, 1)) == sorted(ranks(c, n - 2, -1))


def test_mirror_orientation_reversal():
    """The mirror splice computes the reversed manifold: equal total rank."""
    for n in range(-3, 4):
        for m in (1, -1):
            assert total(MIRROR, n, m) == total(TREFOIL, -n, -m)


def test_mirror_and_negate_over_genuine_splices(trefoil, mirror_trefoil, t25, figure_eight):
    """Mirroring both knots and negating both framings splices the reversed
    manifold, with the same graded ranks, unswapped, and the same verdict.
    The figure-eight knot is its own mirror."""
    mirrors = [(trefoil, mirror_trefoil), (t25, staircase([1, 1, 1, 1], "-")), (figure_eight, figure_eight)]
    for (k1, m1), (k2, m2) in product(mirrors, repeat=2):
        for n1, n2 in product(range(-6, 7), repeat=2):
            r, s = splice_report(k1, n1, k2, n2), splice_report(m1, -n1, m2, -n2)
            assert (s.computed, s.verdict) == (r.computed, r.verdict), (k1.name, n1, k2.name, n2)
