"""Integer surgeries realized as splices against framed trivial knots.

Gluing the m-framed trivial-knot complement to an n-framed complement of K
fills along the slope n - 1/m, so m = +1 gives (n-1)-surgery and m = -1
gives (n+1)-surgery.  Several of the resulting manifolds have well known
invariant ranks, and the same slope is reachable through two different
gluings, giving an oracle that is independent of the splice predictor.
"""

from itertools import product

from floersplice import gf2
from floersplice.cfk import make_complex, simplify, staircase, unknot
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


# ---------------------------------------------------------------------------
# The large-surgery oracle: HF-hat of S^3_p(K) from the knot complex alone
# ---------------------------------------------------------------------------

def _hat_a_rank(c, s):
    """rank H_*(A-hat_s) of a knot complex c: each generator x kept at U-power
    a(x) = max(0, A(x) - s), and an entry (x, y, k) kept exactly when
    a(x) + k = a(y); a differential D of n generators has homology of rank
    n - 2 rank D."""
    index = {g: i for i, g in enumerate(c.generators)}
    a = {g: max(0, c.alexander[g] - s) for g in c.generators}
    cols = [0] * len(c.generators)
    for x, y, k in c.differential:
        if a[x] + k == a[y]:
            cols[index[x]] ^= 1 << index[y]
    return len(c.generators) - 2 * gf2.rank(cols)


def large_surgery_rank(c, p):
    """rank HF-hat(S^3_p(K)) for p >= 2g - 1 (Ozsvath-Szabo, arXiv:math/0209056):
    the sum of rank H_*(A-hat_s) over the p values of s from -floor((p - 1)/2)
    on.  A-hat_s has rank 1 once |s| >= max|A|, so only the values of s
    below that are computed."""
    top = max(abs(a) for a in c.alexander.values())
    window = range(-((p - 1) // 2), -((p - 1) // 2) + p)
    near = [s for s in range(-top + 1, top) if s in window]
    return p - len(near) + sum(_hat_a_rank(c, s) for s in near)


def _mirror(c):
    """The mirror's complex: each entry (x, y, k) becomes (y, x, k), and each
    Alexander grading is negated."""
    return make_complex(f"mirror({c.name})", c.generators, {g: -a for g, a in c.alexander.items()},
                        [(y, x, k) for x, y, k in c.differential])


LARGE_SLOPES = (10**3, 10**4, 10**5, 10**6)


def test_large_surgeries_match_the_oracle():
    """K[p + 1] spliced with unknot[1], in both orders, is p-surgery on K, and
    K[-p - 1] with unknot[-1] is -p-surgery, the reversed p-surgery on the
    mirror.  Their total ranks equal the large-surgery oracle of K and of
    its mirror, over the six fixtures and the ten benchmark complexes, at
    p = 2g - 1 .. 2g + 24 and at 10^3 .. 10^6.  The oracle shares no bordered
    stage with the engine, so it checks the run at depths no other test
    reaches.  The unknot's positive slopes pair two unbounded sides, which
    the engine refuses."""
    from test_type_d import _gate_complexes

    checked = 0
    for c in _gate_complexes():
        g = simplify(c).genus
        mirror = _mirror(c)
        for p in (*range(max(1, 2 * g - 1), 2 * g + 25), *LARGE_SLOPES):
            want, want_mirror = large_surgery_rank(c, p), large_surgery_rank(mirror, p)
            if c.name != "unknot":
                assert total(c, p + 1, 1) == want, (c.name, p)
                r = splice_report(UNKNOT, 1, c, p + 1).computed
                assert r.rank0 + r.rank1 == want, (c.name, p)
            assert total(c, -p - 1, -1) == want_mirror, (c.name, -p)
            checked += 1
    assert checked == 11 * 30 + 28  # the unknot (g = 0) starts at p = 1
