"""Graded homology ranks and the L-space verdict."""

import pytest

from floersplice.boxtensor import ChainComplex, box_tensor
from floersplice.cfk import simplify, staircase
from floersplice.homology import GradedRanks, graded_homology, lspace_verdict
from floersplice.typea import derive_cfa
from floersplice.typed import build_cfd, solve_gradings


def test_empty_complex():
    r = graded_homology(ChainComplex([], [], []))
    assert (r.rank0, r.rank1) == (0, 0)


def test_acyclic_pair():
    c = ChainComplex([("a", "p"), ("b", "q")], [0, 1], [2, 0])
    r = graded_homology(c)
    assert (r.rank0, r.rank1) == (0, 0)


def test_grading_guard_fires_on_one_entry_between_equal_gradings():
    """The guard tests each column against the mask of its own grading, also
    past the width of a machine word: one entry joining equal gradings fails."""
    n = 70
    gradings = [j % 2 for j in range(n)]
    boundary = [1 << (j + 1) if j + 1 < n else 0 for j in range(n)]
    labels = [(f"a{j}", "p") for j in range(n)]
    assert ChainComplex(labels, gradings, boundary).boundary_flips_grading()
    for j, i in ((0, 2), (68, 0), (3, 69), (69, 69)):
        bad = list(boundary)
        bad[j] |= 1 << i
        assert not ChainComplex(labels, gradings, bad).boundary_flips_grading(), (j, i)


def test_isolated_generators():
    c = ChainComplex([("a", "p"), ("b", "q")], [0, 1], [0, 0])
    r = graded_homology(c)
    assert (r.rank0, r.rank1) == (1, 1)
    assert not lspace_verdict(r)


def test_rank_nullity_bookkeeping():
    """rank_g = dim C_g - rank(out of g) - rank(into g), checked on a splice."""
    from floersplice import gf2

    t = staircase([1, 1], "+")
    d = solve_gradings(build_cfd(simplify(t), 4))
    a = derive_cfa(d)
    box = box_tensor(a, d)
    r = graded_homology(box)
    for g in (0, 1):
        cols_g = [c for j, c in enumerate(box.boundary) if box.gradings[j] == g]
        cols_other = [c for j, c in enumerate(box.boundary) if box.gradings[j] != g]
        expected = box.dim(g) - gf2.rank(cols_g) - gf2.rank(cols_other)
        assert (r.rank0 if g == 0 else r.rank1) == expected


def test_trefoil_splice_ranks():
    t = staircase([1, 1], "+")
    a = derive_cfa(solve_gradings(build_cfd(simplify(t), 3)))
    d = solve_gradings(build_cfd(simplify(t), 2))
    r = graded_homology(box_tensor(a, d))
    assert sorted((r.rank0, r.rank1)) == [0, 5]
    assert r.euler_abs == 5
    assert lspace_verdict(r)


def test_lspace_verdict_values():
    assert lspace_verdict(GradedRanks(5, 0))
    assert lspace_verdict(GradedRanks(0, 5))
    assert not lspace_verdict(GradedRanks(4, 1))
    assert lspace_verdict(GradedRanks(1, 0))


def test_zero_total_rank_is_an_error():
    with pytest.raises(ValueError):
        lspace_verdict(GradedRanks(0, 0))
