"""Z2-graded homology ranks of F2 chain complexes and the L-space test."""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .boxtensor import ChainComplex


@dataclass(frozen=True)
class GradedRanks:
    rank0: int
    rank1: int

    @property
    def euler_abs(self) -> int:
        return abs(self.rank1 - self.rank0)

    @property
    def total(self) -> int:
        return self.rank0 + self.rank1


def graded_homology(c: ChainComplex) -> GradedRanks:
    """Homology rank in each grading, by Gaussian elimination.

    The boundary strictly flips the grading, so in grading g the rank is
    dim C_g minus the rank of the boundary leaving C_g minus the rank of
    the boundary arriving from C_{1-g}.  Only the nonzero columns are
    ranked: a zero column adds no rank.
    """
    cols = ([], [])  # nonzero columns by grading
    for col, g in zip(c.boundary, c.gradings):
        if col:
            cols[g].append(col)
    rank_out = gf2.rank(cols[0]) + gf2.rank(cols[1])
    return GradedRanks(rank0=c.dim(0) - rank_out, rank1=c.dim(1) - rank_out)


def lspace_verdict(r: GradedRanks) -> bool:
    """All homology in one grading.

    A vanishing total rank signals an upstream bug (the invariant never
    vanishes for the manifolds in scope) and raises ValueError.
    """
    if r.total == 0:
        raise ValueError("total homology rank is zero; upstream computation is broken")
    return min(r.rank0, r.rank1) == 0
