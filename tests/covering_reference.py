"""The pairwise partition check, kept as the test oracle.

This is the partition test `jetcover.covering` ran before its checker
replayed the bisection tree, copied unchanged.  It accepts any exact
partition of the target: containment, total volume, and pairwise
disjoint interiors, at a cost of one `Box.interiors_disjoint` call per
pair of leaves.  The replay accepts only the leaf sets of the midpoint
bisection tree, so the two verdicts agree on every certificate
`certify_covering` writes and on its mutants, and differ on partitions
cut off the midpoints.

It also keeps the doubling loop that `Certificate.depth_used` ran before
its closed form, as that property's oracle, and makes the planar
certificates the covering tests share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from jetcover.boxes import Box
from jetcover.covering import Certificate, certify_covering
from jetcover.ifs import AffineMap, IFSystem


def _leaves_partition(target: Box, leaves: Sequence[Box]) -> bool:
    """Exact partition check: containment, disjoint interiors, full volume.

    Finitely many closed sub-boxes of U with pairwise disjoint interiors
    and total volume equal to vol(U) cover U entirely, so this is an exact
    verification of the partition claim.
    """
    if not leaves:
        return False
    vol = Fraction(0)
    for leaf in leaves:
        if not target.contains_box(leaf):
            return False
        vol += leaf.volume()
    if vol != target.volume():
        return False
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            if not leaves[i].interiors_disjoint(leaves[j]):
                return False
    return True


def loop_depth_used(cert: Certificate) -> int:
    """The doubling loop, one step per level, capped by the file's depth."""
    v = cert.target.volume()
    depths = []
    for leaf, _ in cert.leaves:
        d = 0
        lv = leaf.volume()
        while lv < v and d < cert.max_depth:
            lv *= 2
            d += 1
        depths.append(d)
    return max(depths, default=0)


@lru_cache(maxsize=None)
def planar_certificate(lam: Fraction, h: Fraction, inverse_margin: int) -> Certificate:
    """Certificate of x -> lam x + (±1, ±1) on [-2, h]^2 at margin
    1/inverse_margin."""
    maps = {
        label: AffineMap([[lam, 0], [0, lam]], [sx, sy])
        for label, sx, sy in (("a", 1, 1), ("b", 1, -1), ("c", -1, 1), ("d", -1, -1))
    }
    system = IFSystem(("a", "b", "c", "d"), maps)
    outcome = certify_covering(
        system, Box.of((-2, h), (-2, h)), Fraction(1, inverse_margin)
    )
    assert isinstance(outcome, Certificate)
    return outcome
