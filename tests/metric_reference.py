"""Per-point reference copies of the boundary quasi-metric, the standard
dilations and the divergence height: a loop over the blocks of two
BlockPoints, Python's ``**`` per block and libm's log. The library serves one
point and rows through one body; the tests compare both with these."""

import math

import numpy as np

from solvrigid.quasimetric import _block_norm
from solvrigid.spectral import BlockPoint


def distance(spec, p: BlockPoint, q: BlockPoint) -> float:
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, x, y in zip(spec.exponents, p.blocks, q.blocks):
            d = _block_norm(x - y)
            if d > 0.0:
                try:
                    best = max(best, d ** (1.0 / a))
                except OverflowError:
                    best = math.inf
    return best


def dilate(spec, t: float, p: BlockPoint) -> BlockPoint:
    factors = [t**a for a in spec.exponents]
    with np.errstate(over="ignore", invalid="ignore"):
        return BlockPoint(tuple(f * x for f, x in zip(factors, p.blocks)))


def pair_to_point(solv, p: BlockPoint, q: BlockPoint) -> float:
    """The divergence height log D(p, q) of a pure lower spec."""
    return math.log(distance(solv.lower, p, q))
