"""Per-point reference copies of the boundary quasi-metric, the standard
dilations, the divergence height and the solvable group law: a loop over the
blocks of BlockPoints, Python's ``**`` per block and libm's log and exp. The
library serves one point and rows through one body; the tests compare both
with these. ``row_distance`` takes rows by the metric's general formula, without
its shortcut for exponent 1. ``random_point`` draws one point at a time, in the
order that the library's row draws keep."""

import functools
import math

import numpy as np

from solvrigid.quasimetric import _block_norm
from solvrigid.solvgroup import SolvPoint
from solvrigid.spectral import BlockPoint


def from_flat(spec, v) -> BlockPoint:
    """The BlockPoint of a flat ``(total_dim,)`` vector."""
    v = np.asarray(v, dtype=float)
    assert v.shape == (spec.total_dim,), v.shape
    return BlockPoint(tuple(v[s] for s in spec.block_slices()))


def zero(spec) -> BlockPoint:
    return BlockPoint(tuple(np.zeros(n) for n in spec.multiplicities))


def random_point(spec, rng: np.random.Generator, scale: float = 1.0) -> BlockPoint:
    return BlockPoint(tuple(rng.uniform(-scale, scale, n) for n in spec.multiplicities))


def isclose(p: BlockPoint, q: BlockPoint, atol: float = 0.0) -> bool:
    """Blockwise np.allclose with relative tolerance 1e-12."""
    return all(np.allclose(a, b, atol=atol, rtol=1e-12) for a, b in zip(p.blocks, q.blocks))


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


def row_distance(spec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The distances of ``(N, total_dim)`` rows by the general formula: np.float_power on
    every block, exponent 1 included."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = P - Q
        return functools.reduce(np.maximum, [
            np.float_power(_block_norm(diff[..., s]), 1.0 / a)
            for a, s in zip(spec.exponents, spec.block_slices())])


def dilate(spec, t: float, p: BlockPoint) -> BlockPoint:
    factors = [t**a for a in spec.exponents]
    with np.errstate(over="ignore", invalid="ignore"):
        return BlockPoint(tuple(f * x for f, x in zip(factors, p.blocks)))


def pair_to_point(solv, p: BlockPoint, q: BlockPoint) -> float:
    """The divergence height log D(p, q) of a pure lower spec."""
    return math.log(distance(solv.lower, p, q))


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def level_distance(solv, t: float, p, q) -> float:
    """max over blocks of e^(-t alpha_i) |x_i - y_i| and e^(t beta_i) |z_i - w_i| for
    (x, z) and (y, w) pairs of ``(total_dim,)`` arrays; where the factor leaves the
    normal float range the term is exp(log gap + exponent), and 0 for no gap."""
    best = 0.0
    for data, sign, x, y in ((solv.lower, -1.0, p[0], q[0]), (solv.upper, 1.0, p[1], q[1])):
        if data is None:
            continue
        for a, s in zip(data.exponents, data.block_slices()):
            with np.errstate(over="ignore"):  # _block_norm rescales a square beyond float range
                gap, e = _block_norm(x[s] - y[s]), sign * t * a
            if 2.0 ** -1022 <= _exp(e) < math.inf:
                best = max(best, _exp(e) * gap)
            elif gap:
                best = max(best, _exp(math.log(gap) + e))
    return best


def _scaled(factors, p: BlockPoint) -> BlockPoint:
    return BlockPoint(tuple(f * b for f, b in zip(factors, p.blocks)))


def _plus(p: BlockPoint, q: BlockPoint) -> BlockPoint:
    return BlockPoint(tuple(a + b for a, b in zip(p.blocks, q.blocks)))


def multiply(solv, p: SolvPoint, q: SolvPoint) -> SolvPoint:
    """(t, x, z) * (s, y, w) = (t + s, x + e^{tA} y, z + e^{-tB} w)."""
    t = p.height
    x = z = None
    if solv.lower is not None:
        x = _plus(p.x, _scaled([math.exp(t * a) for a in solv.lower.exponents], q.x))
    if solv.upper is not None:
        z = _plus(p.z, _scaled([math.exp(-t * b) for b in solv.upper.exponents], q.z))
    return SolvPoint(p.height + q.height, x, z)


def inverse(solv, p: SolvPoint) -> SolvPoint:
    t = p.height
    x = z = None
    if solv.lower is not None:
        x = _scaled([-math.exp(-t * a) for a in solv.lower.exponents], p.x)
    if solv.upper is not None:
        z = _scaled([-math.exp(t * b) for b in solv.upper.exponents], p.z)
    return SolvPoint(-t, x, z)
