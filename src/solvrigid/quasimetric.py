"""The block quasi-metric, standard dilations, and the chain functional."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InputError
from .spectral import BlockPoint, SpectralData

# A sum of squares below this may have lost relative precision to underflow
# (each subnormal square is off by up to 2^-1075); such blocks, exact zeros
# included, are recomputed from entries scaled by their largest magnitude.
_SQ_MIN = 2.0 ** -960


def _block_norm(diff: np.ndarray):
    """Euclidean norm over the last axis of one block difference or of rows of them.

    The one per-block formula of the metric, shared by the scalar and the row
    paths: the square root of the dot product, rescaled where the sum of
    squares is below ``_SQ_MIN`` or not finite. Raises InputError on a
    non-finite entry, so a NaN or infinite coordinate is never dropped.
    """
    sq = np.vecdot(diff, diff)
    if sq.ndim == 0:
        return math.sqrt(sq) if _SQ_MIN <= sq < math.inf else float(_rescaled_norm(diff))
    out = np.sqrt(sq)
    redo = ~((sq >= _SQ_MIN) & (sq < math.inf))
    if redo.any():
        out[redo] = _rescaled_norm(diff[redo])
    return out


def _rescaled_norm(diff: np.ndarray) -> np.ndarray:
    big = np.max(np.abs(diff), axis=-1, keepdims=True)
    if not np.isfinite(big).all():
        raise InputError("point has a non-finite coordinate (or a block gap beyond float range)")
    unit = np.divide(diff, big, out=np.zeros_like(diff), where=big > 0.0)
    return big[..., 0] * np.sqrt(np.vecdot(unit, unit))


def distance(spec: SpectralData, p: BlockPoint, q: BlockPoint) -> float:
    """max_i |x_i - y_i|^(1/alpha_i) with the Euclidean norm per block."""
    p.require_conforms(spec)
    q.require_conforms(spec)
    best = 0.0
    for a, x, y in zip(spec.exponents, p.blocks, q.blocks):
        d = _block_norm(x - y)
        if d > 0.0:
            best = max(best, d ** (1.0 / a))
    return best


def _require_rows(spec: SpectralData, *arrays) -> list[np.ndarray]:
    try:
        out = [np.asarray(a, dtype=float) for a in arrays]
    except (TypeError, ValueError, OverflowError):
        raise InputError("rows must be arrays of numbers") from None
    for a in out:
        if a.ndim != 2 or a.shape[1] != spec.total_dim or a.shape != out[0].shape:
            raise DimensionMismatch(
                f"rows of shape {a.shape}, expected (N, {spec.total_dim}) matching the other rows"
            )
    return out


def distance_rows(spec: SpectralData, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise :func:`distance` of two ``(N, total_dim)`` arrays of points."""
    P, Q = _require_rows(spec, P, Q)
    best = np.zeros(len(P))
    # a non-finite gap (inf - inf included) raises InputError in _block_norm;
    # a distance beyond float range reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = P - Q
        for a, s in zip(spec.exponents, spec.block_slices()):
            # np.float_power evaluates pow element by element as ``**`` on a
            # float does, so each row equals the scalar distance bit for bit;
            # the SIMD loop of np.power may round differently
            np.maximum(best, np.float_power(_block_norm(diff[:, s]), 1.0 / a), out=best)
    return best


def _dilation_factors(spec: SpectralData, t: float) -> list[float]:
    if not 0 < t < math.inf:
        raise DomainError(f"dilation parameter must be positive and finite, got {t}")
    try:
        return [t**a for a in spec.exponents]
    except OverflowError:
        raise DomainError(f"dilation factors of t = {t} are beyond float range") from None


def dilate(spec: SpectralData, t: float, p: BlockPoint) -> BlockPoint:
    """Scale block i by t^alpha_i; multiplies the quasi-metric by t exactly."""
    factors = _dilation_factors(spec, t)
    p.require_conforms(spec)
    return BlockPoint(tuple(f * x for f, x in zip(factors, p.blocks)))


def dilate_rows(spec: SpectralData, t: float, P: np.ndarray) -> np.ndarray:
    """Row-wise :func:`dilate` of an ``(N, total_dim)`` array of points."""
    factors = _dilation_factors(spec, t)
    (P,) = _require_rows(spec, P)
    # a coordinate beyond float range reads inf, and inf times an underflowed
    # factor NaN; distance_rows raises InputError on either
    with np.errstate(over="ignore", invalid="ignore"):
        return P * np.repeat(factors, spec.multiplicities)


@dataclass(frozen=True)
class ChainGrid:
    """Subdivision control for the chain-functional estimate."""

    resolution: int = 1
    max_depth: int = 12
    stop_decrement: float = 1e-8

    def __post_init__(self):
        if self.resolution < 1 or self.max_depth < 1:
            raise InputError("resolution and max_depth must be >= 1")


@dataclass(frozen=True)
class ChainEnergyEstimate:
    value: float
    last_decrement: float
    rounds: int

    def __float__(self) -> float:
        return self.value


def _segment_chain_cost(gap: float, alpha: float, beta: float, k: int) -> float:
    # k equal subdivisions of a single-block move of length `gap`:
    # each chain step costs (gap/k)^(beta/alpha).
    if gap == 0.0:
        return 0.0
    return k * (gap / k) ** (beta / alpha)


def chain_energy(
    spec: SpectralData, beta: float, p: BlockPoint, q: BlockPoint, grid: ChainGrid
) -> ChainEnergyEstimate:
    """Upper estimate of the chain functional over axis-aligned interleaved chains.

    The chain changes one block at a time, each block move split into equal
    steps; the per-block subdivision count doubles each round and the
    running minimum over rounds is reported, together with the last-round
    decrement so callers can judge convergence.
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    p.require_conforms(spec)
    q.require_conforms(spec)
    gaps = [_block_norm(x - y) for x, y in zip(p.blocks, q.blocks)]
    best_per_block = [float("inf")] * spec.r
    prev_total = float("inf")
    last_dec = float("inf")
    rounds = 0
    k = grid.resolution
    for depth in range(grid.max_depth):
        for i, (a, g) in enumerate(zip(spec.exponents, gaps)):
            best_per_block[i] = min(best_per_block[i], _segment_chain_cost(g, a, beta, k))
        total = sum(best_per_block)
        rounds = depth + 1
        if np.isfinite(prev_total):
            last_dec = prev_total - total
            if last_dec < grid.stop_decrement:
                prev_total = total
                break
        prev_total = total
        k *= 2
    if not np.isfinite(last_dec):
        last_dec = 0.0
    return ChainEnergyEstimate(value=prev_total, last_decrement=last_dec, rounds=rounds)


def enumerate_chain_cost(
    spec: SpectralData, beta: float, p: BlockPoint, q: BlockPoint, k: int
) -> float:
    """Brute-force chain cost: materialize the interleaved chain and sum D^beta.

    Oracle companion of :func:`chain_energy` at a fixed subdivision count.
    """
    cost = 0.0
    current = [x.copy() for x in p.blocks]
    for i in range(spec.r):
        target = q.blocks[i]
        for j in range(1, k + 1):
            nxt = [b.copy() for b in current]
            nxt[i] = p.blocks[i] + (j / k) * (target - p.blocks[i])
            cost += distance(spec, BlockPoint(tuple(current)), BlockPoint(tuple(nxt))) ** beta
            current = nxt
    return cost


def _qsim_logs(spec: SpectralData, F, samples) -> tuple[float, float, np.ndarray]:
    """(N, K, log ratios) on the sample pairs, pairs at distance 0 skipped."""
    ratios = []
    for p, q in samples:
        d = distance(spec, p, q)
        if d == 0.0:
            continue
        ratios.append(distance(spec, F(p), F(q)) / d)
    if not ratios:
        raise InputError("no non-degenerate sample pairs")
    logs = np.log(np.asarray(ratios))
    n = float(np.exp(logs.mean()))
    k = float(np.exp(np.abs(logs - logs.mean()).max()))
    return n, max(k, 1.0), logs


def estimate_qsim_constants(spec: SpectralData, F, samples) -> tuple[float, float]:
    """Empirical quasisimilarity constants (N, K) of a map on sampled pairs.

    N is the geometric mean of image/preimage distance ratios; K bounds the
    two-sided deviation from N. ``F`` maps BlockPoint to BlockPoint.
    """
    n, k, _ = _qsim_logs(spec, F, samples)
    return n, k
