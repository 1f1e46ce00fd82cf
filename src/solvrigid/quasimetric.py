"""The block quasi-metric, standard dilations, and the chain functional."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InputError
from .spectral import SpectralData, floats, join_blocks, split_rows

# A sum of squares below this may have lost relative precision to underflow
# (each subnormal square is off by up to 2^-1075); such blocks, exact zeros
# included, are recomputed from entries scaled by their largest magnitude.
_SQ_MIN = 2.0 ** -960


def _block_norm(diff: np.ndarray):
    """Euclidean norm over the last axis of one block difference or of rows of them.

    The one per-block formula of the metric, for one point and for rows: the
    square root of the dot product, rescaled where the sum of squares is
    below ``_SQ_MIN`` or not finite. Raises InputError on a
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
    big = np.max(np.abs(diff), axis=-1, keepdims=True, initial=0.0)  # an empty block reads 0
    if not np.isfinite(big).all():
        raise InputError("point has a non-finite coordinate (or a block gap beyond float range)")
    unit = np.divide(diff, big, out=np.zeros_like(diff), where=big > 0.0)
    return big[..., 0] * np.sqrt(np.vecdot(unit, unit))


def _exp(x: float) -> float:
    """math.exp, reading inf beyond float range as distance does."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _per_element(fn, x) -> np.ndarray:
    """fn, libm's exp (``_exp``) or ``math.log``, of each element of x in x's shape: numpy's
    vectorized exp and log may round differently, and rows keep the one-point bits.

    This is the one home of that rule, and it has two exceptions, neither of which
    changes a returned bit. ``distance`` skips ``pow`` on a block of exponent 1, since
    pow(x, 1) is x for every x >= 0, 0 and inf included. ``pair_to_point_bisect``
    settles a sign from numpy's ``exp`` only where the largest term is more than 1e-12
    away from 1, a thousand times the few ulps by which the two exps differ; every
    other row gets its sign from libm's exp here.
    """
    x = np.asarray(x)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _require_points(spec: SpectralData, *points) -> list[np.ndarray]:
    """One point ``(total_dim,)`` or rows ``(N, total_dim)`` per argument, all of one shape."""
    out = [floats(p, "points") for p in points]
    for a in out:
        if a.ndim not in (1, 2) or a.shape[-1] != spec.total_dim or a.shape != out[0].shape:
            raise DimensionMismatch(
                f"points of shape {a.shape}, expected ({spec.total_dim},) or "
                f"(N, {spec.total_dim}) matching the other points"
            )
    return out


def distance(spec: SpectralData, P, Q):
    """max_i |x_i - y_i|^(1/alpha_i) with the Euclidean norm per block.

    A float for two points, an ``(N,)`` array for two ``(N, total_dim)``
    arrays of rows.
    """
    P, Q = _require_points(spec, P, Q)
    # a non-finite gap (inf - inf included) raises InputError in _block_norm;
    # a distance beyond float range reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = P - Q
        # np.float_power evaluates pow element by element as ``**`` on a float
        # does; the SIMD loop of np.power may round differently. pow(x, 1) is x.
        norms = [_block_norm(diff[..., s]) for s in spec.block_slices()]
        best = functools.reduce(np.maximum, [
            n if a == 1.0 else np.float_power(n, 1.0 / a) for a, n in zip(spec.exponents, norms)])
    return float(best) if np.ndim(best) == 0 else best


def dilate(spec: SpectralData, t: float, P) -> np.ndarray:
    """Scale block i by t^alpha_i; multiplies the quasi-metric by t exactly.

    A ``(total_dim,)`` array for one point, ``(N, total_dim)`` for rows.
    """
    t = floats(t, "dilation parameter")
    if t.ndim:
        raise DimensionMismatch(f"dilation parameter must be one number, not of shape {t.shape}")
    if not 0 < t < math.inf:
        raise DomainError(f"dilation parameter must be positive and finite, got {t}")
    try:
        factors = [float(t) ** a for a in spec.exponents]
    except OverflowError:
        raise DomainError(f"dilation factors of t = {t} are beyond float range") from None
    (P,) = _require_points(spec, P)
    # a coordinate beyond float range reads inf, and inf times an underflowed
    # factor NaN; distance raises InputError on either
    with np.errstate(over="ignore", invalid="ignore"):
        return P * np.repeat(factors, spec.multiplicities)


# chain_energy stops once a round lowers the estimate by less than this
STOP_DECREMENT = 1e-8


@dataclass(frozen=True)
class ChainGrid:
    """Subdivision control for the chain-functional estimate."""

    resolution: int = 1
    max_depth: int = 12

    def __post_init__(self):
        if self.resolution < 1 or self.max_depth < 1:
            raise InputError("resolution and max_depth must be >= 1")


@dataclass(frozen=True)
class ChainEnergyEstimate:
    value: float
    last_decrement: float
    rounds: int
    exit: str  # "converged" (a round lowered it by less than STOP_DECREMENT) or "max_depth"

    def __float__(self) -> float:
        return self.value


def _segment_chain_cost(gap: float, alpha: float, beta: float, k: int) -> float:
    # k equal subdivisions of a single-block move of length `gap`:
    # each chain step costs (gap/k)^(beta/alpha).
    with np.errstate(over="ignore"):  # a cost beyond float range reads inf
        return k * float(np.float_power(gap / k, beta / alpha))


def chain_energy(
    spec: SpectralData, beta: float, p: np.ndarray, q: np.ndarray, grid: ChainGrid
) -> ChainEnergyEstimate:
    """Upper estimate of the chain functional over axis-aligned interleaved chains.

    The chain changes one block at a time, each block move split into equal
    steps; the per-block subdivision count doubles each round and the
    running minimum over rounds is reported, together with the last-round
    decrement and the exit: "converged" or "max_depth".
    """
    if not beta > 0:
        raise DomainError(f"beta must be positive, got {beta}")
    P, Q = _require_points(spec, p, q)
    if P.ndim != 1:
        raise DimensionMismatch(f"points of shape {P.shape}, expected ({spec.total_dim},)")
    with np.errstate(over="ignore", invalid="ignore"):  # as in distance
        gaps = [_block_norm(P[s] - Q[s]) for s in spec.block_slices()]
    best_per_block = [float("inf")] * spec.r
    prev_total = float("inf")
    last_dec = float("inf")
    rounds, reason = 0, "max_depth"
    k = grid.resolution
    for depth in range(grid.max_depth):
        for i, (a, g) in enumerate(zip(spec.exponents, gaps)):
            best_per_block[i] = min(best_per_block[i], _segment_chain_cost(g, a, beta, k))
        total = sum(best_per_block)
        rounds = depth + 1
        if np.isfinite(prev_total):
            last_dec = prev_total - total
            if last_dec < STOP_DECREMENT:
                prev_total, reason = total, "converged"
                break
        prev_total = total
        k *= 2
    if not np.isfinite(last_dec):
        last_dec = 0.0
    return ChainEnergyEstimate(value=prev_total, last_decrement=last_dec, rounds=rounds,
                               exit=reason)


def enumerate_chain_cost(
    spec: SpectralData, beta: float, p: np.ndarray, q: np.ndarray, k: int
) -> float:
    """Brute-force chain cost: materialize the interleaved chain and sum D^beta.

    Oracle companion of :func:`chain_energy` at a fixed subdivision count. The
    chain's points are rows, and its steps are measured in one distance call.
    """
    P, Q = _require_points(spec, p, q)
    chain = [P]
    for s in spec.block_slices():
        for j in range(1, k + 1):
            chain.append(chain[-1].copy())
            chain[-1][s] = P[s] + (j / k) * (Q[s] - P[s])
    chain = np.array(chain)
    with np.errstate(over="ignore"):  # a cost beyond float range reads inf, as in distance
        return sum(np.float_power(distance(spec, chain[:-1], chain[1:]), beta).tolist())


def _image_rows(spec: SpectralData, F, P: np.ndarray) -> np.ndarray:
    """The ``(N, total_dim)`` rows of F's images of the rows of P, in one ``eval_blocks`` call."""
    # a constant component gives one block for every row
    return np.broadcast_to(join_blocks(F.eval_blocks(split_rows(spec, P))), P.shape)


def _qsim_logs(spec: SpectralData, F, samples) -> tuple[float, float, np.ndarray]:
    """(N, K, log ratios) on the sample pairs, pairs at distance 0 skipped; DomainError
    where an image gap is not finite or an image/preimage distance ratio is 0 or not finite."""
    if not hasattr(F, "eval_blocks"):
        raise InputError(f"{type(F).__name__} is not a boundary map: it has no eval_blocks")
    samples = floats(samples, "samples")
    if samples.ndim != 3 or samples.shape[1:] != (2, spec.total_dim):
        raise DimensionMismatch(
            f"samples of shape {samples.shape}, expected (N, 2, {spec.total_dim})"
        )
    P, Q = samples[:, 0], samples[:, 1]
    d = distance(spec, P, Q)
    keep = d != 0.0
    if not keep.any():
        raise InputError("no non-degenerate sample pairs")
    FP, FQ = _image_rows(spec, F, P[keep]), _image_rows(spec, F, Q[keep])
    with np.errstate(over="ignore", invalid="ignore"):  # beyond float range reads inf
        gaps = np.count_nonzero(~np.isfinite(FP - FQ).all(axis=1))
        if gaps:
            raise DomainError(f"{gaps} of {len(FP)} sample pairs have a non-finite image gap")
        ratios = distance(spec, FP, FQ) / d[keep]
    bad = np.count_nonzero(~((0.0 < ratios) & (ratios < math.inf)))
    if bad:
        raise DomainError(f"{bad} of {len(ratios)} sample pairs have an image/preimage "
                          "distance ratio that is 0 or not finite")
    logs = np.log(ratios)
    n = float(np.exp(logs.mean()))
    k = float(np.exp(np.abs(logs - logs.mean()).max()))
    return n, max(k, 1.0), logs


def estimate_qsim_constants(spec: SpectralData, F, samples) -> tuple[float, float]:
    """Empirical quasisimilarity constants (N, K) of a map on sampled pairs.

    N is the geometric mean of image/preimage distance ratios; K bounds the
    two-sided deviation from N. ``F`` is a boundary map with
    ``eval_blocks``, which maps all sample points in one call per side;
    ``samples`` is an ``(N, 2, total_dim)`` array of point pairs.
    """
    n, k, _ = _qsim_logs(spec, F, samples)
    return n, k
