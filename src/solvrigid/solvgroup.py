"""The solvable model space: group law, level metrics, vertical geodesics,
the pair-to-point map, and the boundary correspondence for height isometries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, InputError
from .mapalg import SimMap
from .quasimetric import _block_norm, _exp, _per_element, _require_points, distance
from .spectral import SpectralData, floats


@dataclass(frozen=True)
class SolvSpec:
    """Lower/upper block data; upper may be absent (negatively curved case)."""

    lower: Optional[SpectralData]
    upper: Optional[SpectralData] = None

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            raise InputError("at least one of lower/upper must be present")

    @property
    def pure(self) -> bool:
        return self.upper is None

    def to_json(self) -> dict:
        out = {}
        if self.lower is not None:
            out["lower"] = self.lower.to_json()
        if self.upper is not None:
            out["upper"] = self.upper.to_json()
        return out

    @staticmethod
    def from_json(obj: dict | str) -> "SolvSpec":
        """The spec under 'lower' and 'upper' of a JSON object or its text; InputError otherwise."""
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            lower, upper = (SpectralData.from_json(obj[k]) if k in obj else None
                            for k in ("lower", "upper"))
        except (TypeError, ValueError) as exc:
            raise InputError(f"solvable spec must be a JSON object: {exc}") from None
        return SolvSpec(lower=lower, upper=upper)


@dataclass(frozen=True)
class SolvPoint:
    """A point (height, x, z) of the model space, or N of them as rows.

    One point: a float height, and x and z as ``(total_dim,)`` arrays. Rows:
    an ``(N,)`` array of heights, and x and z as ``(N, total_dim)`` arrays.
    """

    height: float | np.ndarray
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None


def _require_solv_points(spec: SolvSpec, *points) -> tuple[list[np.ndarray], list]:
    """Heights and coordinates of one point or of N rows per argument, all of one shape.

    Returns the heights, each a 0-d or ``(N,)`` array, and per factor (lower,
    upper) the coordinates of every point as ``(total_dim,)`` or
    ``(N, total_dim)`` arrays, read through _require_points, or None for an
    absent factor. A one-point argument is not shared by rows: mixed shapes
    raise DimensionMismatch, as does a height count that differs from the row
    count. Finiteness is checked on the result (see _solv_result).
    """
    heights = [floats(p.height, "heights") for p in points]
    coords = []
    for data, name in ((spec.lower, "x"), (spec.upper, "z")):
        xs = [getattr(p, name) for p in points]
        if data is not None and any(x is None for x in xs):
            raise InputError("point does not conform to the solvable spec")
        coords.append(None if data is None else _require_points(data, *xs))
    present = [x for c in coords if c is not None for x in c]
    leads = {h.shape for h in heights} | {x.shape[:-1] for x in present}
    if len(leads) > 1:
        raise DimensionMismatch(
            f"heights and coordinates of shapes {[a.shape for a in heights + present]} "
            "are neither one point nor N rows"
        )
    return heights, coords


def _height_factors(data: SpectralData, t: np.ndarray) -> np.ndarray:
    """e^(t alpha_i) per block, repeated over the block's coordinates.

    ``(total_dim,)`` for one height, ``(N, total_dim)`` for N, through
    ``_per_element``, so every row's factors are the one-point factors bit for
    bit. A factor beyond float range reads inf.
    """
    f = _per_element(_exp, np.multiply.outer(t, data.exponents))
    return f.repeat(data.multiplicities, axis=-1)


def _solv_result(inputs, height: np.ndarray, x, z) -> SolvPoint:
    """A SolvPoint of one point (a float height) or of rows.

    Every non-finite input makes the result non-finite, so the inputs are checked only then:
    InputError on a non-finite height or coordinate, DomainError where a factor
    e^(t alpha_i), a group-law product or an image is beyond float range.
    """
    if not all(np.isfinite(a).all() for a in (height, x, z) if a is not None):
        heights, coords = inputs
        if not all(np.isfinite(a).all()
                   for a in heights + [x for c in coords if c is not None for x in c]):
            raise InputError("point has a non-finite height or coordinate")
        raise DomainError("a factor e^(t alpha_i), a group-law product or an image "
                          "is beyond float range")
    return SolvPoint(height if height.ndim else float(height), x, z)


def multiply(spec: SolvSpec, p: SolvPoint, q: SolvPoint) -> SolvPoint:
    """(t, x, z) * (s, y, w) = (t + s, x + e^{tA} y, z + e^{-tB} w).

    For two points a point; for two SolvPoints of N rows a SolvPoint of N
    rows, each equal to the one-point product bit for bit.
    """
    inputs = _require_solv_points(spec, p, q)
    (t, s), (lower, upper) = inputs
    with np.errstate(over="ignore", invalid="ignore"):
        x = None if lower is None else lower[0] + _height_factors(spec.lower, t) * lower[1]
        z = None if upper is None else upper[0] + _height_factors(spec.upper, -t) * upper[1]
        return _solv_result(inputs, t + s, x, z)


def inverse(spec: SolvSpec, p: SolvPoint) -> SolvPoint:
    """(t, x, z)^-1 = (-t, -e^{-tA} x, -e^{tB} z), for one point or for rows as multiply."""
    inputs = _require_solv_points(spec, p)
    (t,), (lower, upper) = inputs
    with np.errstate(over="ignore", invalid="ignore"):
        x = None if lower is None else _height_factors(spec.lower, -t) * -lower[0]
        z = None if upper is None else _height_factors(spec.upper, t) * -upper[0]
        return _solv_result(inputs, -t, x, z)


def _level_terms(exponents: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """e^exponent * gap per element of two arrays of one shape; 0 where the gap is 0.

    The factor is ``_per_element``'s exp. Where it leaves the normal float
    range (it overflows, or underflows below 2^-1022), the term is
    exp(log gap + exponent) instead, which stays in range where the product
    does; every other term keeps the bits of the plain product.
    """
    factor = _per_element(_exp, exponents)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = factor * gaps
    far = (factor < 2.0 ** -1022) | (factor == math.inf)
    if far.any():
        terms[far] = [_exp(math.log(g) + e) if g else 0.0
                      for e, g in zip(exponents[far].tolist(), gaps[far].tolist())]
    return terms


def _level_gaps(spec: SolvSpec, t: np.ndarray, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The signed exponents (-alpha_i lower, beta_i upper) and the ``(r,)`` or
    ``(r, N)`` block gaps of p and q, checked against heights of t's shape."""
    p, q = ((a.x, a.z) if isinstance(a, SolvPoint) else a for a in (p, q))
    factors = [(data, sign, *_require_points(data, x, y)) for data, sign, x, y in
               ((spec.lower, -1.0, p[0], q[0]), (spec.upper, 1.0, p[1], q[1])) if data is not None]
    leads = {t.shape} - {()} | {x.shape[:-1] for _, _, x, _ in factors}
    if len(leads) > 1:
        raise DimensionMismatch(f"heights of shape {t.shape} and points of shapes "
                                f"{sorted(leads)} are neither one point nor N rows")
    signed, gaps = [], []
    # as in distance: _block_norm raises InputError on a non-finite gap and
    # keeps a gap whose square underflows
    with np.errstate(over="ignore", invalid="ignore"):
        for data, sign, x, y in factors:
            diff = x - y
            signed += [sign * a for a in data.exponents]
            gaps += [_block_norm(diff[..., s]) for s in data.block_slices()]
    return np.array(signed), np.array(gaps)


def _level_distance(t: np.ndarray, signed: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Distance within the height-t level sets, in max-of-blocks form, from _level_gaps.

    Lower blocks contract like e^{-t alpha_i}, upper blocks expand like
    e^{t beta_i}. A 0-d array for one point, an ``(N,)`` array for rows, each row
    equal to its one-point distance bit for bit. A distance beyond float range
    reads inf; a zero gap contributes 0 at any height. The heights t may be
    infinite where pair_to_point_bisect brackets a row whose height is beyond
    float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # one row of terms per block; (sign alpha_i) t is sign (t alpha_i) exactly
        exponents = np.multiply.outer(signed, np.broadcast_to(t, gaps.shape[1:]))
    return np.maximum(_level_terms(exponents, gaps).max(axis=0), 0.0)


@dataclass(frozen=True)
class VerticalGeodesic:
    """The curve t -> (orientation * t, anchor); its class is a boundary point."""

    anchor: tuple[Optional[np.ndarray], Optional[np.ndarray]]  # (total_dim,) arrays
    orientation: str = "downward"  # downward geodesics hit the lower boundary

    def __post_init__(self):
        if self.orientation not in ("upward", "downward"):
            raise InputError("orientation must be 'upward' or 'downward'")

    def sample_csv_rows(self, ts) -> list[list[float]]:
        """Per parameter t the row (height, anchor coordinates)."""
        t = floats(ts, "geodesic parameters")
        anchor = np.concatenate([np.zeros(0), *(a for a in self.anchor if a is not None)])
        heights = -t if self.orientation == "downward" else t
        return np.column_stack([heights, np.tile(anchor, (len(t), 1))]).tolist()


def pair_to_point(spec: SolvSpec, P, Q):
    """Height at which the vertical geodesics through p and q are unit-separated.

    Pure lower case; the height solves e^t = D(p, q) in closed form, t = log
    D(p, q), through one ``np.log`` for one point and rows alike. A float for
    two boundary points, an ``(N,)`` array for two ``(N, total_dim)`` rows.
    """
    if not spec.pure:
        raise InputError("pair-to-point map is defined for the pure lower case")
    d = distance(spec.lower, P, Q)
    if not np.all(d):
        raise DomainError("coincident boundary points have no divergence height")
    t = np.log(d)
    return float(t) if t.ndim == 0 else t


def _above_unit(t: np.ndarray, signed: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Whether the level distance at heights t exceeds 1, per row of the ``(r, N)`` gaps.

    numpy's exp settles a row whose largest term is more than 1e-12 away from 1: its
    factors differ from libm's by a few ulps, so the term is on the same side of 1. A
    row whose factors leave [2^-1021, 2^1023), where ``_level_terms`` may switch to the
    far-range formula, and every unsettled row get their sign from ``_level_distance``.
    """
    factor = np.exp(np.multiply.outer(signed, t))
    big = (factor * gaps).max(axis=0)
    above = big > 1.0
    rest = ~(np.abs(big - 1.0) > 1e-12) | (
        (factor < 2.0 ** -1021) | (factor >= 2.0 ** 1023)).any(axis=0)
    if rest.any():
        above[rest] = _level_distance(t[rest], signed, gaps[:, rest]) > 1.0
    return above


def pair_to_point_bisect(spec: SolvSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Root-finding oracle for the divergence heights: solve d_t(p, q) = 1 per row.

    ``P`` and ``Q`` are ``(N, total_dim)`` arrays of boundary points. Every
    row bisects its own bracket log D(p, q) +- 1 (from :func:`pair_to_point`)
    until that bracket is narrower than 1e-13, for at most 200 halvings. Only
    the side of 1 on which the level distance lies steers a halving, and it is
    ``_level_distance``'s side on rows at per-row heights (see ``_above_unit``).
    """
    logd = pair_to_point(spec, P, Q)
    if np.ndim(logd) != 1:
        raise DimensionMismatch(f"points of shape {np.shape(P)}, expected (N, total_dim) rows")
    signed, gaps = _level_gaps(spec, logd, (P, None), (Q, None))  # the block gaps, once
    lo, hi = logd - 1.0, logd + 1.0
    # a row whose height is beyond float range has a NaN bracket width (inf -
    # inf), so it is never live and reads inf; the sign at lo never changes
    with np.errstate(over="ignore", invalid="ignore"):
        above = _above_unit(lo, signed, gaps)
        for _ in range(200):
            live = np.abs(hi - lo) >= 1e-13
            if not live.any():
                break
            mid = 0.5 * (lo + hi)
            up = live & (above == _above_unit(mid, signed, gaps))
            lo = np.where(up, mid, lo)
            hi = np.where(live & ~up, mid, hi)
        return 0.5 * (lo + hi)


def boundary_of_height_isometry(spec: SolvSpec, a) -> SimMap:
    """Boundary map of height translation by a: the dilation by e^a, a stack for (B,) heights."""
    if not spec.pure:
        raise InputError("boundary correspondence implemented for the pure lower case")
    heights = floats(a, "height")
    if not np.isfinite(heights).all():
        raise InputError(f"height must be finite, got {a}")
    return SimMap(spec.lower, _per_element(_exp, heights))

