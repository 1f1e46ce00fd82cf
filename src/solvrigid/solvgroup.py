"""The solvable model space: group law, level metrics, vertical geodesics,
the pair-to-point map, and the boundary correspondence for height isometries."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InputError
from .mapalg import SimMap, check_triangularity
from .quasimetric import distance, distance_rows
from .spectral import BlockPoint, SpectralData


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
        if isinstance(obj, str):
            obj = json.loads(obj)
        lower = SpectralData.from_json(obj["lower"]) if "lower" in obj else None
        upper = SpectralData.from_json(obj["upper"]) if "upper" in obj else None
        return SolvSpec(lower=lower, upper=upper)


@dataclass(frozen=True)
class SolvPoint:
    height: float
    x: Optional[BlockPoint] = None
    z: Optional[BlockPoint] = None

    def conforms(self, spec: SolvSpec) -> bool:
        ok = True
        if spec.lower is not None:
            ok = ok and self.x is not None and self.x.conforms(spec.lower)
        if spec.upper is not None:
            ok = ok and self.z is not None and self.z.conforms(spec.upper)
        return ok

    def require_conforms(self, spec: SolvSpec) -> None:
        if not self.conforms(spec):
            raise InputError("point does not conform to the solvable spec")


def identity_point(spec: SolvSpec) -> SolvPoint:
    return SolvPoint(
        height=0.0,
        x=BlockPoint.zero(spec.lower) if spec.lower is not None else None,
        z=BlockPoint.zero(spec.upper) if spec.upper is not None else None,
    )


def _scale_blocks(data: Optional[SpectralData], p: Optional[BlockPoint], factors) -> Optional[BlockPoint]:
    if data is None:
        return None
    return BlockPoint(tuple(f * b for f, b in zip(factors, p.blocks)))


def multiply(spec: SolvSpec, p: SolvPoint, q: SolvPoint) -> SolvPoint:
    """(t, x, z) * (s, y, w) = (t + s, x + e^{tA} y, z + e^{-tB} w)."""
    p.require_conforms(spec)
    q.require_conforms(spec)
    t = p.height
    x = None
    if spec.lower is not None:
        factors = [math.exp(t * a) for a in spec.lower.exponents]
        x = p.x + _scale_blocks(spec.lower, q.x, factors)
    z = None
    if spec.upper is not None:
        factors = [math.exp(-t * b) for b in spec.upper.exponents]
        z = p.z + _scale_blocks(spec.upper, q.z, factors)
    return SolvPoint(height=p.height + q.height, x=x, z=z)


def inverse(spec: SolvSpec, p: SolvPoint) -> SolvPoint:
    p.require_conforms(spec)
    t = p.height
    x = None
    if spec.lower is not None:
        factors = [math.exp(-t * a) for a in spec.lower.exponents]
        x = _scale_blocks(spec.lower, -p.x, factors)
    z = None
    if spec.upper is not None:
        factors = [math.exp(t * b) for b in spec.upper.exponents]
        z = _scale_blocks(spec.upper, -p.z, factors)
    return SolvPoint(height=-t, x=x, z=z)


def level_distance(
    spec: SolvSpec,
    t: float,
    p: tuple[Optional[BlockPoint], Optional[BlockPoint]] | SolvPoint,
    q: tuple[Optional[BlockPoint], Optional[BlockPoint]] | SolvPoint,
) -> float:
    """Distance within the height-t level set, in max-of-blocks form.

    Lower blocks contract like e^{-t alpha_i}, upper blocks expand like
    e^{t beta_i}.
    """
    if isinstance(p, SolvPoint):
        p = (p.x, p.z)
    if isinstance(q, SolvPoint):
        q = (q.x, q.z)
    best = 0.0
    if spec.lower is not None:
        for a, xb, yb in zip(spec.lower.exponents, p[0].blocks, q[0].blocks):
            best = max(best, math.exp(-t * a) * float(np.linalg.norm(xb - yb)))
    if spec.upper is not None:
        for b, zb, wb in zip(spec.upper.exponents, p[1].blocks, q[1].blocks):
            best = max(best, math.exp(t * b) * float(np.linalg.norm(zb - wb)))
    return best


@dataclass(frozen=True)
class VerticalGeodesic:
    """The curve t -> (orientation * t, anchor); its class is a boundary point."""

    anchor: tuple[Optional[BlockPoint], Optional[BlockPoint]]
    orientation: str = "downward"  # downward geodesics hit the lower boundary

    def __post_init__(self):
        if self.orientation not in ("upward", "downward"):
            raise InputError("orientation must be 'upward' or 'downward'")

    def point_at(self, t: float) -> SolvPoint:
        h = -t if self.orientation == "downward" else t
        return SolvPoint(height=h, x=self.anchor[0], z=self.anchor[1])

    def sample_csv_rows(self, ts) -> list[list[float]]:
        rows = []
        for t in ts:
            p = self.point_at(float(t))
            row = [p.height]
            if p.x is not None:
                row.extend(p.x.flat().tolist())
            if p.z is not None:
                row.extend(p.z.flat().tolist())
            rows.append(row)
        return rows


def pair_to_point(spec: SolvSpec, p: BlockPoint, q: BlockPoint) -> SolvPoint:
    """Point where the vertical geodesics through p and q are unit-separated.

    Pure lower case; the height solves e^t = D(p, q) in closed form.
    """
    if not spec.pure:
        raise InputError("pair-to-point map is defined for the pure lower case")
    d = distance(spec.lower, p, q)
    if d == 0.0:
        raise DomainError("coincident boundary points have no divergence height")
    return SolvPoint(height=math.log(d), x=p, z=None)


def pair_to_point_heights(spec: SolvSpec, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise heights of :func:`pair_to_point`: the log of each row distance.

    ``P`` and ``Q`` are ``(N, total_dim)`` arrays of boundary points.
    """
    if not spec.pure:
        raise InputError("pair-to-point map is defined for the pure lower case")
    d = distance_rows(spec.lower, P, Q)
    if not d.all():
        raise DomainError("coincident boundary points have no divergence height")
    return np.log(d)


def pair_to_point_bisect(
    spec: SolvSpec, p: BlockPoint, q: BlockPoint, tol: float = 1e-13, max_iter: int = 200
) -> float:
    """Root-finding oracle for the divergence height: solve d_t(p, q) = 1."""
    if not spec.pure:
        raise InputError("pair-to-point map is defined for the pure lower case")
    d = distance(spec.lower, p, q)
    if d == 0.0:
        raise DomainError("coincident boundary points have no divergence height")
    lo, hi = math.log(d) - 1.0, math.log(d) + 1.0
    flo = level_distance(spec, lo, (p, None), (q, None)) - 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = level_distance(spec, mid, (p, None), (q, None)) - 1.0
        if abs(hi - lo) < tol:
            break
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def boundary_of_height_isometry(spec: SolvSpec, a: float) -> SimMap:
    """Boundary map of height translation by a: the dilation by e^a."""
    if not spec.pure:
        raise InputError("boundary correspondence implemented for the pure lower case")
    return SimMap.dilation(spec.lower, math.exp(a))


@dataclass(frozen=True)
class SuspendedMap:
    """Quasi-isometry of the model space acting by G on space and +a on height."""

    spec: SolvSpec
    boundary: Callable[[BlockPoint], BlockPoint]
    shift: float

    def __call__(self, p: SolvPoint) -> SolvPoint:
        p.require_conforms(self.spec)
        return SolvPoint(height=p.height + self.shift, x=self.boundary(p.x), z=p.z)


def suspend_boundary_map(spec: SolvSpec, G, a: float, *, probes: int = 50) -> SuspendedMap:
    """Extend a boundary map to the model space: spatial action plus height shift."""
    if not spec.pure:
        raise InputError("suspension implemented for the pure lower case")
    if not hasattr(G, "components"):  # opaque maps get the probe check
        verdict = check_triangularity(G, spec.lower, probes=probes)
        if not verdict.passed:
            raise InputError(
                f"boundary map failed the triangularity check at {verdict.worst_pair} "
                f"(response {verdict.worst_response:.3e})"
            )
    return SuspendedMap(spec=spec, boundary=G, shift=a)
