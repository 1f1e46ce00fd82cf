"""The determinant-one SPD symmetric space: GL action, metrics, dilatation,
circumcenters, invariant foliated conformal structures, and measure checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, CoverageError, DomainError, InputError
from .quasimetric import distance
from .spectral import BlockPoint, SpectralData
from .tukia import walk_words


def conf_class(matrix) -> np.ndarray:
    """Validate and renormalize a symmetric positive definite det-one matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("conformal class must be a square matrix")
    if np.max(np.abs(a - a.T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise InputError("conformal class must be symmetric")
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise InputError("conformal class must be positive definite")
    det = float(np.prod(w))
    return a / det ** (1.0 / a.shape[0])


def act(X, A) -> np.ndarray:
    """X[A] = |det X|^(-2/n) X^T A X, renormalized to determinant one.

    The order convention is fixed by the cocycle (XY)[A] = Y[X[A]], which
    holds exactly and is what the invariance law of the structure field uses.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    det = float(np.linalg.det(X))
    if abs(det) < 1e-300 or not math.isfinite(det):
        raise DomainError("action matrix must be invertible")
    return conf_class(abs(det) ** (-2.0 / n) * X.T @ np.asarray(A, dtype=float) @ X)


def _sqrt_inv(A: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(A)
    return v @ np.diag(w ** -0.5) @ v.T


def _rel_eigvals(A, B) -> np.ndarray:
    """Eigenvalues of B in the frame where A is the identity."""
    s = _sqrt_inv(np.asarray(A, dtype=float))
    return np.linalg.eigvalsh(s @ np.asarray(B, dtype=float) @ s)


def kdist(A, B) -> float:
    """max(log lam_max, log 1/lam_min) of B relative to A; GL-invariant."""
    w = _rel_eigvals(A, B)
    return max(math.log(w[-1]), -math.log(w[0]), 0.0)


def ddist(A, B) -> float:
    """Riemannian distance: l2 norm of the relative log-eigenvalues."""
    w = _rel_eigvals(A, B)
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def dilatation(A) -> float:
    """exp of the k-distance from the identity; 1 means conformal."""
    return math.exp(kdist(np.eye(np.asarray(A).shape[0]), A))


def _geodesic_step(P: np.ndarray, A: np.ndarray, eta: float) -> np.ndarray:
    """Point at parameter eta on the geodesic from P to A."""
    w, v = np.linalg.eigh(P)
    ph = v @ np.diag(w**0.5) @ v.T
    pmh = v @ np.diag(w**-0.5) @ v.T
    mid = pmh @ A @ pmh
    mw, mv = np.linalg.eigh(0.5 * (mid + mid.T))
    powed = mv @ np.diag(mw**eta) @ mv.T
    return conf_class(ph @ powed @ ph)


def circumcenter(classes: Sequence[np.ndarray], tol: float = 1e-9, max_iters: int = 4000) -> np.ndarray:
    """Center of the smallest enclosing disk for the Riemannian metric.

    Minimax descent: step from the current center toward the farthest
    point with harmonic step sizes, keeping the best radius seen. The
    iteration is deterministic (first-index ties), so it commutes with the
    GL action applied to the whole input set.
    """
    if not classes:
        raise InputError("circumcenter of an empty set")
    mats = [conf_class(a) for a in classes]
    if len(mats) == 1:
        return mats[0]
    P = mats[0]
    best_P, best_r = P, max(ddist(P, a) for a in mats)
    stall = 0
    for it in range(max_iters):
        dists = [ddist(P, a) for a in mats]
        far = int(np.argmax(dists))
        radius = dists[far]
        if radius < best_r - tol * 0.01:
            best_P, best_r = P, radius
            stall = 0
        else:
            stall += 1
        if radius <= tol or stall > 200:
            break
        P = _geodesic_step(P, mats[far], 1.0 / (it + 2))
    if not math.isfinite(best_r):
        raise ConvergenceError("circumcenter iteration diverged", last_value=best_r)
    return best_P


@dataclass
class ConfField:
    """Conformal classes sampled on a finite grid, with per-point defects."""

    points: list[BlockPoint]
    values: list[np.ndarray]
    resolution: float
    defects: list[float] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    @cached_property
    def _flats(self) -> np.ndarray:
        """The sample points as rows, built on the first query."""
        return np.asarray([q.flat() for q in self.points])

    def nearest_index(self, p: BlockPoint) -> int:
        dist2 = np.sum((self._flats - p.flat()) ** 2, axis=1)
        idx = int(np.argmin(dist2))
        if math.sqrt(float(dist2[idx])) > self.resolution:
            raise CoverageError(
                f"point farther than grid resolution {self.resolution} from every sample"
            )
        return idx

    def value_at(self, p: BlockPoint) -> np.ndarray:
        return self.values[self.nearest_index(p)]


def invariant_structure(
    generators,
    grid: Sequence[BlockPoint],
    word_len: int,
    resolution: float = 1.0,
    tol: float = 1e-9,
) -> ConfField:
    """Circumcenter field of the word-orbit classes, with invariance defects.

    At each grid point the classes D[I] of all word Jacobians D up to
    word_len are collected and their circumcenter taken. The defect at a
    point is the worst generator violation of the transformation law
    mu(G p) = g'(p)[mu(p)], measured against the nearest grid sample.
    """
    n1 = grid[0].blocks[0].shape[0]

    def step(gi, state):
        # the first-block Jacobian follows the chain rule along the word
        cur, jac = state
        g = generators[gi]
        return g(cur), g.first_block_derivative(cur) @ jac

    points, values, skipped = [], [], []
    for idx, p in enumerate(grid):
        classes = []
        seen = set()
        walk = walk_words(range(len(generators)), word_len, (p, np.eye(n1)), step)
        try:
            for _, (_, jac) in walk:
                if abs(np.linalg.det(jac)) < 1e-12:
                    raise DomainError("singular first-block Jacobian")
                cls = act(jac, np.eye(n1))
                key = tuple(np.round(cls, 9).ravel())
                if key not in seen:
                    seen.add(key)
                    classes.append(cls)
        except DomainError:
            skipped.append(idx)
            continue
        points.append(p)
        values.append(circumcenter(classes, tol=tol))
    field_ = ConfField(points=points, values=values, resolution=resolution, skipped=skipped)
    defects = []
    for p, mu_p in zip(field_.points, field_.values):
        worst = 0.0
        for g in generators:
            gp = g(p)
            try:
                mu_gp = field_.value_at(gp)
            except CoverageError:
                continue
            pushed = act(g.first_block_derivative(p), mu_p)
            worst = max(worst, kdist(mu_gp, pushed))
        defects.append(worst)
    field_.defects = defects
    return field_


def conformality_defect(F, mu: ConfField, nu: ConfField, p: BlockPoint) -> float:
    """exp k( mu(p), f'(p)[nu(F p)] ); equals 1 at (mu, nu)-conformal points."""
    mu_p = mu.value_at(p)
    fp = F(p)
    nu_fp = nu.value_at(fp)
    pushed = act(F.first_block_derivative(p), nu_fp)
    return math.exp(kdist(mu_p, pushed))


def measure_distortion_check(
    F,
    spec: SpectralData,
    boxes: Sequence[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    samples: int = 2000,
    fd_step: float = 1e-5,
) -> tuple[float, float]:
    """Monte-Carlo volume-distortion band of F over axis boxes.

    Each box contributes the average |det DF| over uniform samples (the
    change-of-variables density); returns the (min, max) over boxes.
    Degenerate boxes are skipped.
    """
    n = spec.total_dim
    ratios = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != (n,) or hi.shape != (n,) or np.any(hi <= lo):
            continue
        acc = 0.0
        for _ in range(samples):
            x = rng.uniform(lo, hi)
            base = BlockPoint.from_flat(spec, x)
            f0 = F(base).flat()
            jac = np.empty((n, n))
            for j in range(n):
                xp = x.copy()
                h = fd_step * (1.0 + abs(x[j]))
                xp[j] += h
                jac[:, j] = (F(BlockPoint.from_flat(spec, xp)).flat() - f0) / h
            acc += abs(float(np.linalg.det(jac)))
        ratios.append(acc / samples)
    if not ratios:
        raise InputError("all boxes degenerate")
    return min(ratios), max(ratios)
