"""The determinant-one SPD symmetric space: GL action, metrics, dilatation,
circumcenters, invariant foliated conformal structures, and measure checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, CoverageError, DomainError, InputError
from .nilpotent import walk_words
from .quasimetric import distance
from .spectral import BlockPoint, SpectralData


def conf_class(matrix) -> np.ndarray:
    """Validate and renormalize a symmetric positive definite det-one matrix.

    Where the symmetrized matrix or the eigenvalue product leaves the float
    range, the matrix is first scaled by an exact power of two; any other
    input takes the plain path, bit for bit.
    """
    try:
        a = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError("conformal class must be a matrix of numbers") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError("conformal class must be a nonempty square matrix")
    scale = float(np.abs(a).max())
    if not math.isfinite(scale):
        raise InputError("conformal class must be finite")
    with np.errstate(over="ignore"):
        if np.abs(a - a.T).max() > 1e-12 * max(1.0, scale):
            raise InputError("conformal class must be symmetric")
        out = _det_one(a, scale)
        if out is None:
            out = _det_one(np.ldexp(a, -math.frexp(scale)[1]), 1.0)
    if out is None:
        raise InputError("conformal class is beyond float range")
    return out


def _det_one(a: np.ndarray, scale: float) -> Optional[np.ndarray]:
    """0.5 (a + a^T) over the n-th root of its determinant, or None where a
    step leaves the float range; ``scale`` bounds the entries of ``a``."""
    a = 0.5 * (a + a.T)
    # two entries below 2^1022 in magnitude cannot sum past the float range
    if scale >= 2.0**1022 and not np.isfinite(a).all():
        return None
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0:
        raise InputError("conformal class must be positive definite")
    det = float(np.prod(w))
    if det == 0.0 or not math.isfinite(det):
        return None
    root = det ** (1.0 / a.shape[0])
    a = a / root
    # no entry of a symmetric matrix exceeds its largest eigenvalue in magnitude
    if not w[-1] / root < 2.0**1022 and not np.isfinite(a).all():
        return None
    return a


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


def _whitened_logs(Q: np.ndarray, mats: np.ndarray):
    """Q^(+-1/2), the logs L_i = log(Q^(-1/2) A_i Q^(-1/2)) and their norms.

    The norm of L_i is ddist(Q, A_i); one stacked eigh serves every class.
    """
    w, v = np.linalg.eigh(Q)
    qh = (v * w**0.5) @ v.T
    qmh = (v * w**-0.5) @ v.T
    rel = qmh @ mats @ qmh
    mw, mv = np.linalg.eigh(0.5 * (rel + np.swapaxes(rel, 1, 2)))
    lw = np.log(mw)
    logs = (mv * lw[:, None, :]) @ np.swapaxes(mv, 1, 2)
    return qh, logs, np.sqrt(np.sum(lw**2, axis=1))


def _affine_fit(G: np.ndarray, S: list[int], rhs: np.ndarray) -> np.ndarray:
    """Solve [[G_SS, 1], [1^T, 0]] [x; t] = [rhs; 1] for the weights x."""
    m = len(S)
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = G[np.ix_(S, S)]
    kkt[m, m] = 0.0
    return np.linalg.solve(kkt, np.append(rhs, 1.0))[:m]


def _meb_weights(G: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights lam on the simplex maximizing lam.diag(G) - lam^T G lam, and
    that value.

    This is the dual of the Euclidean minimum enclosing ball of points given
    by their Gram matrix G: the center is sum lam_i L_i and the optimal value
    is the squared radius. A primal active-set method: the support S stays
    affinely independent (at most dimension + 1 points), the point that lies
    farthest outside the current ball joins S, and a point whose weight would
    turn negative leaves it. A joining point in the affine hull of S replaces
    one point of S instead, along the direction that keeps the center. Every
    decision reads G alone and breaks ties at the first index, so the result
    is invariant under isometries of the points. Any lam returned is feasible,
    so its dual value is a lower bound on the radius even where rounding
    stops the method early.
    """
    k = G.shape[0]
    d = np.diag(G).copy()
    scale = max(float(np.max(d)), 1e-300)

    def value(weights):
        return float(weights @ d - weights @ G @ weights)

    lam = np.zeros(k)
    first = int(np.argmax(d))
    lam[first] = 1.0
    S = [first]
    best = value(lam)
    for _ in range(4 * k + 16):
        g = d - 2.0 * (G @ lam)  # |L_i - c|^2 - |c|^2
        out = g.copy()
        out[S] = -np.inf
        j = int(np.argmax(out))
        if not out[j] > np.max(g[S]) + 1e-13 * scale:
            break
        new = lam.copy()
        a = _affine_fit(G, S, G[S, j])
        if G[j, j] - 2.0 * a @ G[S, j] + a @ G[np.ix_(S, S)] @ a <= 1e-12 * scale * (1.0 + a @ a):
            # L_j = sum a_i L_i up to rounding: trade weight from S to j along
            # the direction that keeps the center; S stays affinely independent
            pos = a > 0.0
            ratios = np.where(pos, new[S] / np.where(pos, a, 1.0), np.inf)
            drop = int(np.argmin(ratios))
            new[S] -= ratios[drop] * a
            new[j] = ratios[drop]
            new[S[drop]] = 0.0
            S[drop] = j
        else:
            S.append(j)
        while True:
            mu = _affine_fit(G, S, 0.5 * d[S])
            if np.all(mu > 0.0):
                new[S] = mu
                break
            # step toward mu until the first weight reaches zero, and drop it
            cur = new[S]
            neg = mu <= 0.0
            ratios = np.where(neg, cur / np.where(neg & (cur > mu), cur - mu, 1.0), np.inf)
            drop = int(np.argmin(ratios))
            new[S] = cur + ratios[drop] * (mu - cur)
            new[S[drop]] = 0.0
            del S[drop]
        np.maximum(new, 0.0, out=new)
        new /= np.sum(new)
        # each exact step raises the dual value; rounding that stops it ends the method
        val = value(new)
        if not val > best:
            break
        lam, best = new, val
    return lam, best


@dataclass(frozen=True)
class CircumcenterResult:
    """A circumcenter with its certificate.

    ``radius`` is max_i ddist(center, A_i); ``lower`` is a proven lower bound
    on the smallest such radius over all centers, so ``gap`` bounds how far
    ``radius`` is from optimal. ``exit`` is "certified" (gap <= tol),
    "max_iters", or "no_descent" (no step shortens the radius in floating
    point).
    """

    center: np.ndarray
    radius: float
    lower: float
    iterations: int
    exit: str

    @property
    def gap(self) -> float:
        # at the optimum rounding can put lower a few ulps above radius
        return max(self.radius - self.lower, 0.0)


def solve_circumcenter(
    classes: Sequence[np.ndarray], tol: float = 1e-9, max_iters: int = 4000
) -> CircumcenterResult:
    """Center of the smallest enclosing ball for the Riemannian metric, certified.

    In a Hadamard space log_Q is 1-Lipschitz for every Q (CAT(0)
    comparison), so the Euclidean minimum enclosing ball of the tangent
    vectors L_i = log_Q(A_i) has radius at most the circumradius: a lower
    bound, while max_i |L_i| = max_i ddist(Q, A_i) is an upper one. Each
    iteration solves that ball exactly and moves Q to exp_Q(s c) toward its
    center c, halving s until the radius strictly decreases, and stops once
    upper - best lower <= tol. Every decision reads GL-invariant numbers
    (the Gram matrix of the L_i and the distances) and breaks ties at the
    first index, and the move exp_Q is GL-equivariant, so the solver
    commutes with the GL action applied to the whole input set.
    """
    if not classes:
        raise InputError("circumcenter of an empty set")
    mats = np.stack([conf_class(a) for a in classes])
    Q = mats[0]
    if len(mats) == 1:
        return CircumcenterResult(Q, 0.0, 0.0, 0, "certified")
    qh, logs, radii = _whitened_logs(Q, mats)
    radius, lower = float(np.max(radii)), 0.0
    exit_ = "max_iters"
    it = 0
    while it < max_iters:
        it += 1
        G = np.einsum("iab,jab->ij", logs, logs)
        lam, value = _meb_weights(G)
        lower = max(lower, math.sqrt(max(value, 0.0)))
        if radius - lower <= tol:
            exit_ = "certified"
            break
        w, v = np.linalg.eigh(np.einsum("i,iab->ab", lam, logs))
        s = 1.0
        while s > 1e-12:
            step = qh @ (v * np.exp(s * w)) @ v.T @ qh
            trial = conf_class(0.5 * (step + step.T))
            t_qh, t_logs, t_radii = _whitened_logs(trial, mats)
            if float(np.max(t_radii)) < radius:
                Q, qh, logs, radius = trial, t_qh, t_logs, float(np.max(t_radii))
                break
            s *= 0.5
        else:
            exit_ = "no_descent"
            break
    return CircumcenterResult(Q, radius, lower, it, exit_)


def circumcenter(classes: Sequence[np.ndarray], tol: float = 1e-9, max_iters: int = 4000) -> np.ndarray:
    """Center of the smallest enclosing ball for the Riemannian metric.

    Raises ConvergenceError, carrying the certified gap, when the solver
    stops before the gap is at most tol; see ``solve_circumcenter``.
    """
    res = solve_circumcenter(classes, tol=tol, max_iters=max_iters)
    if res.exit != "certified":
        raise ConvergenceError(
            f"circumcenter not certified ({res.exit} after {res.iterations} iterations): "
            f"gap {res.gap:.3g} above tol {tol:.3g}",
            last_value=res.gap,
        )
    return res.center


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


def _orbit_classes(generators, p: BlockPoint, word_len: int) -> list[np.ndarray]:
    """The distinct classes D[I] of the first-block Jacobians D of all words
    up to word_len at p; DomainError where one of them is singular."""
    n1 = p.blocks[0].shape[0]

    def step(gi, state):
        # the first-block Jacobian follows the chain rule along the word
        cur, jac = state
        g = generators[gi]
        return g(cur), g.first_block_derivative(cur) @ jac

    classes = []
    seen = set()
    for _, (_, jac) in walk_words(range(len(generators)), word_len, (p, np.eye(n1)), step):
        if abs(np.linalg.det(jac)) < 1e-12:
            raise DomainError("singular first-block Jacobian")
        cls = act(jac, np.eye(n1))
        key = tuple(np.round(cls, 9).ravel())
        if key not in seen:
            seen.add(key)
            classes.append(cls)
    return classes


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
    points, values, skipped = [], [], []
    for idx, p in enumerate(grid):
        try:
            classes = _orbit_classes(generators, p, word_len)
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
