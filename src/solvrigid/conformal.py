"""The determinant-one SPD symmetric space: GL action, metrics, dilatation,
circumcenters, invariant foliated conformal structures, and measure checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, CoverageError, DomainError, InputError
from .nilpotent import walk_words
from .quasimetric import _exp, _image_rows
from .spectral import BlockPoint, SpectralData, require_blocks, split_rows


def _as_stack(matrix, what: str) -> np.ndarray:
    """``matrix`` as a float array: one square matrix or an (N, n, n) stack."""
    try:
        a = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be a matrix of numbers or a stack of them") from None
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise InputError(f"{what} must be a nonempty square matrix or a stack of them")
    return a


def conf_class(matrix) -> np.ndarray:
    """Validate and renormalize a symmetric positive definite det-one matrix,
    or each member of an (N, n, n) stack of them.

    Where a symmetrized member or its eigenvalue product leaves the float
    range, that member is first scaled by an exact power of two; every
    other member takes the plain path, bit for bit.
    """
    a = _as_stack(matrix, "conformal class")
    stack = a.reshape(-1, *a.shape[-2:])
    scale = np.abs(stack).max(axis=(1, 2))
    peak = scale.max()
    if not peak < math.inf:
        raise InputError("conformal class must be finite")
    # a member whose steps leave the float range is flagged by _det_one
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if (np.abs(stack - stack.mT) > 1e-12 * np.maximum(1.0, scale)[:, None, None]).any():
            raise InputError("conformal class must be symmetric")
        out, redo = _det_one(stack, peak)
        if redo.any():
            exps = np.frexp(scale[redo])[1][:, None, None]
            out[redo], redo = _det_one(np.ldexp(stack[redo], -exps), 1.0)
            if redo.any():
                raise InputError("conformal class is beyond float range")
    return out.reshape(a.shape)


def _det_one(a: np.ndarray, peak: float) -> tuple[np.ndarray, np.ndarray]:
    """0.5 (a + a^T) over the n-th root of its determinant for each member of
    the stack ``a``, and the mask of members where a step left the float
    range (their results are void); ``peak`` bounds the entries of ``a``."""
    a = 0.5 * (a + a.mT)
    redo = np.zeros(len(a), dtype=bool)
    # two entries below 2^1022 in magnitude cannot sum past the float range
    if peak >= 2.0**1022:
        redo = ~np.isfinite(a).all(axis=(1, 2))
        a[redo] = np.eye(a.shape[-1])  # the eigensolver sees finite members only
    w = np.linalg.eigvalsh(a)
    if not w[:, 0].min() > 0:
        raise InputError("conformal class must be positive definite")
    det = w.prod(axis=1)
    # np.float_power evaluates pow element by element as ``**`` on a float does
    root = np.float_power(det, 1.0 / a.shape[-1])
    a /= root[:, None, None]
    # no entry of a symmetric matrix exceeds its largest eigenvalue in
    # magnitude; a zero determinant makes this ratio inf
    top = w[:, -1] / root
    if not (top.max() < 2.0**1022 and det.max() < math.inf):
        redo |= (det == math.inf) | (~(top < 2.0**1022) & ~np.isfinite(a).all(axis=(1, 2)))
    return a, redo


def act(X, A) -> np.ndarray:
    """X[A] = |det X|^(-2/n) X^T A X, renormalized to determinant one.

    Either side may be an (N, n, n) stack, acted on member by member. The
    order convention is fixed by the cocycle (XY)[A] = Y[X[A]], which holds
    exactly and is what the invariance law of the structure field uses.
    """
    X = _as_stack(X, "action matrix")
    A = _as_stack(A, "conformal class")
    if X.shape[-1] != A.shape[-1] or (X.ndim == A.ndim == 3 and len(X) != len(A)):
        raise InputError("action matrices and classes must match in size and count")
    det = np.abs(np.linalg.det(X))
    if not (det.min() >= 1e-300 and det.max() < math.inf):
        raise DomainError("action matrix must be invertible")
    factor = np.float_power(det, -2.0 / X.shape[-1])[..., None, None]
    # a non-finite product is rejected by conf_class, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        moved = factor * X.mT @ A @ X
    return conf_class(moved)


def _sqrt_inv(A: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(A)
    if not w.min() > 0:
        raise InputError("conformal class must be positive definite")
    return (v * (w ** -0.5)[..., None, :]) @ v.mT


def _rel_eigvals(A, B) -> np.ndarray:
    """Eigenvalues of B in the frame where A is the identity (rows for stacks).

    InputError unless A and B are finite, of one size and (for two stacks)
    count, and these eigenvalues and those of A are finite and positive.
    """
    A, B = _as_stack(A, "conformal class"), _as_stack(B, "conformal class")
    if A.shape[-1] != B.shape[-1] or (A.ndim == B.ndim == 3 and len(A) != len(B)):
        raise InputError("conformal classes must match in size and count")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise InputError("conformal class must be finite")
    s = _sqrt_inv(A)
    # a product beyond float range is rejected here, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        rel = s @ B @ s
    if not np.isfinite(rel).all():
        raise InputError("conformal classes are too far apart for float range")
    w = np.linalg.eigvalsh(rel)
    if not w.min() > 0:
        raise InputError("conformal class must be positive definite")
    return w


def kdist(A, B):
    """max(log lam_max, log 1/lam_min) of B relative to A; GL-invariant.

    A float for two classes, an array for stacks (either side may be one class).
    """
    w = _rel_eigvals(A, B)
    # math.log, not np.log: numpy's vectorized log may differ by an ulp
    d = [max(math.log(hi), -math.log(lo), 0.0)
         for lo, hi in zip(w[..., 0].ravel().tolist(), w[..., -1].ravel().tolist())]
    return d[0] if w.ndim == 1 else np.array(d)


def ddist(A, B):
    """Riemannian distance: l2 norm of the relative log-eigenvalues.

    A float for two classes, an array for stacks (either side may be one class).
    """
    d = np.sqrt(np.sum(np.log(_rel_eigvals(A, B)) ** 2, axis=-1))
    return float(d) if d.ndim == 0 else d


def dilatation(A):
    """exp of the k-distance from the identity; 1 means conformal.

    A float for one class, an array for an (N, n, n) stack. A dilatation
    beyond float range reads inf.
    """
    A = _as_stack(A, "conformal class")
    d = kdist(np.eye(A.shape[-1]), A)
    return _exp(d) if A.ndim == 2 else np.array([_exp(x) for x in d.tolist()])


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
    if len(classes) == 0:
        raise InputError("circumcenter of an empty set")
    mats = conf_class(classes)
    if mats.ndim != 3:
        raise InputError("circumcenter takes a sequence of classes")
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


def circumcenter(classes: Sequence[np.ndarray], max_iters: int = 4000) -> np.ndarray:
    """Center of the smallest enclosing ball for the Riemannian metric.

    Raises ConvergenceError, carrying the certified gap, when the solver
    stops before the gap is at most 1e-9; see ``solve_circumcenter``.
    """
    res = solve_circumcenter(classes, tol=1e-9, max_iters=max_iters)
    if res.exit != "certified":
        raise ConvergenceError(
            f"circumcenter not certified ({res.exit} after {res.iterations} iterations): "
            f"gap {res.gap:.3g} above tol 1e-09",
            last_value=res.gap,
        )
    return res.center


@dataclass
class ConfField:
    """Conformal classes sampled at the ``(N, total_dim)`` rows ``points``,
    with per-point defects."""

    points: np.ndarray
    values: list[np.ndarray]
    resolution: float
    defects: list[float] = field(default_factory=list)
    skipped: list[int] = field(default_factory=list)

    def _nearest(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index of the sample nearest to each of the rows, and the mask of
        the rows that lie within the resolution of it."""
        dist2 = np.sum((self.points - rows[:, None]) ** 2, axis=-1)
        idx = np.argmin(dist2, axis=1)
        return idx, ~(np.sqrt(dist2[np.arange(len(rows)), idx]) > self.resolution)

    def nearest_index(self, p: BlockPoint) -> int:
        idx, covered = self._nearest(p.flat()[None])
        if not covered[0]:
            raise CoverageError(
                f"point farther than grid resolution {self.resolution} from every sample"
            )
        return int(idx[0])

    def value_at(self, p: BlockPoint) -> np.ndarray:
        return self.values[self.nearest_index(p)]


def _orbit_classes(generators, blocks: list[np.ndarray], word_len: int):
    """At each point of the row blocks, the distinct classes D[I] of the
    first-block Jacobians D of all words up to word_len, as a stack in word
    order.

    Returns the mask of the points where every such Jacobian is finite and
    invertible, and the stacks at those points in order.
    """
    n1 = blocks[0].shape[-1]

    def step(gi, state):
        # the first-block Jacobian follows the chain rule along the word's
        # quotient images
        y, jac = state
        g = generators[gi]
        return g.quotient(y), g._linear(y) @ jac

    start = (blocks[1:], np.broadcast_to(np.eye(n1), (len(blocks[0]), n1, n1)))
    with np.errstate(all="ignore"):
        walk = walk_words(range(len(generators)), word_len, start, step)
        jacs = np.stack([jac for _, (_, jac) in walk], axis=1)
        dets = np.abs(np.linalg.det(jacs))
    ok = ((dets >= 1e-12) & (dets < math.inf)).all(axis=1)
    if not ok.any():
        return ok, []
    alive = jacs[ok]
    classes = act(alive.reshape(-1, n1, n1), np.eye(n1))
    # the first word of each rounded class at each point, in word order
    owner = np.repeat(np.arange(len(alive)), alive.shape[1])
    keys = np.column_stack([owner, np.round(classes, 9).reshape(len(classes), -1)])
    first = np.sort(np.unique(keys, axis=0, return_index=True)[1])
    ends = np.cumsum(np.bincount(owner[first], minlength=len(alive)))[:-1]
    return ok, np.split(classes[first], ends)


def invariant_structure(
    generators,
    grid: np.ndarray,
    word_len: int,
    resolution: float = 1.0,
) -> ConfField:
    """Circumcenter field of the word-orbit classes, with invariance defects.

    ``grid`` holds the sample points as ``(N, total_dim)`` rows. At each
    grid point the classes D[I] of all word Jacobians D up to word_len are
    collected, walking the words once for the whole grid, and their
    circumcenter taken, certified to a gap of 1e-9 (``circumcenter``); a
    point where a Jacobian is singular or not finite is skipped. The defect
    at a point is the worst generator violation of the transformation law
    mu(G p) = g'(p)[mu(p)], measured against the nearest grid sample.
    """
    spec = generators[0].spec
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise InputError("grid must be (N, total_dim) rows")
    ok, orbits = _orbit_classes(generators, require_blocks(spec, split_rows(spec, grid)), word_len)
    points = grid[ok]
    values = [circumcenter(classes) for classes in orbits]
    field_ = ConfField(points=points, values=values, resolution=resolution,
                       skipped=np.flatnonzero(~ok).tolist())
    # per generator, one stacked act and kdist over the points whose image
    # lies on the grid
    defects = np.zeros(len(points))
    if values:
        mus = np.stack(values)
        for g in generators:
            idx, covered = field_._nearest(_image_rows(spec, g, points))
            if covered.any():
                derivs = g.first_block_derivative(split_rows(spec, points))[covered]
                pushed = act(derivs, mus[covered])
                defects[covered] = np.maximum(defects[covered], kdist(mus[idx[covered]], pushed))
    field_.defects = defects.tolist()
    return field_


def conformality_defect(F, mu: ConfField, nu: ConfField, p: BlockPoint) -> float:
    """exp k( mu(p), f'(p)[nu(F p)] ); equals 1 at (mu, nu)-conformal points."""
    mu_p = mu.value_at(p)
    nu_fp = nu.value_at(F(p))
    pushed = act(F.first_block_derivative(p.blocks), nu_fp)
    return math.exp(kdist(mu_p, pushed))


def measure_distortion_check(
    F,
    spec: SpectralData,
    boxes: Sequence[tuple[np.ndarray, np.ndarray]],
    rng: np.random.Generator,
    samples: int = 2000,
) -> tuple[float, float]:
    """Monte-Carlo volume-distortion band of a boundary map F over axis boxes.

    Each box contributes the average |det DF| over uniform samples (the
    change-of-variables density), DF taken by forward differences of step
    1e-5 (1 + |x_j|); returns the (min, max) over boxes. F maps every
    sample of a box and its n moved copies in one ``eval_blocks`` call.
    Degenerate boxes are skipped.
    """
    n = spec.total_dim
    ratios = []
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != (n,) or hi.shape != (n,) or np.any(hi <= lo):
            continue
        x = rng.uniform(lo, hi, (samples, n))
        h = 1e-5 * (1.0 + np.abs(x))
        # per sample: the sample, then the sample with coordinate j moved by h_j
        moved = np.repeat(x[:, None], n + 1, axis=1)
        moved[:, np.arange(1, n + 1), np.arange(n)] += h
        images = _image_rows(spec, F, moved.reshape(-1, n)).reshape(samples, n + 1, n)
        jacs = ((images[:, 1:] - images[:, :1]) / h[..., None]).mT
        # np.cumsum adds in sample order, as a loop does; np.sum adds pairwise
        ratios.append(np.cumsum(np.abs(np.linalg.det(jacs)))[-1] / samples)
    if not ratios:
        raise InputError("all boxes degenerate")
    return float(min(ratios)), float(max(ratios))
