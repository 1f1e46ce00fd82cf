"""The determinant-one SPD symmetric space: GL action, metrics, dilatation,
circumcenters, and invariant foliated conformal structures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, CoverageError, DimensionMismatch, DomainError, InputError
from .nilpotent import walk_words
from .quasimetric import _exp, _image_rows, _per_element
from .spectral import floats, require_blocks, split_rows


def _as_stack(matrix, what: str) -> np.ndarray:
    """``matrix`` as a float array: one square matrix or an (N, n, n) stack."""
    a = floats(matrix, what)
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
    scale = _symmetric_scale(stack)
    peak = scale.max()
    if not peak < math.inf:
        raise InputError("conformal class must be finite")
    # a member whose steps leave the float range is flagged by _det_one
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out, redo = _det_one(stack, peak)
        if redo.any():
            exps = np.frexp(scale[redo])[1][:, None, None]
            out[redo], redo = _det_one(np.ldexp(stack[redo], -exps), 1.0)
            if redo.any():
                raise InputError("conformal class is beyond float range")
    return out.reshape(a.shape)


def _symmetric_scale(a: np.ndarray) -> np.ndarray:
    """Each member's largest entry magnitude, for an (n, n) or (N, n, n) ``a``; InputError unless
    each finite member is symmetric to 1e-12 max(1, that magnitude), entry by entry."""
    scale = np.abs(a).max(axis=(-2, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        if (np.abs(a - a.mT) > 1e-12 * np.maximum(1.0, scale)[..., None, None]).any():
            raise InputError("conformal class must be symmetric")
    return scale


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
    try:
        w, v = np.linalg.eigh(A)
    except np.linalg.LinAlgError:  # LAPACK need not converge on entries near float range
        raise InputError("conformal class has no eigendecomposition in float range") from None
    if not w.min() > 0:
        raise InputError("conformal class must be positive definite")
    return (v * (w ** -0.5)[..., None, :]) @ v.mT


def _rel_eigvals(A, B) -> np.ndarray:
    """Eigenvalues of B in the frame where A is the identity (rows for stacks).

    InputError unless A and B are finite, symmetric as in ``conf_class``, of one size and (for
    two stacks) count, and these eigenvalues and those of A are finite and positive.
    """
    A, B = _as_stack(A, "conformal class"), _as_stack(B, "conformal class")
    if A.shape[-1] != B.shape[-1] or (A.ndim == B.ndim == 3 and len(A) != len(B)):
        raise InputError("conformal classes must match in size and count")
    # a largest magnitude is finite (not NaN or inf) only where every entry is
    if not (_symmetric_scale(A).max() < math.inf and _symmetric_scale(B).max() < math.inf):
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
    Raw symmetric classes are read as given, not scaled to determinant one.
    """
    w = _rel_eigvals(A, B)
    d = np.maximum(np.maximum(_per_element(math.log, w[..., -1]),
                              -_per_element(math.log, w[..., 0])), 0.0)
    return float(d) if w.ndim == 1 else d


def ddist(A, B):
    """Riemannian distance: l2 norm of the relative log-eigenvalues.

    A float for two classes, an array for stacks, read as kdist reads them.
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
    return _exp(d) if A.ndim == 2 else _per_element(_exp, d)


def _whitened_logs(Q: np.ndarray, mats: np.ndarray):
    """Q^(+-1/2), the logs L_i = log(Q^(-1/2) A_i Q^(-1/2)) and their norms,
    for a (P, n, n) stack of centers Q and the (P, k, n, n) class sets.

    The norm of L_i is ddist(Q, A_i); one stacked eigh serves every class.
    A class singular to float precision can have an eigenvalue <= 0 here: InputError.
    """
    w, v = np.linalg.eigh(Q)
    if not w.min() > 0:
        raise InputError("conformal class must be positive definite")
    qh = (v * (w**0.5)[:, None]) @ v.mT
    qmh = (v * (w**-0.5)[:, None]) @ v.mT
    rel = qmh[:, None] @ mats @ qmh[:, None]
    mw, mv = np.linalg.eigh(0.5 * (rel + rel.mT))
    if not mw.min() > 0:
        raise InputError("conformal class must be positive definite")
    lw = np.log(mw)
    logs = (mv * lw[..., None, :]) @ mv.mT
    return qh, logs, np.sqrt(np.sum(lw**2, axis=-1))


def _support_gram(G: np.ndarray, rows: np.ndarray, S: np.ndarray) -> np.ndarray:
    """G_SS of the problems ``rows`` on their (P, m) supports S, in S order."""
    return G[rows[:, None, None], S[:, :, None], S[:, None, :]]


def _affine_fits(GSS: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve [[G_SS, 1], [1^T, 0]] [x; t] = [rhs; 1] for the weights x, one
    system per member of the (P, m, m) stack GSS and row of the (P, m) rhs."""
    P, m = rhs.shape
    kkt = np.ones((P, m + 1, m + 1))
    kkt[:, :m, :m] = GSS
    kkt[:, m, m] = 0.0
    b = np.ones((P, m + 1, 1))
    b[:, :m, 0] = rhs
    return np.linalg.solve(kkt, b)[:, :m, 0]


def _by_size(size: np.ndarray):
    """(m, rows) for each support size m, the rows of the problems with it."""
    return [(m, np.flatnonzero(size == m)) for m in sorted(set(size.tolist()))]


def _dual_value(lam: np.ndarray, d: np.ndarray, G: np.ndarray) -> np.ndarray:
    return np.vecdot(lam, d) - np.vecdot(np.vecmat(lam, G), lam)


def _meb_weights(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights lam on the simplex maximizing lam.diag(G) - lam^T G lam, and
    that value, for each Gram matrix of the (P, k, k) stack G.

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

    The problems run in lock step and never mix: each stops at its own step,
    and the KKT systems are solved stacked, one call per support size, so
    every problem gets what it gets alone. S is kept as the first ``size``
    entries of a row, in join order.
    """
    P, k = G.shape[:2]
    lam_out, best_out = np.zeros((P, k)), np.zeros(P)
    # the diagonal is copied: a dot product with the strided view may round differently
    d = np.diagonal(G, axis1=1, axis2=2).copy()
    peak = d.max(axis=1)
    scale = np.where(1e-300 > peak, 1e-300, peak)
    live = np.arange(P)
    first = np.argmax(d, axis=1)
    lam = np.zeros((P, k))
    lam[live, first] = 1.0
    S = np.zeros((P, k), dtype=np.intp)
    S[:, 0] = first
    size = np.ones(P, dtype=np.intp)
    inS = lam > 0.0
    best = _dual_value(lam, d, G)
    for _ in range(4 * k + 16):
        g = d - 2.0 * np.matvec(G, lam)  # |L_i - c|^2 - |c|^2
        out = np.where(inS, -np.inf, g)
        j = np.argmax(out, axis=1)
        go = out.max(axis=1) > np.where(inS, g, -np.inf).max(axis=1) + 1e-13 * scale
        if not go.all():
            if not go.any():
                break
            lam_out[live[~go]], best_out[live[~go]] = lam[~go], best[~go]
            G, d, scale, live, lam, S, size, inS, best, j = (
                x[go] for x in (G, d, scale, live, lam, S, size, inS, best, j))
        new = lam.copy()
        for m, rows in _by_size(size):
            Sr, jr = S[rows, :m], j[rows]
            GSS, GSj = _support_gram(G, rows, Sr), G[rows[:, None], Sr, jr[:, None]]
            a = _affine_fits(GSS, GSj)
            near = (G[rows, jr, jr] - np.vecdot(2.0 * a, GSj) + np.vecdot(np.vecmat(a, GSS), a)
                    <= 1e-12 * scale[rows] * (1.0 + np.vecdot(a, a)))
            # L_j = sum a_i L_i up to rounding: trade weight from S to j along
            # the direction that keeps the center; S stays affinely independent
            if near.any():
                rr, Sn, an, jn = rows[near], Sr[near], a[near], jr[near]
                cur = new[rr[:, None], Sn]
                pos = an > 0.0
                ratios = np.where(pos, cur / np.where(pos, an, 1.0), np.inf)
                drop = np.argmin(ratios, axis=1)
                step = ratios[np.arange(len(rr)), drop]
                new[rr[:, None], Sn] = cur - step[:, None] * an
                new[rr, jn] = step
                gone = Sn[np.arange(len(rr)), drop]
                new[rr, gone] = 0.0
                inS[rr, gone] = False
                S[rr, drop] = jn
            # otherwise j joins S
            ra = rows[~near]
            S[ra, m] = jr[~near]
            size[ra] = m + 1
            inS[rows, jr] = True
        pending = np.arange(len(live))
        while len(pending):
            stuck = []
            for m, at in _by_size(size[pending]):
                rows = pending[at]
                Sr = S[rows, :m]
                mu = _affine_fits(_support_gram(G, rows, Sr), 0.5 * d[rows[:, None], Sr])
                fits = (mu > 0.0).all(axis=1)
                new[rows[fits][:, None], Sr[fits]] = mu[fits]
                if fits.all():
                    continue
                # step toward mu until the first weight reaches zero, and drop it
                rb, Sb, mb = rows[~fits], Sr[~fits], mu[~fits]
                cur = new[rb[:, None], Sb]
                neg = mb <= 0.0
                ratios = np.where(neg, cur / np.where(neg & (cur > mb), cur - mb, 1.0), np.inf)
                drop = np.argmin(ratios, axis=1)
                new[rb[:, None], Sb] = cur + ratios[np.arange(len(rb)), drop][:, None] * (mb - cur)
                gone = Sb[np.arange(len(rb)), drop]
                new[rb, gone] = 0.0
                inS[rb, gone] = False
                S[rb, :m - 1] = Sb[np.arange(m) != drop[:, None]].reshape(len(rb), m - 1)
                size[rb] = m - 1
                stuck.append(rb)
            pending = np.concatenate(stuck) if stuck else []
        np.maximum(new, 0.0, out=new)
        new /= np.sum(new, axis=1)[:, None]
        # each exact step raises the dual value; rounding that stops it ends the method
        val = _dual_value(new, d, G)
        up = val > best
        if not up.all():
            if not up.any():
                break
            lam_out[live[~up]], best_out[live[~up]] = lam[~up], best[~up]
            G, d, scale, live, new, S, size, inS, val = (
                x[up] for x in (G, d, scale, live, new, S, size, inS, val))
        lam, best = new, val
    lam_out[live], best_out[live] = lam, best
    return lam_out, best_out


@dataclass(frozen=True)
class CircumcenterResult:
    """A circumcenter with its certificate, or (B,)-arrays of them for a
    batch of class sets (``center`` then is a (B, n, n) stack).

    ``radius`` is max_i ddist(center, A_i); ``lower`` is a proven lower bound
    on the smallest such radius over all centers, so ``gap`` bounds how far
    ``radius`` is from optimal. ``exit`` is "certified" (gap <= tol),
    "max_iters", or "no_descent" (no step shortens the radius in floating
    point).
    """

    center: np.ndarray
    radius: float | np.ndarray
    lower: float | np.ndarray
    iterations: int | np.ndarray
    exit: str | np.ndarray

    @property
    def gap(self) -> float | np.ndarray:
        # at the optimum rounding can put lower a few ulps above radius
        gap = self.radius - self.lower
        return np.where(0.0 > gap, 0.0, gap) if isinstance(gap, np.ndarray) else max(gap, 0.0)


def solve_circumcenter(classes, tol: float = 1e-9, max_iters: int = 4000) -> CircumcenterResult:
    """Center of the smallest enclosing ball for the Riemannian metric, certified.

    ``classes`` is one set of classes, a sequence or a (k, n, n) stack, or a
    (B, k, n, n) batch of sets; a batch gives a result of (B,) arrays whose
    members equal the one-set solves bit for bit. A ``tol`` that is not a
    positive finite number raises InputError.

    In a Hadamard space log_Q is 1-Lipschitz for every Q (CAT(0)
    comparison), so the Euclidean minimum enclosing ball of the tangent
    vectors L_i = log_Q(A_i) has radius at most the circumradius: a lower
    bound, while max_i |L_i| = max_i ddist(Q, A_i) is an upper one. Each
    iteration solves that ball exactly and moves Q to exp_Q(s c) toward its
    center c, halving s until the radius strictly decreases, and stops once
    upper - best lower <= tol. Every decision reads GL-invariant numbers
    (the Gram matrix of the L_i and the distances) and breaks ties at the
    first index, and the move exp_Q is GL-equivariant, so the solver
    commutes with the GL action applied to the whole input set. The sets of
    a batch take their iterations in lock step, each until its own exit.
    """
    tol = floats(tol, "tolerance")
    if tol.ndim or not 0 < tol < math.inf:
        raise InputError(f"tolerance must be a positive finite number, got {tol}")
    a = floats(classes, "circumcenter classes")
    if a.ndim not in (3, 4) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise InputError("circumcenter takes a nonempty set of classes (k, n, n) "
                         "or a batch of sets (B, k, n, n)")
    mats = conf_class(a.reshape(-1, *a.shape[-2:])).reshape(a.shape)
    one = mats.ndim == 3
    if one:
        mats = mats[None]
    B, k = mats.shape[:2]
    Q = mats[:, 0].copy()
    qh, logs, radii = _whitened_logs(Q, mats)
    # a one-class set is its own center; the others start at their first class
    live = np.arange(B if k > 1 else 0)
    rad, low = radii.max(axis=1) if k > 1 else np.zeros(B), np.zeros(B)
    iterations = np.zeros(B, dtype=int)
    exits = np.full(B, "max_iters" if k > 1 else "certified", dtype=object)
    it = 0
    while it < max_iters and len(live):
        it += 1
        iterations[live] = it
        lam, value = _meb_weights(np.einsum("piab,pjab->pij", logs[live], logs[live]))
        root = np.sqrt(np.where(0.0 > value, 0.0, value))
        low[live] = np.where(root > low[live], root, low[live])
        done = rad[live] - low[live] <= tol
        exits[live[done]] = "certified"
        live, lam = live[~done], lam[~done]
        if not len(live):
            break
        w, v = np.linalg.eigh(np.einsum("pi,piab->pab", lam, logs[live]))
        # every set backtracks from s = 1 until its radius decreases
        s = 1.0
        pending = np.arange(len(live))
        while s > 1e-12 and len(pending):
            at, vp = live[pending], v[pending]
            step = qh[at] @ (vp * np.exp(s * w[pending])[:, None]) @ vp.mT @ qh[at]
            trial = conf_class(0.5 * (step + step.mT))
            t_qh, t_logs, t_radii = _whitened_logs(trial, mats[at])
            t_rad = t_radii.max(axis=1)
            down = t_rad < rad[at]
            moved = at[down]
            Q[moved], qh[moved] = trial[down], t_qh[down]
            logs[moved], rad[moved] = t_logs[down], t_rad[down]
            pending = pending[~down]
            s *= 0.5
        exits[live[pending]] = "no_descent"
        live = np.delete(live, pending)
    if one:
        return CircumcenterResult(Q[0], float(rad[0]), float(low[0]), int(iterations[0]), exits[0])
    return CircumcenterResult(Q, rad, low, iterations, exits.astype(str))


def circumcenter(classes, max_iters: int = 4000) -> np.ndarray:
    """Center of the smallest enclosing ball for the Riemannian metric, of one
    class set or of each set of a (B, k, n, n) batch.

    Raises ConvergenceError, carrying the certified gap, when the solver
    stops before the gap is at most 1e-9; for a batch it names the first
    such member and carries its gap. See ``solve_circumcenter``.
    """
    res = solve_circumcenter(classes, tol=1e-9, max_iters=max_iters)
    exits, iters, gaps = (np.atleast_1d(f) for f in (res.exit, res.iterations, res.gap))
    failed = np.flatnonzero(exits != "certified")
    if len(failed):
        i = failed[0]
        member = f"batch member {i}: " if np.ndim(res.exit) else ""
        raise ConvergenceError(
            f"{member}circumcenter not certified ({exits[i]} after {iters[i]} iterations): "
            f"gap {gaps[i]:.3g} above tol 1e-09",
            last_value=float(gaps[i]),
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
        with np.errstate(over="ignore"):  # a distance beyond float range reads inf
            dist2 = np.sum((self.points - rows[:, None]) ** 2, axis=-1)
        idx = np.argmin(dist2, axis=1)
        return idx, ~(np.sqrt(dist2[np.arange(len(rows)), idx]) > self.resolution)

    def value_at(self, p: np.ndarray) -> np.ndarray:
        """The class at the sample nearest to the ``(total_dim,)`` row p.

        DimensionMismatch on a row of another length than the samples', InputError on a
        non-finite one."""
        p = floats(p, "point")
        if p.shape != self.points.shape[1:]:
            raise DimensionMismatch(f"point of shape {p.shape}, expected {self.points.shape[1:]}")
        if not np.isfinite(p).all():
            raise InputError("point has a non-finite coordinate")
        idx, covered = self._nearest(p[None])
        if not covered[0]:
            raise CoverageError(
                f"point farther than grid resolution {self.resolution} from every sample"
            )
        return self.values[idx[0]]


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
    circumcenter taken, certified to a gap of 1e-9 (``circumcenter``, one
    batched call for the points of each class count); a point where a
    Jacobian is singular or not finite is skipped. The defect
    at a point is the worst generator violation of the transformation law
    mu(G p) = g'(p)[mu(p)], measured against the nearest grid sample.
    """
    spec = generators[0].spec
    grid = floats(grid, "grid")
    if grid.ndim != 2:
        raise InputError("grid must be (N, total_dim) rows")
    ok, orbits = _orbit_classes(generators, require_blocks(spec, split_rows(spec, grid)), word_len)
    points = grid[ok]
    values = [None] * len(orbits)
    for k in sorted({len(classes) for classes in orbits}):
        at = [i for i, classes in enumerate(orbits) if len(classes) == k]
        for i, center in zip(at, circumcenter(np.stack([orbits[i] for i in at]))):
            values[i] = center
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
