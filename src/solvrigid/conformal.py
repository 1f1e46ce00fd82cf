"""The determinant-one SPD symmetric space: GL action, metrics, dilatation,
circumcenters, and invariant foliated conformal structures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, InputError
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


def _whitened_logs(inv: np.ndarray, mats: np.ndarray):
    """The logs L_i = log(F^-1 A_i F^-T), their norms, and the log-eigenvalues
    mu and eigenvectors U of each (L_i = U diag(mu) U^T), for a (P, n, n)
    stack ``inv`` of the inverses of factors F of centers Q = F F^T and the
    (P, k, n, n) class sets.

    Whatever the factor, the norm of L_i is ddist(Q, A_i) and the L_i of two
    factors differ by one orthogonal conjugation; one stacked eigh serves
    every class. A class singular to float precision can have an eigenvalue
    <= 0 here: InputError. A class so far from the center that its whitened
    entries are beyond float range: DomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rel = inv[:, None] @ mats @ inv.mT[:, None]
    if not np.isfinite(rel).all():
        raise DomainError("a class whitened by the center's factor is beyond float range "
                          "(a ratio of their eigenvalues overflows)")
    mw, mv = np.linalg.eigh(0.5 * (rel + rel.mT))
    if not mw.min() > 0:
        raise InputError("conformal class must be positive definite")
    lw = np.log(mw)
    logs = (mv * lw[..., None, :]) @ mv.mT
    return logs, np.sqrt(np.sum(lw**2, axis=-1)), lw, mv


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve on stacks, with NaN rows for the members whose system is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, math.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _affine_fits(G: np.ndarray, on: np.ndarray, rhs: np.ndarray,
                 solve=np.linalg.solve) -> np.ndarray:
    """Solve [[G_SS, 1], [1^T, 0]] [x; t] = [rhs_S; 1] for the weights x, one
    system per member of the (P, k, k) stack G, on the support S given by
    the row of the (P, k) mask ``on`` and the row of the (P, k) rhs. Each
    system is solved at full size: the rows and columns of the points off S
    are the identity's, with right-hand side 0, so x is 0 there."""
    P, k = on.shape
    kkt = np.zeros((P, k + 1, k + 1))
    kkt[:, :k, :k] = G * (on[:, :, None] & on[:, None, :])
    kkt.reshape(P, -1)[:, :k * (k + 2):k + 2] += ~on  # the first k diagonal entries
    kkt[:, :k, k] = kkt[:, k, :k] = on
    b = np.ones((P, k + 1, 1))
    b[:, :k, 0] = rhs * on
    return solve(kkt, b)[:, :k, 0]


def _dual_value(lam: np.ndarray, d: np.ndarray, G: np.ndarray) -> np.ndarray:
    return np.vecdot(lam, d) - np.vecdot(np.vecmat(lam, G), lam)


def _fit_supports(G, d, new, inS, pending) -> None:
    """Move the weights ``new`` of the problems ``pending`` to the maximizer
    of the dual value on the affine hull of each support ``inS``, in place:
    where that maximizer has a weight <= 0, step toward it until the first
    weight reaches zero, drop that point from the support and fit again."""
    while len(pending):
        on = inS[pending]
        mu = _affine_fits(G[pending], on, 0.5 * d[pending])
        fits = ~(mu <= 0.0).any(axis=1, where=on)
        new[pending[fits]] = mu[fits]
        if fits.all():
            return
        pending, on, mu = pending[~fits], on[~fits], mu[~fits]
        cur = new[pending]
        neg = on & (mu <= 0.0)
        ratios = np.where(neg, cur / np.where(neg & (cur > mu), cur - mu, 1.0), np.inf)
        drop = np.argmin(ratios, axis=1)
        new[pending] = cur + ratios[np.arange(len(pending)), drop][:, None] * (mu - cur)
        new[pending, drop] = 0.0
        inS[pending, drop] = False


def _meb_weights(G: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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

    A problem starts warm from its row of the (P, k) ``start``: feasible
    weights whose support is S, fitted first. A zero row starts cold, from
    the first farthest point and the first point farthest from it, the two
    at weight 1/2 (the ball of two points is centered at their midpoint),
    or from the first alone where the two coincide.

    The problems run in lock step and never mix: each stops at its own step,
    and the KKT systems are solved stacked, so every problem gets what it
    gets alone.
    """
    P, k = G.shape[:2]
    lam_out, best_out = np.zeros((P, k)), np.zeros(P)
    # the diagonal is copied: a dot product with the strided view may round differently
    d = np.diagonal(G, axis1=1, axis2=2).copy()
    peak = d.max(axis=1)
    scale = np.where(1e-300 > peak, 1e-300, peak)
    live = np.arange(P)
    lam = start.copy()
    inS = lam > 0.0
    cold = ~inS.any(axis=1)
    _fit_supports(G, d, lam, inS, np.flatnonzero(~cold))
    cold = np.flatnonzero(cold)
    first = np.argmax(d[cold], axis=1)
    far = d[cold] + d[cold, first][:, None] - 2.0 * G[cold, first]
    second = np.argmax(far, axis=1)
    pair = far[np.arange(len(cold)), second] > 2e-12 * scale[cold]
    lam[cold, first] = np.where(pair, 0.5, 1.0)
    lam[cold[pair], second[pair]] = 0.5
    inS[cold, first] = True
    inS[cold[pair], second[pair]] = True
    np.maximum(lam, 0.0, out=lam)
    lam /= np.sum(lam, axis=1)[:, None]
    best = _dual_value(lam, d, G)
    rows = np.arange(P)
    for _ in range(4 * k + 16):
        g = d - 2.0 * np.matvec(G, lam)  # |L_i - c|^2 - |c|^2
        out = np.where(inS, -np.inf, g)
        j = np.argmax(out, axis=1)
        go = out[rows, j] > np.max(g, axis=1, where=inS, initial=-np.inf) + 1e-13 * scale
        if not go.all():
            if not go.any():
                break
            lam_out[live[~go]], best_out[live[~go]] = lam[~go], best[~go]
            G, d, scale, live, lam, inS, best, j = (
                x[go] for x in (G, d, scale, live, lam, inS, best, j))
            rows = np.arange(len(live))
        new = lam.copy()
        Gj = G[rows, :, j]
        a = _affine_fits(G, inS, Gj)
        near = (G[rows, j, j] - np.vecdot(2.0 * a, Gj) + np.vecdot(np.vecmat(a, G), a)
                <= 1e-12 * scale * (1.0 + np.vecdot(a, a)))
        # L_j = sum a_i L_i up to rounding: trade weight from S to j along
        # the direction that keeps the center; S stays affinely independent
        if near.any():
            rr, an, jn = rows[near], a[near], j[near]
            cur = new[rr]
            pos = an > 0.0
            ratios = np.where(pos, cur / np.where(pos, an, 1.0), np.inf)
            drop = np.argmin(ratios, axis=1)
            step = ratios[np.arange(len(rr)), drop]
            new[rr] = cur - step[:, None] * an
            new[rr, jn] = step
            new[rr, drop] = 0.0
            inS[rr, drop] = False
        # otherwise j joins S
        inS[rows, j] = True
        _fit_supports(G, d, new, inS, rows)
        np.maximum(new, 0.0, out=new)
        new /= np.sum(new, axis=1)[:, None]
        # each exact step raises the dual value; rounding that stops it ends the method
        val = _dual_value(new, d, G)
        up = val > best
        if not up.all():
            if not up.any():
                break
            lam_out[live[~up]], best_out[live[~up]] = lam[~up], best[~up]
            G, d, scale, live, new, inS, val = (x[up] for x in (G, d, scale, live, new, inS, val))
            rows = np.arange(len(live))
        lam, best = new, val
    lam_out[live], best_out[live] = lam, best
    return lam_out, best_out


def _newton_moves(logs, lw, mv, d, lam) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step on the circumcenter's KKT system from each center, on
    the support S of its weights lam (the (P, k) rows): the new weights lam+
    (zero off S) and the move V, a symmetric matrix in the frame where the
    center is I. A member whose S is a single point, or whose system is
    singular, gets NaN weights.

    ``logs``, ``lw`` and ``mv`` are the tangent vectors L_i = U diag(mu) U^T
    of ``_whitened_logs``, and ``d`` holds |L_i|^2. The equations are
    sum_S lam_i L_i = 0, |L_i|^2 = rho on S and sum_S lam_i = 1. Moving the
    center to exp(V), L_i changes by -H_i V to first order, where the Hessian
    H_i of d(., A_i)^2 / 2 acts as U((U^T V U) o Phi_i)U^T, Phi_i,jk =
    phi(mu_j - mu_k) with phi(x) = (x/2) coth(x/2), and |L_i|^2 by
    -2 <L_i, V>. With H = sum lam_i H_i (H >= I, since phi >= 1) the
    linearized system gives V = H^-1 sum lam+_i L_i, and lam+ with rho / 2
    solve the affine fit of S in the metric H^-1: [[M, 1], [1^T, 0]]
    [lam+; rho/2] = [d_S / 2; 1], M_ij = <L_i, H^-1 L_j>. H acts on all n x n
    matrices, in the coordinates of their n^2 entries, as the sum of
    K_i diag(Phi_i) K_i^T with K_i = U (x) U.
    """
    P, k, n = lw.shape
    kron = np.einsum("...ac,...bd->...abcd", mv, mv).reshape(P, k, n * n, n * n)
    half = 0.5 * (lw[..., :, None] - lw[..., None, :])
    phi = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half != 0.0)
    hess = np.einsum("pi,piab->pab", lam, (kron * phi.reshape(P, k, 1, n * n)) @ kron.mT)
    vecs = logs.reshape(P, k, n * n)
    y = np.linalg.solve(hess, vecs.mT)
    on = lam > 0.0
    plus = _affine_fits(vecs @ y, on, 0.5 * d, solve=_solve_each)
    plus[np.sum(on, axis=1) < 2] = math.nan
    return plus, np.matvec(y, plus).reshape(P, n, n)


def _exp_factors(F: np.ndarray, inv: np.ndarray, w: np.ndarray, v: np.ndarray):
    """A factor of exp_Q(V) for each center Q = F F^T and tangent vector V =
    v diag(w) v^T in the frame F, and its inverse: F v e^h and e^-h v^T F^-1
    with h = (w - mean w) / 2. V is traceless up to rounding, and the mean
    keeps the determinant of F."""
    h = 0.5 * (w - np.mean(w, axis=1)[:, None])
    return F @ (v * np.exp(h)[:, None]), (v * np.exp(-h)[:, None]).mT @ inv


@dataclass(frozen=True)
class CircumcenterResult:
    """A circumcenter with its certificate, or (B,)-arrays of them for a
    batch of class sets (``center`` then is a (B, n, n) stack).

    ``radius`` is max_i ddist(center, A_i); ``lower`` is a proven lower bound
    on the smallest such radius over all centers, so ``gap`` bounds how far
    ``radius`` is from optimal and ``center_bound`` how far ``center`` is
    from the optimal center. ``exit`` is "certified" (gap <= tol),
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

    @property
    def center_bound(self) -> float | np.ndarray:
        """sqrt(radius^2 - lower^2), a bound on ddist(center, optimal center):
        in a CAT(0) space radius^2 >= R*^2 + d(center, c*)^2 (Bridson and
        Haefliger II.2.7)."""
        bound = np.sqrt(self.gap * (self.radius + self.lower))
        return bound if isinstance(bound, np.ndarray) else float(bound)


def solve_circumcenter(classes, tol: float = 1e-9, max_iters: int = 4000) -> CircumcenterResult:
    """Center of the smallest enclosing ball for the Riemannian metric, certified.

    ``classes`` is one set of classes, a sequence or a (k, n, n) stack, or a
    (B, k, n, n) batch of sets; a batch gives a result of (B,) arrays whose
    members equal the one-set solves bit for bit. A ``tol`` that is not a
    positive finite number raises InputError.

    In a Hadamard space log_Q is 1-Lipschitz for every Q (CAT(0)
    comparison), so the Euclidean minimum enclosing ball of the tangent
    vectors L_i = log_Q(A_i) has radius at most the circumradius, and the
    square root of the dual value of any weights on the simplex is at most
    that radius: lower bounds, while max_i |L_i| = max_i ddist(Q, A_i) is an
    upper one. Each iteration first reads the bound of the weights carried
    from the last step, and stops once upper - best lower <= tol. Otherwise
    it solves the ball (``_meb_weights``, warm from the carried weights)
    unless a Newton step made the last move and its weights' support still
    holds the farthest class, and moves Q.

    The move is one Newton step on the circumcenter's KKT system on the
    support S of the weights (``_newton_moves``), which converges
    quadratically. It is taken only where S has two or more points, the
    system is not singular, the new weights are positive and finite, the
    move is longer than 2^-46 radius (a shorter one is rounding) and no
    longer than twice the radius (the optimum is that close), and the radius
    over all classes strictly decreases; its weights are carried. Otherwise a
    set with a freshly solved ball takes the global step: exp_Q(s c) toward
    the ball's center c, halving s from 1 until the radius strictly
    decreases ("no_descent" if none does), and a set whose step came from
    carried weights solves the ball next iteration. No other set is
    affected.

    A set certified after a Newton step longer than sqrt(tol) takes one more
    (the finish) and stops. Newton's error after a step is of the order of
    the step squared, so the center is then far closer to the optimum than
    the radius certificate can show: ``center_bound`` is only what the
    certificate proves.

    Q is kept as a factor F, Q = F F^T, and the L_i are read in its frame: a
    tangent vector V in the frame moves Q to F exp(V) F^T = exp_Q(F V F^T).
    Every decision reads GL-invariant numbers (the Gram matrix of the L_i,
    the distances, and weights that solve systems of their inner products)
    and breaks ties at the first index. The moves are GL-equivariant: acting
    by X on the input changes F to a multiple of X^T F O for an orthogonal
    O, which conjugates every L_i, every Hessian and so the Newton move V by
    O, an isometry of the symmetric matrices. So the solver commutes with
    the GL action applied to the whole input set. The sets of a batch take
    their iterations in lock step, each until its own exit.
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
    # each center Q = F F^T is kept as a factor F and its inverse
    w, v = np.linalg.eigh(mats[:, 0])
    if not w.min() > 0:
        raise InputError("conformal class must be positive definite")
    F, inv = v * np.sqrt(w)[:, None], (v / np.sqrt(w)[:, None]).mT
    logs, radii, lw, mv = _whitened_logs(inv, mats)
    # a one-class set is its own center; the others start at their first class
    live = np.arange(B if k > 1 else 0)
    rad, low = radii.max(axis=1) if k > 1 else np.zeros(B), np.zeros(B)
    carry, reach = np.zeros((B, k)), np.zeros(B)
    newton, moved = np.zeros(B, dtype=bool), np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=int)
    exits = np.full(B, "max_iters" if k > 1 else "certified", dtype=object)

    def certified(rows, value):
        """Raise the lower bounds of the sets ``rows`` to the roots of the
        dual values; the mask of the sets that this certifies."""
        root = np.sqrt(np.where(0.0 > value, 0.0, value))
        low[rows] = np.where(root > low[rows], root, low[rows])
        done = rad[rows] - low[rows] <= tol
        exits[rows[done]] = "certified"
        return done

    def descend(at, t_F, t_inv):
        """Move the sets ``at`` to their trial centers t_F t_F^T where that
        strictly lowers the radius; the mask of those."""
        t_logs, t_radii, t_lw, t_mv = _whitened_logs(t_inv, mats[at])
        t_rad = t_radii.max(axis=1)
        down = t_rad < rad[at]
        to = at[down]
        F[to], inv[to], logs[to], rad[to] = t_F[down], t_inv[down], t_logs[down], t_rad[down]
        lw[to], mv[to], moved[to] = t_lw[down], t_mv[down], True
        return down

    it = 0
    while it < max_iters and len(live):
        it += 1
        iterations[live] = it
        lv = logs[live]
        G = np.einsum("piab,pjab->pij", lv, lv)
        d = np.diagonal(G, axis1=1, axis2=2).copy()
        done = certified(live, _dual_value(carry[live], d, G))
        # the carried weights are stale where the farthest class is off their support
        stale = carry[live, np.argmax(d, axis=1)] <= 0.0
        # the sets that stop after this iteration: those certified after a
        # Newton step longer than sqrt(tol) take one more first (the finish)
        stop = done & newton[live] & ~stale & (reach[live] > math.sqrt(tol))
        if done.any():
            keep = ~done | stop
            live, G, d, stale, stop = live[keep], G[keep], d[keep], stale[keep], stop[keep]
            if not len(live):
                break
        # the ball is solved again unless a Newton step made the last move
        # and its support still holds the farthest class
        fresh = ~newton[live] | stale
        if fresh.any():
            lam, value = _meb_weights(G[fresh], carry[live[fresh]])
            carry[live[fresh]] = lam
            done = np.zeros(len(live), dtype=bool)
            done[fresh] = certified(live[fresh], value)
            if done.any():
                live, d, fresh, stop = live[~done], d[~done], fresh[~done], stop[~done]
                if not len(live):
                    break
        lam = carry[live]
        plus, move = _newton_moves(logs[live], lw[live], mv[live], d, lam)
        size = np.sqrt(np.sum(move**2, axis=(1, 2)))
        newton[live] = False
        r = rad[live]
        tried = np.flatnonzero((plus > 0.0).all(axis=1, where=lam > 0.0)
                               & (2.0**-46 * r < size) & (size <= 2.0 * r))
        if len(tried):
            at = live[tried]
            tried = tried[descend(at, *_exp_factors(F[at], inv[at], *np.linalg.eigh(move[tried])))]
            to = live[tried]
            newton[to], carry[to], reach[to] = True, plus[tried], size[tried]
        # the global step where the Newton step is not taken and the ball is
        # fresh: each set backtracks from s = 1 until its radius decreases; a
        # set whose step came from carried weights solves the ball next iteration
        fresh[tried] = False
        rest = np.flatnonzero(fresh)
        if len(rest):
            w, v = np.linalg.eigh(np.einsum("pi,piab->pab", lam[rest], logs[live[rest]]))
            s = 1.0
            while s > 1e-12 and len(rest):
                at = live[rest]
                down = descend(at, *_exp_factors(F[at], inv[at], s * w, v))
                rest, w, v = rest[~down], w[~down], v[~down]
                s *= 0.5
            exits[live[rest]] = "no_descent"
            stop[rest] = True
        live = live[~stop]
    Q = mats[:, 0].copy()
    if moved.any():
        Q[moved] = F[moved] @ F[moved].mT
        Q[moved] = 0.5 * (Q[moved] + Q[moved].mT)
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
