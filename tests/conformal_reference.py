"""Per-set reference copy of the certified circumcenter, and an exact
circumcenter of 2 x 2 classes.

The copy solves one class set at a time: the active-set dual keeps its
support as a Python list of indices, each affine fit is one
``np.linalg.solve``, and the Newton finish is one system per set. The
library solves one set or a batch of sets in lock step through one body;
the tests compare both with this, bit for bit.

The exact circumcenter reads the determinant-one 2 x 2 classes as points of
the hyperbolic plane and compares every ball spanned by two or three of
them.
"""

import math

import numpy as np

from solvrigid.conformal import CircumcenterResult, conf_class


def _whitened_logs(inv, mats):
    rel = inv @ mats @ inv.T
    mw, mv = np.linalg.eigh(0.5 * (rel + np.swapaxes(rel, 1, 2)))
    lw = np.log(mw)
    logs = (mv * lw[:, None, :]) @ np.swapaxes(mv, 1, 2)
    return logs, np.sqrt(np.sum(lw**2, axis=1)), lw, mv


def _solve_or_nan(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.full(b.shape, math.nan)


def _affine_fit(G, S, rhs, solve=np.linalg.solve):
    """The weights of [[G_SS, 1], [1^T, 0]] [x; t] = [rhs_S; 1], solved at
    full size with the identity's rows and columns off S."""
    k = len(G)
    on = np.isin(np.arange(k), S)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G * np.outer(on, on)
    kkt[np.arange(k), np.arange(k)] += ~on
    kkt[:k, k] = kkt[k, :k] = on
    b = np.ones((k + 1, 1))
    b[:k, 0] = rhs * on
    return solve(kkt, b)[:k, 0]


def _fit_support(G, d, new, S):
    while True:
        mu = _affine_fit(G, S, 0.5 * d)
        if not any(mu[i] <= 0.0 for i in S):
            new[:] = mu
            return
        cur = new.copy()
        neg = np.isin(np.arange(len(G)), S) & (mu <= 0.0)
        ratios = np.where(neg, cur / np.where(neg & (cur > mu), cur - mu, 1.0), np.inf)
        drop = int(np.argmin(ratios))
        new[:] = cur + ratios[drop] * (mu - cur)
        new[drop] = 0.0
        S.remove(drop)


def meb_weights(G, start):
    k = G.shape[0]
    d = np.diag(G).copy()
    scale = max(float(np.max(d)), 1e-300)

    def value(weights):
        return float(weights @ d - weights @ G @ weights)

    lam = start.copy()
    S = [i for i in range(k) if lam[i] > 0.0]
    if S:
        _fit_support(G, d, lam, S)
    else:
        first = int(np.argmax(d))
        far = d + d[first] - 2.0 * G[first]
        second = int(np.argmax(far))
        if far[second] > 2e-12 * scale:
            S = [first, second]
            lam[S] = 0.5
        else:
            S = [first]
            lam[first] = 1.0
    np.maximum(lam, 0.0, out=lam)
    lam /= np.sum(lam)
    best = value(lam)
    for _ in range(4 * k + 16):
        g = d - 2.0 * (G @ lam)
        out = g.copy()
        out[S] = -np.inf
        j = int(np.argmax(out))
        if not out[j] > np.max(g[S]) + 1e-13 * scale:
            break
        new = lam.copy()
        a = _affine_fit(G, S, G[:, j])
        if G[j, j] - 2.0 * a @ G[:, j] + a @ G @ a <= 1e-12 * scale * (1.0 + a @ a):
            pos = a > 0.0
            ratios = np.where(pos, new / np.where(pos, a, 1.0), np.inf)
            drop = int(np.argmin(ratios))
            new = new - ratios[drop] * a
            new[j] = ratios[drop]
            new[drop] = 0.0
            S.remove(drop)
        S.append(j)
        _fit_support(G, d, new, S)
        np.maximum(new, 0.0, out=new)
        new /= np.sum(new)
        val = value(new)
        if not val > best:
            break
        lam, best = new, val
    return lam, best


def newton_move(logs, lw, mv, d, lam):
    """The Newton step of the KKT system on the support of lam: the new
    weights and the move, as in the library's ``_newton_moves``."""
    k, n = lw.shape
    kron = (mv[:, :, None, :, None] * mv[:, None, :, None, :]).reshape(k, n * n, n * n)
    half = 0.5 * (lw[:, :, None] - lw[:, None, :])
    with np.errstate(invalid="ignore"):
        phi = np.where(half == 0.0, 1.0, half / np.tanh(half)).reshape(k, 1, n * n)
    hess = np.einsum("i,iab->ab", lam, (kron * phi) @ np.swapaxes(kron, 1, 2))
    vecs = logs.reshape(k, n * n)
    y = np.linalg.solve(hess, vecs.T)
    S = [i for i in range(k) if lam[i] > 0.0]
    plus = _affine_fit(vecs @ y, S, 0.5 * d, solve=_solve_or_nan)
    if len(S) < 2:
        plus[:] = math.nan
    return plus, (y @ plus).reshape(n, n)


def _exp_factors(F, inv, w, v):
    h = 0.5 * (w - np.mean(w))
    return F @ (v * np.exp(h)), (v * np.exp(-h)).T @ inv


def solve_circumcenter(classes, tol=1e-9, max_iters=4000) -> CircumcenterResult:
    """The circumcenter of one class set, with its certificate."""
    mats = conf_class(classes)
    k = len(mats)
    if k == 1:
        return CircumcenterResult(mats[0], 0.0, 0.0, 0, "certified")
    w, v = np.linalg.eigh(mats[0])
    F, inv = v * np.sqrt(w), (v / np.sqrt(w)).T
    logs, radii, lw, mv = _whitened_logs(inv, mats)
    radius, lower = float(np.max(radii)), 0.0
    carry, newton, moved, reach = np.zeros(k), False, False, 0.0
    exit_ = "max_iters"

    def trial(t_F, t_inv):
        """The state at the center t_F t_F^T, or None unless it lowers the radius."""
        t_logs, t_radii, t_lw, t_mv = _whitened_logs(t_inv, mats)
        t_radius = float(np.max(t_radii))
        return (t_F, t_inv, t_logs, t_radius, t_lw, t_mv) if t_radius < radius else None

    it = 0
    while it < max_iters:
        it += 1
        G = np.einsum("iab,jab->ij", logs, logs)
        d = np.diag(G).copy()
        lower = max(lower, math.sqrt(max(float(carry @ d - carry @ G @ carry), 0.0)))
        stale = carry[int(np.argmax(d))] <= 0.0
        finish = False
        if radius - lower <= tol:
            exit_ = "certified"
            if not (newton and not stale and reach > math.sqrt(tol)):
                break
            finish = True
        fresh = not newton or stale
        if fresh:
            carry, value = meb_weights(G, carry)
            lower = max(lower, math.sqrt(max(value, 0.0)))
            if radius - lower <= tol:
                exit_ = "certified"
                break
        lam = carry
        plus, move = newton_move(logs, lw, mv, d, lam)
        size = float(np.sqrt(np.sum(move**2)))
        newton = False
        S = [i for i in range(k) if lam[i] > 0.0]
        if all(plus[i] > 0.0 for i in S) and 2.0**-46 * radius < size <= 2.0 * radius:
            state = trial(*_exp_factors(F, inv, *np.linalg.eigh(move)))
            if state:
                F, inv, logs, radius, lw, mv = state
                carry, newton, moved, reach = plus, True, True, size
                fresh = False
        if finish:
            break
        if not fresh:
            continue
        w, v = np.linalg.eigh(np.einsum("i,iab->ab", lam, logs))
        s = 1.0
        while s > 1e-12:
            state = trial(*_exp_factors(F, inv, s * w, v))
            if state:
                F, inv, logs, radius, lw, mv = state
                moved = True
                break
            s *= 0.5
        else:
            exit_ = "no_descent"
            break
    center = mats[0]
    if moved:
        center = F @ F.T
        center = 0.5 * (center + center.T)
    return CircumcenterResult(center, radius, lower, it, exit_)


# -- the exact circumcenter of 2 x 2 classes ----------------------------------


def hyperboloid(classes):
    """Determinant-one 2 x 2 classes [[a, b], [b, c]] as the points
    ((a + c) / 2, (a - c) / 2, b) of the hyperboloid x0^2 - x1^2 - x2^2 = 1,
    where ddist = sqrt(2) arccosh(<x, y>), <x, y> = x0 y0 - x1 y1 - x2 y2."""
    m = np.asarray(classes, dtype=float)
    return np.stack([0.5 * (m[..., 0, 0] + m[..., 1, 1]), 0.5 * (m[..., 0, 0] - m[..., 1, 1]),
                     m[..., 0, 1]], axis=-1)


def _minkowski(x, y):
    return x[..., 0] * y[..., 0] - x[..., 1] * y[..., 1] - x[..., 2] * y[..., 2]


def _on_sheet(x):
    """The future-pointing timelike vectors x scaled onto the hyperboloid;
    NaN rows where x is not timelike."""
    norm2 = _minkowski(x, x)
    with np.errstate(invalid="ignore"):
        return x * (np.sign(x[..., :1]) / np.sqrt(norm2)[..., None])


def exact_circumcenter_2x2(classes):
    """The circumcenter of a set of determinant-one 2 x 2 classes and its
    radius, exactly up to rounding: the smallest of the balls spanned by two
    classes (centered at their midpoint) or by three (centered at the point
    equidistant from them) that holds every class. The smallest enclosing
    ball has two or three classes on its boundary, so it is among these."""
    x = hyperboloid(classes)
    k = len(x)
    if k == 1:
        return np.asarray(classes[0], dtype=float), 0.0
    i, j = np.triu_indices(k, 1)
    centers = [_on_sheet(x[i] + x[j])]  # the midpoints
    if k > 2:
        a, b, c = np.array([t for t in np.ndindex(k, k, k) if t[0] < t[1] < t[2]]).T
        # <e, x_a> = <e, x_b> = <e, x_c>: e is Minkowski-orthogonal to x_b - x_a and x_c - x_a
        u, w = x[b] - x[a], x[c] - x[a]
        e = np.cross(u * [1, -1, -1], w * [1, -1, -1])
        centers.append(_on_sheet(e))
    centers = np.concatenate(centers)
    with np.errstate(invalid="ignore"):
        reach = np.arccosh(np.maximum(_minkowski(centers[:, None], x[None]), 1.0)).max(axis=1)
    best = int(np.nanargmin(reach))
    e = centers[best]
    center = np.array([[e[0] + e[1], e[2]], [e[2], e[0] - e[1]]])
    return center, math.sqrt(2.0) * float(reach[best])
