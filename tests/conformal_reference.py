"""Per-set reference copy of the certified circumcenter: one class set at a
time, the active-set dual on Python lists of support indices, one affine
fit per ``np.linalg.solve``. The library solves one set or a batch of sets
in lock step through one body; the tests compare both with this."""

import math

import numpy as np

from solvrigid.conformal import CircumcenterResult, conf_class


def _whitened_logs(Q, mats):
    w, v = np.linalg.eigh(Q)
    qh = (v * w**0.5) @ v.T
    qmh = (v * w**-0.5) @ v.T
    rel = qmh @ mats @ qmh
    mw, mv = np.linalg.eigh(0.5 * (rel + np.swapaxes(rel, 1, 2)))
    lw = np.log(mw)
    logs = (mv * lw[:, None, :]) @ np.swapaxes(mv, 1, 2)
    return qh, logs, np.sqrt(np.sum(lw**2, axis=1))


def _affine_fit(G, S, rhs):
    m = len(S)
    kkt = np.ones((m + 1, m + 1))
    kkt[:m, :m] = G[np.ix_(S, S)]
    kkt[m, m] = 0.0
    return np.linalg.solve(kkt, np.append(rhs, 1.0))[:m]


def meb_weights(G):
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
        g = d - 2.0 * (G @ lam)
        out = g.copy()
        out[S] = -np.inf
        j = int(np.argmax(out))
        if not out[j] > np.max(g[S]) + 1e-13 * scale:
            break
        new = lam.copy()
        a = _affine_fit(G, S, G[S, j])
        if G[j, j] - 2.0 * a @ G[S, j] + a @ G[np.ix_(S, S)] @ a <= 1e-12 * scale * (1.0 + a @ a):
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
            cur = new[S]
            neg = mu <= 0.0
            ratios = np.where(neg, cur / np.where(neg & (cur > mu), cur - mu, 1.0), np.inf)
            drop = int(np.argmin(ratios))
            new[S] = cur + ratios[drop] * (mu - cur)
            new[S[drop]] = 0.0
            del S[drop]
        np.maximum(new, 0.0, out=new)
        new /= np.sum(new)
        val = value(new)
        if not val > best:
            break
        lam, best = new, val
    return lam, best


def solve_circumcenter(classes, tol=1e-9, max_iters=4000) -> CircumcenterResult:
    """The circumcenter of one class set, with its certificate."""
    mats = conf_class(classes)
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
        lam, value = meb_weights(G)
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
