"""Per-point reference copies of the first-block affine maps and their
consumers: each map is a set of closures over one point's tuple of quotient
blocks, and each consumer loops over grid points, probes, leaves and samples
one ``BlockPoint`` at a time. The library evaluates rows through
``eval_blocks``; the tests compare both, built from the same callables.
``library_inverse`` builds the inverse of a library map, a fixture for
the tests of the maps' consumers."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import solvrigid
from solvrigid import (
    BlockPoint,
    DomainError,
    SpectralData,
    act,
    circumcenter,
    dilate,
    distance,
    kdist,
)
from solvrigid.nilpotent import walk_words

from metric_reference import from_flat


@dataclass
class FirstBlockAffineMap:
    """G(x, y) = (lam(y) * A(y) (x + B(y)), g(y)) on one point at a time."""

    spec: SpectralData
    stretch: float
    quotient: Callable[[tuple], tuple]
    lam_of: Optional[Callable[[tuple], float]] = None
    A_of: Optional[Callable[[tuple], np.ndarray]] = None
    B_of: Optional[Callable[[tuple], np.ndarray]] = None
    inverse_map: Optional[Callable[[BlockPoint], BlockPoint]] = None

    def __post_init__(self):
        n1 = self.spec.multiplicities[0]
        a1 = self.spec.exponents[0]
        if self.lam_of is None:
            t = self.stretch
            self.lam_of = lambda y, _t=t, _a=a1: _t**_a
        if self.A_of is None:
            self.A_of = lambda y, _n=n1: np.eye(_n)
        if self.B_of is None:
            self.B_of = lambda y, _n=n1: np.zeros(_n)

    def rest_spec(self) -> SpectralData:
        return SpectralData(self.spec.exponents[1:], self.spec.multiplicities[1:])

    def __call__(self, p: BlockPoint) -> BlockPoint:
        y = tuple(p.blocks[1:])
        x = p.blocks[0]
        x2 = self.lam_of(y) * self.A_of(y) @ (x + self.B_of(y))
        return BlockPoint((x2,) + tuple(self.quotient(y)))

    def first_block_derivative(self, p: BlockPoint) -> np.ndarray:
        y = tuple(p.blocks[1:])
        return self.lam_of(y) * self.A_of(y)

    def invert_point(self, p: BlockPoint) -> BlockPoint:
        return self.inverse_map(p)

    def compose(self, other: "FirstBlockAffineMap") -> "FirstBlockAffineMap":
        f, g = self, other

        def lam(y):
            return g.lam_of(y) * f.lam_of(tuple(g.quotient(y)))

        def a_of(y):
            return f.A_of(tuple(g.quotient(y))) @ g.A_of(y)

        def b_of(y):
            gy = tuple(g.quotient(y))
            return g.B_of(y) + (1.0 / g.lam_of(y)) * np.linalg.inv(g.A_of(y)) @ f.B_of(gy)

        def quot(y):
            return f.quotient(tuple(g.quotient(y)))

        return FirstBlockAffineMap(self.spec, f.stretch * g.stretch, quot, lam, a_of, b_of)


def from_map(g) -> FirstBlockAffineMap:
    """The per-point copy of a library map, on the same callables."""
    inv = None
    if g.inverse_map is not None:
        def inv(p):
            return BlockPoint(tuple(g.inverse_map(list(p.blocks))))
    return FirstBlockAffineMap(g.spec, g.stretch, g.quotient, g.lam_of, g.A_of, g.B_of, inv)


def library_inverse(g, quotient_inverse):
    """The library map inverting the library map g, given its quotient's inverse:
    lam 1/lam, A A^-1 and B -lam A B, each read at the preimage leaf."""

    def lam(yp):
        return 1.0 / np.asarray(g.lam_of(quotient_inverse(yp)))

    def a_of(yp):
        return np.linalg.inv(g.A_of(quotient_inverse(yp)))

    def b_of(yp):
        y = quotient_inverse(yp)
        return np.matvec(-np.asarray(g.lam_of(y))[..., None, None] * g.A_of(y), g.B_of(y))

    return solvrigid.FirstBlockAffineMap(g.spec, 1.0 / g.stretch, quotient_inverse, lam, a_of,
                                         b_of, inverse_map=g._apply)


def radial_escape_words(g: FirstBlockAffineMap, count: int) -> list[FirstBlockAffineMap]:
    """Powers of g, each inverted by applying g's inverse k times."""
    base_inv = g.inverse_map
    words = []
    cur = g
    for i in range(1, count + 1):
        def inv(p, k=i):
            for _ in range(k):
                p = base_inv(p)
            return p

        cur.inverse_map = inv
        words.append(cur)
        cur = g.compose(cur)
    return words


# -- conformal structure ------------------------------------------------------


def _nearest_index(points, p, resolution):
    """The index of the sample nearest to p, or None where it is farther than resolution."""
    flats = np.asarray([q.flat() for q in points])
    dist2 = np.sum((flats - p.flat()) ** 2, axis=1)
    idx = int(np.argmin(dist2))
    return None if math.sqrt(float(dist2[idx])) > resolution else idx


def orbit_classes(generators, p: BlockPoint, word_len: int) -> np.ndarray:
    n1 = p.blocks[0].shape[0]

    def step(gi, state):
        cur, jac = state
        g = generators[gi]
        return g(cur), g.first_block_derivative(cur) @ jac

    jacs = np.stack([jac for _, (_, jac) in walk_words(range(len(generators)), word_len,
                                                      (p, np.eye(n1)), step)])
    if not np.abs(np.linalg.det(jacs)).min() >= 1e-12:
        raise DomainError("singular first-block Jacobian")
    classes = act(jacs, np.eye(n1))
    keep = []
    seen = set()
    for i, key in enumerate(map(tuple, np.round(classes, 9).reshape(len(classes), -1).tolist())):
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return classes[keep]


def invariant_structure(generators, grid, word_len, resolution):
    """(points, values, defects, skipped) of the field, one grid point at a time."""
    points, values, skipped = [], [], []
    for idx, p in enumerate(grid):
        try:
            classes = orbit_classes(generators, p, word_len)
        except DomainError:
            skipped.append(idx)
            continue
        points.append(p)
        values.append(circumcenter(classes))
    defects = [0.0] * len(points)
    for g in generators:
        at, derivs, mus, images = [], [], [], []
        for i, (p, mu_p) in enumerate(zip(points, values)):
            j = _nearest_index(points, g(p), resolution)
            if j is None:
                continue
            mu_gp = values[j]
            at.append(i)
            derivs.append(g.first_block_derivative(p))
            mus.append(mu_p)
            images.append(mu_gp)
        if at:
            dists = kdist(np.stack(images), act(np.stack(derivs), np.stack(mus)))
            for i, d in zip(at, dists.tolist()):
                defects[i] = max(defects[i], d)
    return points, values, defects, skipped


# -- stretch normalization, radial conjugator, rotation witness ---------------


def normalize_stretch(gens, word_len):
    """(mu_of, conjugated generators), one quotient point at a time."""
    alpha1 = gens[0].spec.exponents[0]

    def step(gi, state):
        eta, y = state
        g = gens[gi]
        return eta * (g.lam_of(y) / g.stretch**alpha1), tuple(g.quotient(y))

    def mu_of(y: tuple) -> float:
        return max(eta for _, (eta, _) in walk_words(range(len(gens)), word_len, (1.0, y), step))

    def conjugate(g):
        def lam(y):
            return mu_of(tuple(g.quotient(y))) * g.lam_of(y) / mu_of(y)

        def b_of(y):
            return mu_of(y) * g.B_of(y)

        return FirstBlockAffineMap(g.spec, g.stretch, g.quotient, lam, g.A_of, b_of)

    return mu_of, [conjugate(g) for g in gens]


def radial_conjugator(generators, escape, a_matrix):
    """(Cauchy defects, similarity defects), one probe at a time."""
    rng = np.random.default_rng(11)
    spec = escape[0].spec
    ts = [1.0 / g.stretch for g in escape]

    def make_conjugator(t, G):
        def F(p):
            q = G(p)
            q = BlockPoint((a_matrix @ q.blocks[0],) + tuple(q.blocks[1:]))
            return from_flat(spec, dilate(spec, t, q.flat()))

        def F_inv(p):
            q = from_flat(spec, dilate(spec, 1.0 / t, p.flat()))
            q = BlockPoint((np.linalg.solve(a_matrix, q.blocks[0]),) + tuple(q.blocks[1:]))
            return G.invert_point(q)

        return F, F_inv

    probes = [
        BlockPoint(tuple(rng.uniform(-1.0, 1.0, n) for n in spec.multiplicities))
        for _ in range(64)
    ]
    maps = [make_conjugator(t, g) for t, g in zip(ts, escape)]
    cauchy, defects = [], []
    for i, (F, F_inv) in enumerate(maps):
        if i + 1 < len(maps):
            Fn = maps[i + 1][0]
            cauchy.append(max(float(np.linalg.norm(F(p).flat() - Fn(p).flat())) for p in probes))
        else:
            cauchy.append(float("nan"))
        defects.append(_similarity_defect(generators, F, F_inv, probes, spec))
    return cauchy, defects


def _similarity_defect(generators, F, F_inv, probes, spec):
    worst = 0.0
    for G in generators:
        ratios = []
        for p in probes:
            hp = F(G(F_inv(p)))
            for bi in range(spec.r):
                for delta in (0.25, 0.5):
                    shifted = list(p.blocks)
                    shifted[bi] = shifted[bi] + delta
                    q = BlockPoint(tuple(shifted))
                    hq = F(G(F_inv(q)))
                    d0 = distance(spec, p.flat(), q.flat())
                    d1 = distance(spec, hp.flat(), hq.flat())
                    if d0 > 0 and d1 > 0:
                        ratios.append(d1 / d0)
        if ratios:
            logs = np.log(np.asarray(ratios))
            worst = max(worst, float(np.max(np.abs(logs - logs.mean()))))
    return worst


def rotation_rigidity_witness(G: FirstBlockAffineMap, K: float):
    """(y, y', z, ratio, bound) of the witness, or None; one leaf pair and one
    scale at a time."""
    rng = np.random.default_rng(7)
    rest = G.rest_spec()
    t = G.stretch
    ys = [tuple(rng.uniform(-3.0, 3.0, n) for n in rest.multiplicities) for _ in range(40)]
    best = (1e-8, None, None)
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            gap = float(np.linalg.norm(G.A_of(ys[i]) - G.A_of(ys[j]), 2))
            if gap > best[0]:
                best = (gap, ys[i], ys[j])
    gap, y, yp = best
    if y is None:
        return None
    _, _, vt = np.linalg.svd(G.A_of(y) - G.A_of(yp))
    scale = 1.0
    for _ in range(200):
        z = scale * vt[0]
        p = BlockPoint((z - G.B_of(y),) + y)
        q = BlockPoint((z - G.B_of(yp),) + yp)
        d_src = distance(G.spec, p.flat(), q.flat())
        d_img = distance(G.spec, G(p).flat(), G(q).flat())
        if d_img > t * K * d_src:
            return y, yp, z, d_img / d_src, t * K
        scale *= 2.0
    return y, yp, scale * vt[0], float("nan"), t * K
