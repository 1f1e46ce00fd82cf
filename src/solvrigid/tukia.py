"""Conjugation pipeline: sup-measure conjugator on one-dimensional first
blocks, stretch normalization, radial-conjugator iteration, and
post-conjugation similarity verification."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InputError
from .mapalg import FirstBlockAffineMap
from .nilpotent import walk_words
from .quasimetric import dilate, distance
from .spectral import BlockPoint, SpectralData


# -- 1-D generators ---------------------------------------------------------


@dataclass(frozen=True)
class OneDGenerator:
    """Monotone map of the line with exact derivative and inverse.

    ``fn``, ``dfn`` and ``inv`` map an array of points to an array of the
    same shape, element by element (a scalar to a 0-d array; a constant
    derivative may be a float, which broadcasts). A division by zero gives
    an inf or NaN element, as numpy arithmetic does: the sup measure flags
    a grid point where a word meets a zero or non-finite derivative or a
    non-finite image, and drops that word and its extensions there.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    stretch: float = 1.0


def _chain_1d(generators: Sequence[OneDGenerator], letter, state: tuple) -> tuple:
    """(x, derivative, stretch) after one more letter, by the chain rule."""
    idx, sgn = letter
    g = generators[idx]
    x, deriv, stretch = state
    if sgn == 1:
        return g.fn(x), deriv * g.dfn(x), stretch * g.stretch
    x = g.inv(x)
    return x, deriv / g.dfn(x), stretch / g.stretch


@dataclass
class GroupSample:
    """A finitely generated sample of boundary maps with a truncation depth."""

    generators: list
    word_len: int
    alpha1: float = 1.0


# -- 1-D sup measure and conjugator ----------------------------------------


@dataclass
class SupMeasure1D:
    xs: np.ndarray
    values: np.ndarray
    flagged: list[int]

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)


def sup_measure_1d(
    sample: GroupSample, xs: np.ndarray, word_len: Optional[int] = None
) -> SupMeasure1D:
    """Pointwise max of stretch-normalized word derivatives on the grid.

    One walk over the words carries the whole grid: a word's state is its
    images and derivatives at every grid point and the mask of the points
    where it is live. A flagged point (see OneDGenerator) takes its value
    over the words still live there; a word live at no point is pruned.
    ``word_len`` overrides the sample's truncation depth; callers widen it
    when the grid extends far beyond the probe window, so the sup stays
    faithful at every node.
    """
    xs = np.asarray(xs, dtype=float)
    depth = sample.word_len if word_len is None else word_len
    gens = sample.generators
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]
    bad = np.zeros(xs.shape, dtype=bool)

    def step(letter, state):
        # a point dead for a word stays dead for every extension of it
        x, deriv, stretch, alive = state
        x, deriv, stretch = _chain_1d(gens, letter, (x, deriv, stretch))
        ok = (deriv != 0.0) & np.isfinite(deriv) & np.isfinite(x)
        bad[alive & ~ok] = True
        alive = alive & ok
        return (x, deriv, stretch, alive) if alive.any() else None

    values = np.zeros_like(xs)
    start = (xs, np.ones_like(xs), 1.0, np.ones(xs.shape, dtype=bool))
    with np.errstate(all="ignore"):
        for _, (_, deriv, stretch, alive) in walk_words(letters, depth, start, step, reduced=True):
            np.maximum(values, np.abs(deriv) / stretch**sample.alpha1, out=values, where=alive)
    return SupMeasure1D(xs=xs, values=values, flagged=np.flatnonzero(bad).tolist())


@dataclass
class OneDConjugator:
    """Strictly monotone change of the first coordinate, grid-interpolated."""

    xs: np.ndarray
    values: np.ndarray

    def fn(self, x):
        return np.interp(x, self.xs, self.values)

    def inv(self, u):
        return np.interp(u, self.values, self.xs)

    def __call__(self, x):
        return self.fn(x)


def conjugator_1d(mu: SupMeasure1D) -> OneDConjugator:
    """Antiderivative of the sup measure, anchored at 0 (trapezoid rule)."""
    if np.any(mu.values <= 0.0):
        raise InputError("sup measure must be positive on the whole grid")
    steps = np.diff(mu.xs) * 0.5 * (mu.values[1:] + mu.values[:-1])
    vals = np.concatenate(([0.0], np.cumsum(steps)))
    vals -= np.interp(0.0, mu.xs, vals)
    return OneDConjugator(xs=mu.xs.copy(), values=vals)


@dataclass(frozen=True)
class WordVerdict:
    word: tuple
    defect: float
    mean_scale: float


@dataclass
class ConjugationReport:
    verdicts: list[WordVerdict]
    max_defect: float
    passed: bool


def verify_conjugation(
    sample: GroupSample,
    F: OneDConjugator,
    probes: np.ndarray,
    probe_step: float = 0.5,
    tol: float = 1e-3,
) -> ConjugationReport:
    """Classify every conjugated word, up to the sample's ``word_len``, by its
    first-block derivative spread.

    The defect of a word is the maximal relative deviation of the
    conjugated slope (measured over probe intervals) from its geometric
    mean; all defects at most tol means the conjugated sample acts by
    similarities on the line.
    """
    probes = np.asarray(probes, dtype=float)
    span = F.fn(float(probes.max() + probe_step)) - F.fn(float(probes.min()))
    if not span > 0:
        raise InputError("conjugator is not increasing on the probe range")
    gens = sample.generators
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]
    # one row of interval endpoints per probe
    us = F.fn(np.stack([probes, probes + probe_step], axis=1))
    gaps = us[:, 1] - us[:, 0]

    def step(letter, images):
        idx, sgn = letter
        return gens[idx].fn(images) if sgn == 1 else gens[idx].inv(images)

    verdicts = []
    for w, images in walk_words(letters, sample.word_len, F.inv(us), step, reduced=True):
        if not w:
            continue
        vs = F.fn(images)
        slopes = np.abs((vs[:, 1] - vs[:, 0]) / gaps)
        # a zero slope makes the mean 0 and the defect NaN, which fails the report
        with np.errstate(divide="ignore", invalid="ignore"):
            gmean = float(np.exp(np.log(slopes).mean()))
            defect = float(np.max(np.abs(slopes / gmean - 1.0)))
        verdicts.append(WordVerdict(word=w, defect=defect, mean_scale=gmean))
    # np.max propagates NaN, so a word whose images left the conjugator's grid
    # (a zero slope, hence a NaN defect) shows in max_defect and fails the report
    worst = float(np.max([v.defect for v in verdicts], initial=0.0))
    return ConjugationReport(verdicts=verdicts, max_defect=worst, passed=worst <= tol)


# -- stretch normalization --------------------------------------------------


@dataclass
class NormalizedSample:
    conjugated: list[FirstBlockAffineMap]
    mu_of: Callable[[tuple], float]
    alpha1: float


def normalize_stretch(sample: GroupSample) -> NormalizedSample:
    """Conjugate so the first-block stretch is exactly t_g^alpha_1.

    mu(y) is the sup of normalized stretches over forward words up to the
    sample's ``word_len``;
    conjugating by (x, y) -> (mu(y) x, y) rescales each generator's lam to
    mu(g y) lam(y) / mu(y). Generators must have affine first blocks.
    """
    gens = sample.generators
    for g in gens:
        if not isinstance(g, FirstBlockAffineMap):
            raise InputError(
                "stretch normalization needs affine first blocks; run the "
                "sup-measure pipeline first"
            )
    alpha1 = gens[0].spec.exponents[0]

    def step(gi, state):
        # the normalized first-block stretch is a cocycle along the quotient
        eta, y = state
        g = gens[gi]
        return eta * (g.lam_of(y) / g.stretch**alpha1), tuple(g.quotient(y))

    def mu_of(y: tuple) -> float:
        return max(eta for _, (eta, _) in walk_words(range(len(gens)), sample.word_len, (1.0, y), step))

    conjugated = []
    for g in gens:
        conjugated.append(_conjugate_by_scale(g, mu_of))
    return NormalizedSample(conjugated=conjugated, mu_of=mu_of, alpha1=alpha1)


def _conjugate_by_scale(g: FirstBlockAffineMap, mu_of: Callable[[tuple], float]) -> FirstBlockAffineMap:
    def lam(y):
        return mu_of(tuple(g.quotient(y))) * g.lam_of(y) / mu_of(y)

    def b_of(y):
        return mu_of(y) * g.B_of(y)

    return FirstBlockAffineMap(
        spec=g.spec,
        stretch=g.stretch,
        quotient=g.quotient,
        lam_of=lam,
        A_of=g.A_of,
        B_of=b_of,
    )


# -- radial conjugator ------------------------------------------------------


@dataclass
class RadialStep:
    t: float
    cauchy_defect: float
    similarity_defect: float


@dataclass
class RadialReport:
    conjugators: list
    steps: list[RadialStep]


def radial_conjugator(
    sample: GroupSample,
    escape: Sequence[FirstBlockAffineMap],
    a_matrix: np.ndarray,
) -> RadialReport:
    """Conjugator sequence dilation(t_i) . a . G_i along an escaping orbit.

    t_i is the reciprocal of the escape word's quotient similarity
    constant; the report tracks the sup-distance between successive maps,
    and the similarity defect of the conjugated generators, on 64 probes
    drawn uniformly from [-1, 1] in every coordinate (seed 11). The last
    conjugator approximates the limit.
    """
    rng = np.random.default_rng(11)
    if not escape:
        raise InputError("escape sequence must be nonempty")
    spec = escape[0].spec
    ts = [1.0 / g.stretch for g in escape]
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ConvergenceError("escape stretches are not strictly increasing")
    a_matrix = np.asarray(a_matrix, dtype=float)

    def make_conjugator(t: float, G: FirstBlockAffineMap):
        def F(p: BlockPoint) -> BlockPoint:
            q = G(p)
            q = BlockPoint((a_matrix @ q.blocks[0],) + tuple(q.blocks[1:]))
            return BlockPoint.from_flat(spec, dilate(spec, t, q))

        def F_inv(p: BlockPoint) -> BlockPoint:
            q = BlockPoint.from_flat(spec, dilate(spec, 1.0 / t, p))
            q = BlockPoint((np.linalg.solve(a_matrix, q.blocks[0]),) + tuple(q.blocks[1:]))
            return G.invert_point(q)

        return F, F_inv

    probes = [
        BlockPoint(tuple(rng.uniform(-1.0, 1.0, n) for n in spec.multiplicities))
        for _ in range(64)
    ]
    maps = [make_conjugator(t, g) for t, g in zip(ts, escape)]
    steps = []
    for i, (F, F_inv) in enumerate(maps):
        if i + 1 < len(maps):
            Fn = maps[i + 1][0]
            cauchy = max(float(np.linalg.norm(F(p).flat() - Fn(p).flat())) for p in probes)
        else:
            cauchy = float("nan")
        defect = _similarity_defect(sample, F, F_inv, probes, spec)
        steps.append(RadialStep(t=ts[i], cauchy_defect=cauchy, similarity_defect=defect))
    return RadialReport(conjugators=[m[0] for m in maps], steps=steps)


def _similarity_defect(sample: GroupSample, F, F_inv, probes, spec: SpectralData) -> float:
    """Spread of first-block distance ratios of the conjugated generators."""
    worst = 0.0
    for G in sample.generators:
        ratios = []
        for p in probes:
            hp = F(G(F_inv(p)))
            for bi in range(spec.r):
                for delta in (0.25, 0.5):
                    shifted = list(p.blocks)
                    shifted[bi] = shifted[bi] + delta
                    q = BlockPoint(tuple(shifted))
                    hq = F(G(F_inv(q)))
                    d0 = distance(spec, p, q)
                    d1 = distance(spec, hp, hq)
                    if d0 > 0 and d1 > 0:
                        ratios.append(d1 / d0)
        if ratios:
            logs = np.log(np.asarray(ratios))
            worst = max(worst, float(np.max(np.abs(logs - logs.mean()))))
    return worst
