"""Conjugation pipeline: sup-measure conjugator on one-dimensional first
blocks, stretch normalization, radial-conjugator iteration, and
post-conjugation similarity verification."""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, InputError
from .mapalg import FirstBlockAffineMap
from .nilpotent import walk_words
from .quasimetric import dilate, distance
from .spectral import SpectralData, floats, join_blocks, random_row_blocks, split_rows


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
    xs = floats(xs, "grid")
    depth = sample.word_len if word_len is None else word_len
    gens = sample.generators
    letters = [(i, s) for i in range(len(gens)) for s in (1, -1)]
    bad = np.zeros(xs.shape, dtype=bool)

    def step(letter, state):
        # a point dead for a word stays dead for every extension of it
        x, deriv, stretch, alive = state
        x, deriv, stretch = _chain_1d(gens, letter, (x, deriv, stretch))
        ok = (deriv != 0.0) & np.isfinite(deriv) & np.isfinite(x)
        if not ok.all():
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
    probes = floats(probes, "probes")
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
    mu_of: Callable[[Sequence[np.ndarray]], np.ndarray]
    alpha1: float


def normalize_stretch(sample: GroupSample) -> NormalizedSample:
    """Conjugate so the first-block stretch is exactly t_g^alpha_1.

    mu(y) is the sup of normalized stretches over forward words up to the
    sample's ``word_len``; ``mu_of`` takes the quotient blocks of one point
    or of N points and walks the words once for all of them.
    Conjugating by (x, y) -> (mu(y) x, y) rescales each generator's lam to
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
        return eta * (g.lam_of(y) / g.stretch**alpha1), g.quotient(y)

    def mu_of(y):
        walk = walk_words(range(len(gens)), sample.word_len, (1.0, y), step)
        return functools.reduce(np.maximum, (eta for _, (eta, _) in walk))

    conjugated = [_conjugate_by_scale(g, mu_of) for g in gens]
    return NormalizedSample(conjugated=conjugated, mu_of=mu_of, alpha1=alpha1)


def _conjugate_by_scale(g: FirstBlockAffineMap, mu_of: Callable) -> FirstBlockAffineMap:
    def lam(y):
        return mu_of(g.quotient(y)) * g.lam_of(y) / mu_of(y)

    def b_of(y):
        return np.asarray(mu_of(y))[..., None] * g.B_of(y)

    return dataclasses.replace(g, lam_of=lam, B_of=b_of, inverse_map=None)


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
    conjugator approximates the limit. A conjugator maps the blocks of one
    point or of N points, as ``eval_blocks`` does.
    """
    rng = np.random.default_rng(11)
    if not escape:
        raise InputError("escape sequence must be nonempty")
    spec = escape[0].spec
    ts = [1.0 / g.stretch for g in escape]
    if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ConvergenceError("escape stretches are not strictly increasing")
    a_matrix = floats(a_matrix, "a_matrix")

    def make_conjugator(t: float, G: FirstBlockAffineMap):
        def F(blocks):
            q = G.eval_blocks(blocks)
            q[0] = np.matvec(a_matrix, q[0])
            return split_rows(spec, dilate(spec, t, join_blocks(q)))

        def F_inv(blocks):
            q = split_rows(spec, dilate(spec, 1.0 / t, join_blocks(blocks)))
            q[0] = np.linalg.solve(a_matrix, q[0][..., None])[..., 0]
            return G.invert_blocks(q)

        return F, F_inv

    probes = next(random_row_blocks(spec, rng, 64, 1, 1.0))[:, 0]
    maps = [make_conjugator(t, g) for t, g in zip(ts, escape)]
    images = [join_blocks(F(split_rows(spec, probes))) for F, _ in maps]
    cauchy = [float(np.max(np.sqrt(np.vecdot(a - b, a - b)))) for a, b in zip(images, images[1:])]
    steps = [
        RadialStep(t, c, _similarity_defect(sample, F, F_inv, probes, spec))
        for t, c, (F, F_inv) in zip(ts, cauchy + [float("nan")], maps)
    ]
    return RadialReport(conjugators=[m[0] for m in maps], steps=steps)


def _similarity_defect(sample: GroupSample, F, F_inv, probes: np.ndarray,
                       spec: SpectralData) -> float:
    """Spread of first-block distance ratios of the conjugated generators.

    Each probe row is paired with its shifts by 0.25 and 0.5 in each block,
    in the order probe, block, shift.
    """
    shifted = np.repeat(probes[:, None, None], spec.r, axis=1).repeat(2, axis=2)
    for bi, s in enumerate(spec.block_slices()):
        shifted[:, bi, :, s] += np.array([[0.25], [0.5]])
    P = np.repeat(probes, 2 * spec.r, axis=0)
    Q = shifted.reshape(P.shape)
    d0 = distance(spec, P, Q)

    def conjugated(G, rows):
        return join_blocks(F(G.eval_blocks(F_inv(split_rows(spec, rows)))))

    worst = 0.0
    for G in sample.generators:
        d1 = distance(spec, np.repeat(conjugated(G, probes), 2 * spec.r, axis=0), conjugated(G, Q))
        keep = (d0 > 0) & (d1 > 0)
        if keep.any():
            logs = np.log(d1[keep] / d0[keep])
            worst = max(worst, float(np.max(np.abs(logs - logs.mean()))))
    return worst
