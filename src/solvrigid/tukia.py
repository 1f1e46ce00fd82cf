"""Conjugation pipeline: sup-measure conjugator on one-dimensional first
blocks, stretch normalization, radial-conjugator iteration, and
post-conjugation similarity verification."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, InputError
from .mapalg import FirstBlockAffineMap
from .nilpotent import walk_words
from .quasimetric import dilate, distance
from .spectral import SpectralData, floats, join_blocks, random_row_blocks, split_rows


# -- 1-D piecewise-linear maps --------------------------------------------


def _merged(xs: np.ndarray) -> np.ndarray:
    """Indices that sort the knots, with each knot within 1e-12 max(1, |x|) of
    the one before it dropped: float knots that agree to rounding are one knot,
    and no piece is a sliver whose slope is rounding over rounding."""
    order = np.argsort(xs)
    xs = xs[order]
    keep = np.empty(len(xs), dtype=bool)
    keep[0] = True
    np.greater(xs[1:] - xs[:-1], 1e-12 * np.maximum(1.0, np.abs(xs[1:])), out=keep[1:])
    return order[keep]


def _evaluate(x: np.ndarray, xs: np.ndarray, ys: np.ndarray, left: float, right: float):
    """The PL map through the knots (xs, ys), with end slopes left and right, at x."""
    # np.interp holds the end values beyond the knots; the end slopes continue them
    return (np.interp(x, xs, ys) + left * np.minimum(x - xs[0], 0.0)
            + right * np.maximum(x - xs[-1], 0.0))


_TINY = np.finfo(float).tiny  # the least normal float, whose reciprocal is finite


def _filled(f: "PLHomeo", xs, ys, left: float, right: float, stretch: float, error):
    """f with these parts, else ``error``: the first knot and value must be finite, and
    every slope and the stretch lie in [_TINY, inf), so that the inverse's do too. xs
    must be increasing, and numpy's warnings off: a non-finite part reads a bad slope."""
    slopes = np.concatenate(([left], (ys[1:] - ys[:-1]) / (xs[1:] - xs[:-1]), [right]))
    if not (math.isfinite(xs[0]) and math.isfinite(ys[0]) and _TINY <= stretch < math.inf
            and _TINY <= slopes.min() and slopes.max() < math.inf):
        raise error("a PL homeomorphism needs finite knots and values, and positive "
                    "slopes and stretch with finite reciprocals")
    slopes.flags.writeable = False
    f.xs, f.ys, f.left, f.right, f.stretch, f._slopes = xs, ys, left, right, stretch, slopes
    return f


class PLHomeo:
    """A strictly increasing piecewise-linear homeomorphism of the line.

    The knots ``xs`` (strictly increasing, at least one) map to ``ys``, and the
    map continues with the end slopes ``left`` and ``right``. A generator
    carries its ``stretch``, which multiplies under ``compose`` and inverts
    under ``inverse``. ``compose`` merges the knots of both factors that agree
    to rounding: a knot within 1e-12 max(1, |x|) of the one before it is
    dropped. Bad parts raise InputError, and a composition or inverse beyond
    float range DomainError.
    """

    def __init__(self, xs, ys, left, right, stretch=1.0):
        xs, ys = floats(xs, "knots"), floats(ys, "knot values")
        ends = floats([left, right, stretch], "end slopes and stretch").tolist()
        if not (xs.ndim == 1 and xs.shape == ys.shape and xs.size and (xs[1:] > xs[:-1]).all()):
            raise InputError("a PL homeomorphism needs increasing knots, at least one, "
                             "and one value per knot")
        with np.errstate(all="ignore"):
            _filled(self, xs, ys, *ends, InputError)

    def __call__(self, x):
        """The image of a point, or of an array of points element by element; an image
        beyond float range reads inf."""
        with np.errstate(over="ignore"):
            return _evaluate(floats(x, "points"), self.xs, self.ys, self.left, self.right)

    def slopes(self) -> np.ndarray:
        """The slope on each piece, left to right: ``left``, one per gap between
        knots, then ``right`` (read-only)."""
        return self._slopes

    def inverse(self) -> "PLHomeo":
        with np.errstate(all="ignore"):
            return _filled(object.__new__(PLHomeo), self.ys, self.xs, 1.0 / self.left,
                           1.0 / self.right, 1.0 / self.stretch, DomainError)

    def compose(self, other: "PLHomeo") -> "PLHomeo":
        """self after other: its knots are other's and the preimages of self's."""
        if other is _IDENTITY:  # the first letter of a walk
            return self
        with np.errstate(all="ignore"):
            pulled = _evaluate(self.xs, other.ys, other.xs, 1.0 / other.left, 1.0 / other.right)
            knots = np.concatenate((other.xs, pulled))
            # other maps its knots to its values and the pulled knots to self's knots
            keep = _merged(knots)
            values = _evaluate(np.concatenate((other.ys, self.xs))[keep], self.xs, self.ys,
                               self.left, self.right)
            return _filled(object.__new__(PLHomeo), knots[keep], values, self.left * other.left,
                           self.right * other.right, self.stretch * other.stretch, DomainError)


_IDENTITY = PLHomeo([0.0], [0.0], 1.0, 1.0)


@dataclass
class GroupSample:
    """A finitely generated sample of boundary maps with a truncation depth."""

    generators: list
    word_len: int
    alpha1: float = 1.0


def _walk(maps: Sequence, depth: int):
    """The reduced words of at most ``depth`` letters in the PLHomeos ``maps``, each
    with its map."""
    letters = {(i, s): g if s == 1 else g.inverse() for i, g in enumerate(maps) for s in (1, -1)}
    return walk_words(list(letters), depth, _IDENTITY, lambda a, w: letters[a].compose(w),
                      reduced=True)


# -- 1-D sup measure and conjugator ----------------------------------------


@dataclass
class SupMeasure1D:
    """A positive step function: ``values[i]`` between the breaks ``xs[i - 1]`` and
    ``xs[i]``, ``values[0]`` and ``values[-1]`` beyond the first and last."""

    xs: np.ndarray
    values: np.ndarray

    def __call__(self, x):
        """The value at points that are not breaks; at a break, the value left of it."""
        return self.values[np.searchsorted(self.xs, floats(x, "points"))]


def sup_measure_1d(sample: GroupSample, depth: int) -> SupMeasure1D:
    """Max of the stretch-normalized slopes |w'| / stretch(w)^alpha1 over the reduced
    words w of at most ``depth`` letters in the sample's PLHomeo generators.

    The max is constant between the merged knots of all words, their common
    refinement, and is read at one point inside each piece. The words are folded
    in batches of 256, so memory holds one batch and the walker's level."""
    walk = (w for _, w in _walk(sample.generators, depth))
    xs, values = np.empty(0), np.zeros(1)
    with np.errstate(all="ignore"):
        while batch := list(itertools.islice(walk, 256)):
            new = np.concatenate([xs, *(w.xs for w in batch)])
            new = new[_merged(new)]
            # one point inside each piece; a piece's index is the count of knots left of it
            inside = np.concatenate(([-math.inf], 0.5 * (new[1:] + new[:-1]), [math.inf]))
            values = functools.reduce(np.maximum, (
                w.slopes()[np.searchsorted(w.xs, inside)] / w.stretch**sample.alpha1
                for w in batch), values[np.searchsorted(xs, inside)])
            xs = new
    return SupMeasure1D(xs=xs, values=values)


def conjugator_1d(mu: SupMeasure1D) -> PLHomeo:
    """The antiderivative of the sup measure anchored at 0: a PLHomeo with a knot
    at each break and the measure's value as its slope. InputError unless every
    value is positive and finite."""
    ys = np.concatenate(([0.0], np.cumsum(np.diff(mu.xs) * mu.values[1:-1])))
    ys -= _evaluate(0.0, mu.xs, ys, mu.values[0], mu.values[-1])
    return PLHomeo(mu.xs, ys, mu.values[0], mu.values[-1])


def verify_conjugation(sample: GroupSample, F: PLHomeo, lo: float, hi: float) -> dict:
    """Per word w of 1 to ``word_len`` letters in the sample's PLHomeo generators,
    the largest relative deviation of a slope of F w F^-1, on a piece that meets
    the window (lo, hi), from the word's single slope stretch(w)^alpha1. All 0
    means the conjugated sample acts on the window by similarities."""

    def defect(c: PLHomeo) -> float:
        # the pieces from the one holding lo to the one holding hi
        s = c.slopes()[np.searchsorted(c.xs, lo, side="right"):np.searchsorted(c.xs, hi) + 1]
        s = s / c.stretch**sample.alpha1
        return float(max(s.max() - 1.0, 1.0 - s.min()))

    conjugated = [F.compose(g.compose(F.inverse())) for g in sample.generators]
    return {w: defect(c) for w, c in _walk(conjugated, sample.word_len) if w}


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
