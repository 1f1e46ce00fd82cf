"""Bundled sample data: spectral fixtures, sample groups for the
conjugation pipeline, rotation witnesses, and exact-rational kernel words."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .funcexpr import BlockVar, Const, Osc
from .mapalg import FirstBlockAffineMap
from .nilpotent import AlmostTranslation, ExactGenerator, ExactWord
from .spectral import SpectralData
from .tukia import GroupSample, PLHomeo

SPEC_R1 = SpectralData((2.0,), (1,))
SPEC_R2 = SpectralData((2.0, 3.0), (1, 1))
SPEC_R3 = SpectralData((1.0, 2.0, 3.5), (2, 1, 2))
SPEC_FIG1 = SPEC_R2


# -- 1-D piecewise-linear sample group (uniform K = 1.5) ----------------


def piecewise_1d_sample(word_len: int = 12) -> GroupSample:
    """Single generator drifting by one unit, with a one-shot slope bump.

    Every orbit crosses the bump region [0, 1) exactly once, so all word
    derivatives lie in {2/3, 1, 3/2}: the group is uniformly 1.5-Bilip and
    the generator is unit-stretch.
    """
    # slope 1.5 on [0, 0.4), slope 2/3 on [0.4, 1), shift by 1 elsewhere
    gen = PLHomeo([0.0, 0.4, 1.0], [1.0, 1.6, 2.0], 1.0, 1.0)
    return GroupSample(generators=[gen], word_len=word_len, alpha1=1.0)


# -- stretch-normalization fixtures ----------------------------------------

SPEC_STRETCH = SpectralData((1.0, 2.0), (1, 1))


def _shift(y):
    return [y[0] + 1.0]


def stretch_bump_sample(word_len: int = 12) -> GroupSample:
    """Unit-stretch generator whose first-block factor doubles on one window.

    The quotient translates by one, so the window [0, 1) is hit exactly
    once per orbit and the normalized stretches stay bounded (uniform).
    """

    def lam(y):
        return np.where((0.0 <= y[0][..., 0]) & (y[0][..., 0] < 1.0), 2.0, 1.0)

    gen = FirstBlockAffineMap(spec=SPEC_STRETCH, stretch=1.0, quotient=_shift, lam_of=lam)
    return GroupSample(generators=[gen], word_len=word_len, alpha1=1.0)


def normalized_dilation_sample(word_len: int = 6) -> GroupSample:
    """Dilation by t = 2, whose first-block stretch already equals t^alpha_1."""

    def quot(y):
        return [2.0 ** e * b for e, b in zip(SPEC_STRETCH.exponents[1:], y)]

    gen = FirstBlockAffineMap(spec=SPEC_STRETCH, stretch=2.0, quotient=quot)
    return GroupSample(generators=[gen], word_len=word_len, alpha1=1.0)


# -- rotation fixtures ------------------------------------------------------

SPEC_ROT = SpectralData((1.0, 2.0), (2, 1))


def _rotation(theta) -> np.ndarray:
    """The rotation by theta: one matrix, or a stack for an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def constant_rotation_map(theta: float = 0.7) -> FirstBlockAffineMap:
    return FirstBlockAffineMap(
        spec=SPEC_ROT,
        stretch=1.0,
        quotient=_shift,
        A_of=lambda y: _rotation(theta),
        B_of=lambda y: np.concatenate([np.sin(y[0]), np.zeros_like(y[0])], axis=-1),
    )


def varying_rotation_map() -> FirstBlockAffineMap:
    """Counterexample: leaf rotation depends (boundedly) on the quotient."""

    def a_of(y):
        return _rotation(0.5 * np.tanh(y[0][..., 0]))

    return FirstBlockAffineMap(spec=SPEC_ROT, stretch=1.0, quotient=_shift, A_of=a_of)


# -- radial-conjugator fixture ---------------------------------------------

SPEC_RADIAL = SpectralData((1.0, 2.0), (1, 1))


def radial_generator() -> FirstBlockAffineMap:
    """Contraction fixing the origin with a quadratic first-block defect."""
    lam = 1.0 / math.sqrt(2.0)

    def inv(blocks):
        y = 2.0 * blocks[1]
        return [math.sqrt(2.0) * (blocks[0] - y**2), y]

    return FirstBlockAffineMap(
        spec=SPEC_RADIAL,
        stretch=lam,
        quotient=lambda y: [y[0] / 2.0],
        lam_of=lambda y: lam,
        B_of=lambda y: math.sqrt(2.0) * y[0] ** 2,
        inverse_map=inv,
    )


def radial_escape_words(count: int = 8) -> list[FirstBlockAffineMap]:
    """Powers of the radial generator, each carrying its exact inverse."""
    g = radial_generator()
    base_inv = g.inverse_map
    words = [g]
    for _ in range(count - 1):
        words.append(g.compose(words[-1]))
    for k, word in enumerate(words, 1):
        word.inverse_map = lambda blocks, k=k: functools.reduce(
            lambda b, _: base_inv(b), range(k), blocks)
    return words[:count]


def radial_sample() -> GroupSample:
    return GroupSample(generators=[radial_generator()], word_len=4, alpha1=1.0)


# -- almost-translation fixtures (floating point) ---------------------------

SPEC_NIL = SpectralData((1.0, 2.0), (1, 1))


def oscillating_kernel_element(c: float = 4.0) -> AlmostTranslation:
    """B_1(x_2) = sin(x_2), B_2 = c, K = 2; certificates sized for the bound checks."""
    b1 = Osc(amp=[1.0], weights=[1.0], phase=0.0, child=BlockVar(1, 1))
    return AlmostTranslation(SPEC_NIL, [b1, Const([c])], K=2.0)


# -- exact-rational root fixtures ------------------------------------------


def exact_r1_fixture():
    """One-level fixture: gens=[unit translation], gamma_p = 5/2 translation."""
    dims = (1,)
    g1 = ExactGenerator(dims, [(Fraction(1),)], name="g1")
    gp = ExactGenerator(dims, [(Fraction(5, 2),)], name="gp")
    gens = [g1, gp]
    gamma_p = ExactWord(gens, [(1, 1)])
    levels = [[0]]
    return gens, gamma_p, levels


_U = {1: Fraction(3, 4), -1: Fraction(1, 4)}


def _chi(x: Fraction) -> int:
    # alternating sign with period 1: +1 on [0, 1/2), -1 on [1/2, 1); the fractional part
    # of x is (numerator mod denominator) / denominator
    return 1 if 2 * (x.numerator % x.denominator) < x.denominator else -1


def _u(x: Fraction) -> Fraction:
    # u(x) = 1/2 + chi(x)/4, so u(x) + u(x + 1/2) = 1 for every x
    return _U[_chi(x)]


def exact_r2_fixture():
    """Two-level fixture whose descent exercises the shuffle identities.

    gamma_p translates the top block by 3/2 and the first block by a
    bounded exactly-evaluable function of it; its square lies in the
    subgroup generated by the two unit translations.
    """
    dims = (1, 1)
    g1 = ExactGenerator(dims, [(Fraction(1),), (Fraction(0),)], name="g1")
    g2 = ExactGenerator(dims, [(Fraction(0),), (Fraction(1),)], name="g2")

    def b1_gp(later):
        (x2,) = later[0]
        return (_u(x2),)

    gp = ExactGenerator(dims, [b1_gp, (Fraction(3, 2),)], name="gp")
    gens = [g1, g2, gp]
    gamma_p = ExactWord(gens, [(2, 1)])
    levels = [[0], [1]]
    return gens, gamma_p, levels
