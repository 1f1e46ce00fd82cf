"""Bundled sample data: spectral fixtures, sample groups for the
conjugation pipeline, rotation witnesses, and exact-rational kernel words."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .funcexpr import Const, Osc
from .mapalg import BoundaryPair, FirstBlockAffineMap, SimMap
from .nilpotent import AlmostTranslation, ExactGenerator, ExactWord
from .spectral import SpectralData
from .tukia import GroupSample, OneDGenerator

SPEC_R1 = SpectralData((2.0,), (1,))
SPEC_R2 = SpectralData((2.0, 3.0), (1, 1))
SPEC_R3 = SpectralData((1.0, 2.0, 3.5), (2, 1, 2))
SPEC_FIG1 = SPEC_R2


# -- 1-D piecewise-derivative sample group (uniform K = 1.5) ----------------

_BREAK = 0.4  # slope 1.5 on [0, 0.4), slope 2/3 on [0.4, 1), shift by 1 elsewhere


def _pw_fn(x):
    return np.where(x < 0.0, x + 1.0,
                    np.where(x < _BREAK, 1.0 + 1.5 * x,
                             np.where(x < 1.0, 1.6 + (2.0 / 3.0) * (x - _BREAK), x + 1.0)))


def _pw_dfn(x):
    return np.where((0.0 <= x) & (x < _BREAK), 1.5,
                    np.where((_BREAK <= x) & (x < 1.0), 2.0 / 3.0, 1.0))


def _pw_inv(u):
    return np.where(u < 1.0, u - 1.0,
                    np.where(u < 1.6, (u - 1.0) / 1.5,
                             np.where(u < 2.0, _BREAK + 1.5 * (u - 1.6), u - 1.0)))


def piecewise_1d_sample(word_len: int = 12) -> GroupSample:
    """Single generator drifting by one unit, with a one-shot slope bump.

    Every orbit crosses the bump region [0, 1) exactly once, so all word
    derivatives lie in {2/3, 1, 3/2}: the group is uniformly 1.5-Bilip and
    the generator is unit-stretch.
    """
    gen = OneDGenerator(fn=_pw_fn, dfn=_pw_dfn, inv=_pw_inv, stretch=1.0, label="bump")
    return GroupSample(generators=[gen], word_len=word_len, uniform_K=1.5, alpha1=1.0)


def similarity_1d_sample(word_len: int = 6) -> GroupSample:
    """Pure similarities of the line: scaling by 2 about the origin."""
    gen = OneDGenerator(
        fn=lambda x: 2.0 * x,
        dfn=lambda x: 2.0,
        inv=lambda x: 0.5 * x,
        stretch=2.0,
        label="scale2",
    )
    return GroupSample(generators=[gen], word_len=word_len, uniform_K=1.0, alpha1=1.0)


# -- stretch-normalization fixtures ----------------------------------------

SPEC_STRETCH = SpectralData((1.0, 2.0), (1, 1))


def stretch_bump_sample(word_len: int = 12) -> GroupSample:
    """Unit-stretch generator whose first-block factor doubles on one window.

    The quotient translates by one, so the window [0, 1) is hit exactly
    once per orbit and the normalized stretches stay bounded (uniform).
    """

    def quot(y):
        return (y[0] + 1.0,)

    def lam(y):
        return 2.0 if 0.0 <= float(y[0][0]) < 1.0 else 1.0

    gen = FirstBlockAffineMap(
        spec=SPEC_STRETCH,
        stretch=1.0,
        quotient=quot,
        lam_of=lam,
        label="lam-bump",
    )
    return GroupSample(generators=[gen], word_len=word_len, uniform_K=2.0, alpha1=1.0)


def normalized_dilation_sample(t: float = 2.0, word_len: int = 6) -> GroupSample:
    """Generator whose first-block stretch already equals t^alpha_1."""

    def quot(y, _t=t):
        return tuple(_t ** e * b for e, b in zip(SPEC_STRETCH.exponents[1:], y))

    gen = FirstBlockAffineMap(spec=SPEC_STRETCH, stretch=t, quotient=quot, label="dil")
    return GroupSample(generators=[gen], word_len=word_len, uniform_K=1.0, alpha1=1.0)


# -- rotation fixtures ------------------------------------------------------

SPEC_ROT = SpectralData((1.0, 2.0), (2, 1))


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def constant_rotation_map(theta: float = 0.7) -> FirstBlockAffineMap:
    def quot(y):
        return (y[0] + 1.0,)

    return FirstBlockAffineMap(
        spec=SPEC_ROT,
        stretch=1.0,
        quotient=quot,
        A_of=lambda y: _rotation(theta),
        B_of=lambda y: np.array([math.sin(float(y[0][0])), 0.0]),
        label="const-rot",
    )


def varying_rotation_map() -> FirstBlockAffineMap:
    """Counterexample: leaf rotation depends (boundedly) on the quotient."""

    def quot(y):
        return (y[0] + 1.0,)

    def a_of(y):
        return _rotation(0.5 * math.tanh(float(y[0][0])))

    return FirstBlockAffineMap(
        spec=SPEC_ROT, stretch=1.0, quotient=quot, A_of=a_of, label="vary-rot"
    )


# -- radial-conjugator fixture ---------------------------------------------

SPEC_RADIAL = SpectralData((1.0, 2.0), (1, 1))


def radial_generator() -> FirstBlockAffineMap:
    """Contraction fixing the origin with a quadratic first-block defect."""

    def quot(y):
        return (y[0] / 2.0,)

    def b_of(y):
        return np.array([math.sqrt(2.0) * float(y[0][0]) ** 2])

    lam = 1.0 / math.sqrt(2.0)

    def inv(p):
        from .spectral import BlockPoint

        y = 2.0 * p.blocks[1]
        x = math.sqrt(2.0) * (p.blocks[0] - float(y[0]) ** 2)
        return BlockPoint((np.atleast_1d(x), y))

    g = FirstBlockAffineMap(
        spec=SPEC_RADIAL,
        stretch=lam,
        quotient=quot,
        lam_of=lambda y, _l=lam: _l,
        B_of=b_of,
        inverse_map=inv,
        label="radial",
    )
    return g


def radial_escape_words(count: int = 8) -> list[FirstBlockAffineMap]:
    """Powers of the radial generator, each carrying its exact inverse."""
    g = radial_generator()
    base_inv = g.inverse_map
    words = []
    cur = g
    for i in range(1, count + 1):
        word = cur

        def make_inv(k):
            def inv(p):
                for _ in range(k):
                    p = base_inv(p)
                return p

            return inv

        word.inverse_map = make_inv(i)
        words.append(word)
        cur = g.compose(cur)
    return words


def radial_sample() -> GroupSample:
    return GroupSample(generators=[radial_generator()], word_len=4, uniform_K=2.0, alpha1=1.0)


# -- reciprocity fixtures ---------------------------------------------------


def matched_boundary_pair() -> BoundaryPair:
    return BoundaryPair(lower=SimMap.dilation(SPEC_R1, 2.0), upper=SimMap.dilation(SPEC_R1, 0.5))


def mismatched_boundary_pair() -> BoundaryPair:
    return BoundaryPair(
        lower=SimMap.dilation(SPEC_R1, 2.0), upper=SimMap.dilation(SPEC_R1, 1.0 / 3.0)
    )


# -- almost-translation fixtures (floating point) ---------------------------

SPEC_NIL = SpectralData((1.0, 2.0), (1, 1))


def oscillating_kernel_element(c: float = 4.0, K: float = 2.0) -> AlmostTranslation:
    """B_1(x_2) = sin(x_2), B_2 = c; certificates sized for the bound checks."""
    b1 = Osc(amp=[1.0], weights=[1.0], phase=0.0, child=_block_var(1, 1))
    return AlmostTranslation(SPEC_NIL, [b1, Const([c])], K=K)


def unit_translation_1d() -> AlmostTranslation:
    return AlmostTranslation(SPEC_R1, [Const([1.0])], K=1.0)


def _block_var(index: int, dim: int):
    from .funcexpr import BlockVar

    return BlockVar(index, dim)


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


def _chi(x: Fraction) -> int:
    # alternating sign with period 1: +1 on [0, 1/2), -1 on [1/2, 1)
    frac = x - math.floor(x)
    return 1 if frac < Fraction(1, 2) else -1


def _u(x: Fraction) -> Fraction:
    # u(x) + u(x + 1/2) = 1 for every x
    return Fraction(1, 2) + Fraction(1, 4) * _chi(Fraction(x))


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
