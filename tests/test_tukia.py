"""Conjugation pipeline: piecewise-linear maps, sup measures, conjugators,
stretch normalization, and the radial iteration."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from solvrigid import (
    BlockPoint,
    ConvergenceError,
    FirstBlockAffineMap,
    GroupSample,
    InputError,
    PLHomeo,
    conjugator_1d,
    dilate,
    normalize_stretch,
    radial_conjugator,
    sup_measure_1d,
    verify_conjugation,
)
from solvrigid.cli import RunConfig
from solvrigid.fixtures import (
    SPEC_RADIAL,
    normalized_dilation_sample,
    piecewise_1d_sample,
    radial_escape_words,
    radial_generator,
    radial_sample,
    stretch_bump_sample,
)
from solvrigid.nilpotent import walk_words
from solvrigid.spectral import join_blocks, split_rows
from solvrigid import tukia
from solvrigid.tukia import SupMeasure1D

import affine_reference
import pl_reference
from builders import similarity_1d_sample
from metric_reference import isclose

HALF_SHIFT = PLHomeo([0.0], [0.5], 1.0, 1.0)


def _pipeline(sample, lo=-3.0, hi=3.0):
    """The measure and conjugator at the depth the CLI takes for the window (lo, hi)."""
    mu = sup_measure_1d(sample, math.ceil(max(-lo, hi)) + sample.word_len + 1)
    return mu, conjugator_1d(mu)


def _two_generator_sample(word_len):
    sample = piecewise_1d_sample(word_len)
    return dataclasses.replace(sample, generators=sample.generators + [HALF_SHIFT])


# -- enumerate-then-fold reference: every word is listed, then folded from
# the identity letter by letter (the walker shares each word's prefix)


def _ref_reduced_words(n_generators, word_len):
    out = [()]
    frontier = [()]
    letters = [(i, s) for i in range(n_generators) for s in (1, -1)]
    for _ in range(word_len):
        nxt = []
        for w in frontier:
            for idx, sgn in letters:
                if w and w[-1] == (idx, -sgn):
                    continue
                nxt.append(w + ((idx, sgn),))
        frontier = nxt
        out.extend(frontier)
    return out


def _ref_word_derivative(generators, word, x):
    """(slopes at the points x, stretch) of the word by the chain rule, one letter at a time."""
    deriv = np.ones_like(x)
    stretch = 1.0
    for idx, sgn in reversed(word):
        g = generators[idx] if sgn == 1 else generators[idx].inverse()
        deriv = deriv * g.slopes()[np.searchsorted(g.xs, x)]
        x = g(x)
        stretch *= g.stretch
    return deriv, stretch


def _ref_sup_measure(sample, x, word_len):
    words = _ref_reduced_words(len(sample.generators), word_len)
    return np.max([d / s**sample.alpha1 for d, s in (
        _ref_word_derivative(sample.generators, w, x) for w in words)], axis=0)


def _ref_fold(maps, word):
    c = tukia._IDENTITY
    for idx, sgn in reversed(word):
        c = (maps[idx] if sgn == 1 else maps[idx].inverse()).compose(c)
    return c


def _ref_defects(sample, F, lo, hi):
    conj = [F.compose(g.compose(F.inverse())) for g in sample.generators]
    defects = {}
    for w in _ref_reduced_words(len(conj), sample.word_len)[1:]:
        c = _ref_fold(conj, w)
        inside = (np.append(c.xs, math.inf) > lo) & (np.insert(c.xs, 0, -math.inf) < hi)
        slope = c.stretch**sample.alpha1
        defects[w] = float(np.max(np.abs(c.slopes()[inside] / slope - 1.0)))
    return defects


def _ref_mu_of(gens, word_len, alpha1):
    words = [()]
    frontier = [()]
    for _ in range(word_len):
        frontier = [w + (gi,) for w in frontier for gi in range(len(gens))]
        words.extend(frontier)

    def eta_of(word, y):
        eta = 1.0
        for gi in reversed(word):
            g = gens[gi]
            eta *= g.lam_of(y) / g.stretch**alpha1
            y = tuple(g.quotient(y))
        return eta

    def mu_of(y):
        best = 1.0
        for w in words:
            best = max(best, eta_of(w, y))
        return best

    return mu_of


def _walked_reduced_words(n_generators, word_len):
    letters = [(i, s) for i in range(n_generators) for s in (1, -1)]
    return [w for w, _ in walk_words(letters, word_len, (), lambda a, s: s, reduced=True)]


class TestWords:
    def test_reduced_word_count_single_generator(self):
        # only powers g^k survive free reduction: two per length plus identity
        words = _walked_reduced_words(1, 5)
        assert len(words) == 11

    def test_walk_is_shortlex_and_prunes_extensions(self):
        # the state is the word spelled out; "ab" and every word ending in it is pruned
        walk = list(walk_words("ab", 3, "", lambda a, s: None if a + s == "ab" else a + s))
        shortlex = ["".join(p) for n in range(4) for p in itertools.product("ab", repeat=n)]
        assert [s for _, s in walk] == [w for w in shortlex if not w.endswith("ab")]
        assert all("".join(w) == s for w, s in walk)

    def test_shortlex_order_of_enumerate_then_fold(self):
        assert _walked_reduced_words(2, 4) == _ref_reduced_words(2, 4)

    def test_no_adjacent_cancellation(self):
        for w in _walked_reduced_words(2, 4):
            for a, b in zip(w, w[1:]):
                assert not (a[0] == b[0] and a[1] == -b[1])

    def test_word_apply_and_derivative(self):
        g = piecewise_1d_sample().generators[0]
        letters = {(0, 1): g, (0, -1): g.inverse()}
        walk = walk_words(list(letters), 3, PLHomeo([0.0], [0.0], 1.0, 1.0),
                          lambda a, w: letters[a].compose(w))
        # g g g^-1 is g, as a map and in its slopes
        w = dict(walk)[(0, 1), (0, 1), (0, -1)]
        x = np.linspace(-2.5, 2.5, 41) + 1.0 / 7.0  # no knot among them
        assert np.allclose(w(x), g(x), rtol=0, atol=1e-15)
        step = 1e-7
        assert np.allclose((w(x + step) - w(x)) / step, SupMeasure1D(w.xs, w.slopes())(x),
                           rtol=1e-6)


class TestPLHomeo:
    def test_call_continues_with_the_end_slopes(self):
        g = piecewise_1d_sample().generators[0]
        x = np.array([-5.0, 0.0, 0.2, 0.4, 0.7, 1.0, 7.5])
        assert g(x).tolist() == pytest.approx([-4.0, 1.0, 1.3, 1.6, 1.8, 2.0, 8.5], abs=1e-15)
        assert g(-5.0) == -4.0 and np.ndim(g(-5.0)) == 0
        assert g.slopes().tolist() == pytest.approx([1.0, 1.5, 2.0 / 3.0, 1.0], rel=1e-15)

    def test_inverse_and_compose_are_closed_forms(self):
        g = piecewise_1d_sample().generators[0]
        x = np.linspace(-4.0, 4.0, 161)
        assert np.allclose(g.inverse()(g(x)), x, rtol=0, atol=1e-15)
        gg = g.compose(g)
        assert np.allclose(gg(x), g(g(x)), rtol=0, atol=1e-15)
        # g g has g's knots and their preimages under g: -1, -0.6 and 0, the last shared
        assert gg.xs.tolist() == pytest.approx([-1.0, -0.6, 0.0, 0.4, 1.0], abs=1e-15)
        assert (gg.left, gg.right, gg.stretch) == (1.0, 1.0, 1.0)
        dil = similarity_1d_sample().generators[0]
        assert dil.compose(dil.inverse()).stretch == 1.0 and dil.compose(dil).stretch == 4.0

    def test_knots_that_agree_to_rounding_merge(self):
        # the preimage of 1 + 1e-16 under a unit shift is 1e-16 from f's knot 0 (after
        # rounding): one knot, and no sliver between them
        f = PLHomeo([0.0, 1.0], [0.0, 2.0], 1.0, 1.0)
        shift = PLHomeo([0.0], [1e-16], 1.0, 1.0)
        c = f.compose(shift)
        assert len(c.xs) == 2
        assert c.slopes().tolist() == pytest.approx([1.0, 2.0, 1.0], rel=1e-12)

    @pytest.mark.parametrize("xs, ys, left, right, stretch", [
        ([0.0, 1.0], [0.0, 0.0], 1.0, 1.0, 1.0),  # a flat piece
        ([0.0, 1.0], [1.0, 0.0], 1.0, 1.0, 1.0),  # decreasing
        ([1.0, 0.0], [0.0, 1.0], 1.0, 1.0, 1.0),  # knots out of order
        ([0.0, 0.0], [0.0, 1.0], 1.0, 1.0, 1.0),  # a repeated knot: an infinite slope
        ([0.0], [0.0], 0.0, 1.0, 1.0),  # a zero end slope
        ([0.0], [0.0], 1.0, math.inf, 1.0),
        ([0.0, math.nan], [0.0, 1.0], 1.0, 1.0, 1.0),
        ([0.0], [0.0], 1.0, 1.0, -2.0),
        ([], [], 1.0, 1.0, 1.0),
        ([0.0, 1.0], [0.0], 1.0, 1.0, 1.0),
        ([[0.0]], [[0.0]], 1.0, 1.0, 1.0),
        (["a"], [0.0], 1.0, 1.0, 1.0),
        ([0.0], [0.0], [1.0, 2.0], 1.0, 1.0),
    ])
    def test_no_zero_or_non_finite_slope(self, xs, ys, left, right, stretch):
        with pytest.raises(InputError):
            PLHomeo(xs, ys, left, right, stretch)


class TestSupMeasure:
    def test_similarities_give_unit_measure(self):
        mu = sup_measure_1d(similarity_1d_sample(), 6)
        assert np.allclose(mu.values, 1.0, rtol=0, atol=1e-12)

    def test_monotone_in_word_len(self):
        sample = piecewise_1d_sample()
        x = np.linspace(-4, 4, 81) + 1.0 / 7.0
        short = sup_measure_1d(sample, 2)(x)
        long = sup_measure_1d(sample, 8)(x)
        assert np.all(long >= short - 1e-15)
        assert np.any(long > short)

    def test_piecewise_measure_values(self):
        # the one-shot bump puts every normalized slope in {2/3, 1, 3/2}
        mu = sup_measure_1d(piecewise_1d_sample(), 12)
        assert set(np.round(mu.values, 12)) == {1.0, 1.5}

    @pytest.mark.parametrize("word_len", [1, 3, 5])
    def test_walk_equals_enumerate_then_fold(self, word_len):
        # two generators at depth 5 walk 485 words, more than one batch of 256
        x = np.random.default_rng(word_len).uniform(-8.0, 8.0, 400)
        for sample in (piecewise_1d_sample(), _two_generator_sample(6), similarity_1d_sample()):
            mu = sup_measure_1d(sample, word_len)
            assert np.allclose(mu(x), _ref_sup_measure(sample, x, word_len),
                               rtol=1e-13, atol=0)

    def test_cli_measure_equals_the_fraction_oracle(self):
        # the float measure at the CLI's default depth against the exact one: the same
        # breaks to rounding, and the same value on every piece
        cfg = RunConfig()
        mu, _ = _pipeline(piecewise_1d_sample(cfg.word_len), cfg.grid_lo, cfg.grid_hi)
        breaks, values = pl_reference.sup_measure(pl_reference.BUMP, 10)
        assert np.allclose(mu.xs, [float(b) for b in breaks], rtol=0, atol=1e-14)
        assert np.allclose(mu.values, [float(v) for v in values], rtol=1e-14, atol=0)

    def test_one_composition_per_word(self, monkeypatch):
        calls = []
        compose = PLHomeo.compose
        monkeypatch.setattr(PLHomeo, "compose", lambda f, g: calls.append(1) or compose(f, g))
        sup_measure_1d(_two_generator_sample(6), 4)
        # every word but the identity: 4 + 12 + 36 + 108
        assert len(calls) == len(_ref_reduced_words(2, 4)) - 1 == 160


class TestConjugator:
    def test_unit_measure_gives_identity(self):
        conj = conjugator_1d(sup_measure_1d(similarity_1d_sample(), 6))
        for x in (-1.7, 0.0, 0.3, 1.9):
            assert conj(x) == pytest.approx(x, abs=1e-12)
            assert conj.inverse()(x) == pytest.approx(x, abs=1e-12)

    def test_constant_measure_scales(self):
        conj = conjugator_1d(SupMeasure1D(xs=np.array([-1.0, 2.0]), values=np.full(3, 2.5)))
        assert conj(1.2) == pytest.approx(3.0, abs=1e-12)
        assert conj(0.0) == pytest.approx(0.0, abs=1e-12)
        assert conj(-4.0) == pytest.approx(-10.0, abs=1e-12)

    def test_slopes_are_the_measure(self):
        mu, conj = _pipeline(piecewise_1d_sample(word_len=4))
        assert np.array_equal(conj.xs, mu.xs)
        assert np.allclose(conj.slopes(), mu.values, rtol=1e-13, atol=0)

    def test_conjugator_and_measure_take_arrays(self):
        mu, conj = _pipeline(piecewise_1d_sample(word_len=4))
        x = np.array([[-1.3, 0.2], [0.7, 2.9]])
        for f in (mu, conj, conj.inverse()):
            assert np.array_equal(f(x), [[f(v) for v in row] for row in x])

    def test_nonpositive_measure_rejected(self):
        mu = SupMeasure1D(xs=np.array([-1.0, 1.0]), values=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(InputError):
            conjugator_1d(mu)


class TestVerifyConjugation:
    def test_similarity_sample_with_identity_conjugator(self):
        ident = PLHomeo([0.0], [0.0], 1.0, 1.0)
        defects = verify_conjugation(similarity_1d_sample(word_len=4), ident, -1.0, 1.0)
        assert len(defects) == 8 and max(defects.values()) <= 1e-12
        # a word's single slope is its stretch: x -> 2^k x read as unit-stretch is 2^k - 1 off
        unit = GroupSample(generators=[PLHomeo([0.0], [0.0], 2.0, 2.0)], word_len=4)
        assert max(verify_conjugation(unit, ident, -1.0, 1.0).values()) == 15.0

    def test_pipeline_output_passes(self):
        sample = piecewise_1d_sample(word_len=6)
        _, conj = _pipeline(sample)
        defects = verify_conjugation(sample, conj, -3.0, 3.0)
        assert max(defects.values()) <= 1e-12, defects
        assert len(defects) == 12

    def test_wrong_conjugator_fails(self):
        # unconjugated, g itself has the slopes 3/2 and 2/3
        ident = PLHomeo([0.0], [0.0], 1.0, 1.0)
        defects = verify_conjugation(piecewise_1d_sample(word_len=6), ident, -3.0, 3.0)
        assert max(defects.values()) == pytest.approx(0.5, rel=1e-12)

    def test_a_break_moved_by_a_millionth_fails(self):
        sample = piecewise_1d_sample(word_len=6)
        mu, _ = _pipeline(sample)
        xs = mu.xs.copy()
        xs[np.searchsorted(xs, 0.0)] += 2.0**-20
        conj = conjugator_1d(dataclasses.replace(mu, xs=xs))
        assert max(verify_conjugation(sample, conj, -3.0, 3.0).values()) == pytest.approx(0.5)

    def test_walk_equals_enumerate_then_fold(self):
        sample = piecewise_1d_sample(word_len=4)
        _, conj = _pipeline(sample)
        for s in (sample, _two_generator_sample(4)):
            assert verify_conjugation(s, conj, -3.0, 2.0) == _ref_defects(s, conj, -3.0, 2.0)

    def test_conjugated_sample_passes_with_identity(self):
        # idempotence: the pipeline's conjugated generator, verified against the identity
        sample = piecewise_1d_sample(word_len=4)
        _, conj = _pipeline(sample, -8.0, 8.0)
        wrapped = conj.compose(sample.generators[0].compose(conj.inverse()))
        defects = verify_conjugation(GroupSample(generators=[wrapped], word_len=4),
                                     PLHomeo([0.0], [0.0], 1.0, 1.0), -2.0, 2.0)
        assert max(defects.values()) <= 1e-12, defects


class TestFractionOracle:
    """The pipeline in Fractions: the conjugated words have exactly one slope."""

    def test_the_fixture_is_the_oracle_table(self):
        g, exact = piecewise_1d_sample().generators[0], pl_reference.BUMP
        assert g.xs.tolist() == [float(x) for x in exact.xs]
        assert g.ys.tolist() == [float(y) for y in exact.ys]
        assert (g.left, g.right) == (exact.left, exact.right)

    def test_every_conjugated_word_has_the_single_slope_one(self):
        # word_len 12, as the acceptance criterion, on [-8, 8]: depth 8 + 12 + 1
        h = pl_reference.conjugator(*pl_reference.sup_measure(pl_reference.BUMP, 21))
        slopes = pl_reference.conjugated_slopes(h, pl_reference.BUMP, 12, -8, 8)
        assert sorted(slopes) == [k for k in range(-12, 13) if k]
        assert all(s == {Fraction(1)} for s in slopes.values())

    def test_a_shallower_measure_is_not_exact(self):
        # at depth 8 + 12 - 1 the measure falls short of the bump at points g^-12 reads, and
        # g^-12 keeps a piece of slope 2/3
        h = pl_reference.conjugator(*pl_reference.sup_measure(pl_reference.BUMP, 19))
        slopes = pl_reference.conjugated_slopes(h, pl_reference.BUMP, 12, -8, 8)
        assert {k: s for k, s in slopes.items() if s != {1}} == {-12: {1, Fraction(2, 3)}}

    def test_the_float_pipeline_follows_the_oracle(self):
        sample = piecewise_1d_sample(word_len=12)
        _, conj = _pipeline(sample, -8.0, 8.0)
        h = pl_reference.conjugator(*pl_reference.sup_measure(pl_reference.BUMP, 21))
        assert np.allclose(conj.xs, [float(x) for x in h.xs], rtol=0, atol=1e-13)
        assert np.allclose(conj.ys, [float(y) for y in h.ys], rtol=0, atol=1e-13)
        assert max(verify_conjugation(sample, conj, -8.0, 8.0).values()) <= 1e-12


class TestNormalizeStretch:
    def test_bump_sample_normalizes_to_unit_stretch(self):
        sample = stretch_bump_sample(word_len=12)
        normalized = normalize_stretch(sample)
        g = normalized.conjugated[0]
        for y in np.linspace(-6.0, 6.0, 25):
            lam = g.lam_of((np.array([y]),))
            assert lam == pytest.approx(1.0, abs=1e-6), f"lam({y}) = {lam}"

    def test_cocycle_identity(self):
        sample = stretch_bump_sample(word_len=12)
        normalized = normalize_stretch(sample)
        g = sample.generators[0]
        a1 = normalized.alpha1
        for y in np.linspace(-5.0, 5.0, 21):
            yt = (np.array([y]),)
            eta = g.lam_of(yt) / g.stretch ** a1
            gy = tuple(g.quotient(yt))
            assert normalized.mu_of(gy) * eta == pytest.approx(
                normalized.mu_of(yt), rel=1e-9
            )

    def test_already_normalized_sample_is_fixed(self):
        sample = normalized_dilation_sample()
        normalized = normalize_stretch(sample)
        g = normalized.conjugated[0]
        for y in np.linspace(-3.0, 3.0, 7):
            yt = (np.array([y]),)
            assert normalized.mu_of(yt) == pytest.approx(1.0, abs=1e-12)
            assert g.lam_of(yt) == pytest.approx(g.stretch ** normalized.alpha1, rel=1e-12)

    def test_walk_equals_enumerate_then_fold(self):
        bump = stretch_bump_sample(word_len=6)
        dil = normalized_dilation_sample(word_len=6)
        two = dataclasses.replace(bump, generators=bump.generators + dil.generators)
        for sample in (bump, dil, two):
            normalized = normalize_stretch(sample)
            mu_ref = _ref_mu_of(sample.generators, 6, normalized.alpha1)
            for g, conj in zip(sample.generators, normalized.conjugated):
                for y in np.linspace(-3.0, 3.0, 13):
                    yt = (np.array([y]),)
                    lam = mu_ref(tuple(g.quotient(yt))) * g.lam_of(yt) / mu_ref(yt)
                    assert conj.lam_of(yt) == lam

    def test_rows_equal_the_per_point_reference(self):
        bump = stretch_bump_sample(word_len=6)
        dil = normalized_dilation_sample(word_len=6)
        two = dataclasses.replace(bump, generators=bump.generators + dil.generators)
        ys = np.linspace(-3.0, 3.0, 49)[:, None]
        for sample in (bump, dil, two):
            normalized = normalize_stretch(sample)
            refs = [affine_reference.from_map(g) for g in sample.generators]
            mu_ref, conj_ref = affine_reference.normalize_stretch(refs, 6)
            mu = np.broadcast_to(normalized.mu_of([ys]), len(ys))
            assert np.array_equal(mu, [mu_ref((y,)) for y in ys])
            for conj, ref in zip(normalized.conjugated, conj_ref):
                lam = np.broadcast_to(conj.lam_of([ys]), len(ys))
                assert np.array_equal(lam, [ref.lam_of((y,)) for y in ys])
                b = np.broadcast_to(conj.B_of([ys]), (len(ys), 1))
                assert np.array_equal(b, [ref.B_of((y,)) for y in ys])

    def test_non_affine_generators_rejected(self):
        sample = piecewise_1d_sample()
        with pytest.raises(InputError):
            normalize_stretch(sample)


class TestRadialConjugator:
    def test_pure_dilation_escape_gives_identity_conjugators(self):
        spec = SPEC_RADIAL
        escape = []
        for i in range(1, 5):
            t = 2.0 ** -i

            def quot(y, _t=t):
                return tuple(_t ** e * b for e, b in zip(spec.exponents[1:], y))

            def inv(blocks, _t=t):
                return split_rows(spec, dilate(spec, 1.0 / _t, join_blocks(blocks)))

            escape.append(
                FirstBlockAffineMap(spec, t, quot, inverse_map=inv)
            )
        report = radial_conjugator(radial_sample(), escape, np.eye(1))
        rng = np.random.default_rng(0)
        for F in report.conjugators:
            for _ in range(5):
                p = BlockPoint(tuple(rng.uniform(-1, 1, n) for n in spec.multiplicities))
                assert isclose(BlockPoint(tuple(F(p.blocks))), p, atol=1e-12)

    def test_radial_fixture_stabilizes_with_vanishing_defect(self):
        report = radial_conjugator(radial_sample(), radial_escape_words(8), np.eye(1))
        cauchy = [s.cauchy_defect for s in report.steps[:-1]]
        assert all(b < a for a, b in zip(cauchy, cauchy[1:]))
        defects = [s.similarity_defect for s in report.steps]
        assert defects[-1] < 1e-6

    def test_defects_equal_the_per_probe_reference(self):
        report = radial_conjugator(radial_sample(), radial_escape_words(8), np.eye(1))
        g = affine_reference.from_map(radial_generator())
        escape = affine_reference.radial_escape_words(g, 8)
        cauchy, defects = affine_reference.radial_conjugator([g], escape, np.eye(1))
        assert [s.cauchy_defect for s in report.steps[:-1]] == cauchy[:-1]
        assert math.isnan(report.steps[-1].cauchy_defect) and math.isnan(cauchy[-1])
        assert [s.similarity_defect for s in report.steps] == defects

    def test_non_escaping_stretches_rejected(self):
        g = radial_escape_words(1)[0]
        with pytest.raises(ConvergenceError):
            radial_conjugator(radial_sample(), [g, g], np.eye(1))

    def test_empty_escape_rejected(self):
        with pytest.raises(InputError):
            radial_conjugator(radial_sample(), [], np.eye(1))
