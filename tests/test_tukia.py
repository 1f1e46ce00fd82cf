"""Conjugation pipeline: sup measures, conjugators, stretch normalization,
and the radial iteration."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from solvrigid import (
    BlockPoint,
    ConvergenceError,
    FirstBlockAffineMap,
    GroupSample,
    InputError,
    OneDConjugator,
    OneDGenerator,
    conjugator_1d,
    dilate,
    normalize_stretch,
    radial_conjugator,
    sup_measure_1d,
    verify_conjugation,
)
from solvrigid import tukia
from solvrigid.cli import RunConfig, _conjugate_grid_range
from solvrigid.fixtures import (
    SPEC_RADIAL,
    normalized_dilation_sample,
    piecewise_1d_sample,
    radial_escape_words,
    radial_sample,
    similarity_1d_sample,
    stretch_bump_sample,
)
from solvrigid.nilpotent import walk_words
from solvrigid.tukia import WordVerdict, _chain_1d


def _pipeline(sample, lo=-3.0, hi=3.0, h=0.01):
    pad = sample.word_len + 2
    xs = np.arange(lo - pad + 0.5 * h, hi + pad, h)
    sup_len = int(max(abs(lo - pad), abs(hi + pad))) + 2
    mu = sup_measure_1d(sample, xs, word_len=sup_len)
    return mu, conjugator_1d(mu)


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


def _ref_word_apply(generators, word, x):
    for idx, sgn in reversed(word):
        g = generators[idx]
        x = g.fn(x) if sgn == 1 else g.inv(x)
    return x


def _ref_word_derivative(generators, word, x):
    deriv = 1.0
    stretch = 1.0
    for idx, sgn in reversed(word):
        g = generators[idx]
        if sgn == 1:
            deriv *= g.dfn(x)
            x = g.fn(x)
            stretch *= g.stretch
        else:
            x = g.inv(x)
            deriv /= g.dfn(x)
            stretch /= g.stretch
    return deriv, stretch


def _ref_sup_measure(sample, xs, word_len):
    words = _ref_reduced_words(len(sample.generators), word_len)
    values = np.empty_like(xs)
    flagged = []
    for i, x in enumerate(xs):
        best = 0.0
        bad = False
        for w in words:
            try:
                deriv, stretch = _ref_word_derivative(sample.generators, w, float(x))
            except ZeroDivisionError:
                bad = True
                continue
            if deriv == 0.0 or not math.isfinite(deriv):
                bad = True
                continue
            best = max(best, abs(deriv) / stretch**sample.alpha1)
        values[i] = best
        if bad:
            flagged.append(i)
    return values, flagged


def _ref_verdicts(sample, F, probes, probe_step, word_len):
    verdicts = []
    for w in _ref_reduced_words(len(sample.generators), word_len):
        if not w:
            continue
        slopes = []
        for x in probes:
            u0 = F.fn(float(x))
            u1 = F.fn(float(x) + probe_step)
            v0 = F.fn(_ref_word_apply(sample.generators, w, F.inv(u0)))
            v1 = F.fn(_ref_word_apply(sample.generators, w, F.inv(u1)))
            slopes.append(abs((v1 - v0) / (u1 - u0)))
        logs = np.log(np.asarray(slopes))
        gmean = float(np.exp(logs.mean()))
        defect = float(np.max(np.abs(np.asarray(slopes) / gmean - 1.0)))
        verdicts.append(WordVerdict(word=w, defect=defect, mean_scale=gmean))
    return verdicts


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


# -- the piecewise fixture as scalar branches, the reference for its np.where form

_BREAK = 0.4


def _scalar_pw_fn(x):
    if x < 0.0:
        return x + 1.0
    if x < _BREAK:
        return 1.0 + 1.5 * x
    if x < 1.0:
        return 1.6 + (2.0 / 3.0) * (x - _BREAK)
    return x + 1.0


def _scalar_pw_dfn(x):
    if 0.0 <= x < _BREAK:
        return 1.5
    if _BREAK <= x < 1.0:
        return 2.0 / 3.0
    return 1.0


def _scalar_pw_inv(u):
    if u < 1.0:
        return u - 1.0
    if u < 1.6:
        return (u - 1.0) / 1.5
    if u < 2.0:
        return _BREAK + 1.5 * (u - 1.6)
    return u - 1.0


def _scalar_piecewise_sample(word_len):
    gen = OneDGenerator(fn=_scalar_pw_fn, dfn=_scalar_pw_dfn, inv=_scalar_pw_inv)
    return GroupSample(generators=[gen], word_len=word_len, uniform_K=1.5, alpha1=1.0)


def _flat_sample(word_len):
    flat = OneDGenerator(
        fn=lambda x: x, dfn=lambda x: np.where(x == 0.0, 0.0, 1.0), inv=lambda x: x
    )
    return GroupSample(generators=[flat], word_len=word_len, uniform_K=1.0)


def _pruning_sample(word_len):
    """A shift whose derivative is 0 at -1 and infinite at 2, and a dilation.

    The shift's inverse divides by zero two letters deep from x = 1, so
    the sup measure prunes words beyond depth 1.
    """
    shift = OneDGenerator(
        fn=lambda x: x + 1.0,
        dfn=lambda x: np.where(x == -1.0, 0.0, np.where(x == 2.0, math.inf, 1.0)),
        inv=lambda x: x - 1.0,
    )
    dil = similarity_1d_sample().generators[0]
    return GroupSample(generators=[shift, dil], word_len=word_len, uniform_K=2.0)


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
        sample = piecewise_1d_sample()
        g = sample.generators
        w = ((0, 1), (0, 1), (0, -1))

        def chain(x):
            # the walker's state of w: (image, derivative, stretch)
            walk = walk_words([(0, 1), (0, -1)], 3, (x, 1.0, 1.0),
                              lambda a, s: _chain_1d(g, a, s))
            return dict(walk)[w]

        x = -2.3
        image, deriv, stretch = chain(x)
        assert image == pytest.approx(g[0].fn(x))
        assert stretch == pytest.approx(1.0)
        step = 1e-7
        fd = (chain(x + step)[0] - image) / step
        assert deriv == pytest.approx(fd, rel=1e-5)


class TestSupMeasure:
    def test_similarities_give_unit_measure(self):
        sample = similarity_1d_sample()
        mu = sup_measure_1d(sample, np.linspace(-2, 2, 41))
        assert np.allclose(mu.values, 1.0, atol=1e-12)

    def test_monotone_in_word_len(self):
        sample = piecewise_1d_sample()
        xs = np.linspace(-4, 4, 81)
        short = sup_measure_1d(sample, xs, word_len=2)
        long = sup_measure_1d(sample, xs, word_len=8)
        assert np.all(long.values >= short.values - 1e-15)

    def test_piecewise_measure_values(self):
        # the one-shot bump puts every normalized derivative in {2/3, 1, 3/2}
        sample = piecewise_1d_sample()
        mu = sup_measure_1d(sample, np.array([-0.8, 0.2, 0.5, 1.3]), word_len=12)
        assert set(np.round(mu.values, 12)) <= {1.0, 1.5}

    def test_vanishing_derivative_flagged(self):
        mu = sup_measure_1d(_flat_sample(word_len=1), np.array([-1.0, 0.0, 1.0]))
        assert mu.flagged == [1]

    def test_deep_division_by_zero_flagged(self):
        sample = _pruning_sample(word_len=3)
        assert sup_measure_1d(sample, np.array([1.0]), word_len=1).flagged == []
        assert sup_measure_1d(sample, np.array([1.0])).flagged == [0]

    @pytest.mark.parametrize("word_len", [1, 3, 5])
    def test_walk_equals_enumerate_then_fold(self, word_len):
        xs = np.arange(-4.0, 4.25, 0.25)
        samples = (_flat_sample(word_len), _pruning_sample(word_len), piecewise_1d_sample(word_len))
        for sample in samples:
            mu = sup_measure_1d(sample, xs)
            # the reference folds 0-d arrays, where dividing by a zero
            # derivative gives inf or NaN instead of raising
            with np.errstate(divide="ignore", invalid="ignore"):
                values, flagged = _ref_sup_measure(sample, xs, word_len)
            assert np.array_equal(mu.values, values)
            assert mu.flagged == flagged

    def test_cli_grid_equals_scalar_reference(self):
        # the reference runs the fixture's scalar branches, so this also
        # checks its np.where form element by element
        cfg = RunConfig()
        lo, hi = _conjugate_grid_range(cfg.grid_lo, cfg.grid_hi, cfg.word_len)
        xs = np.arange(lo + 0.5 * 0.01, hi, 0.01)
        mu = sup_measure_1d(piecewise_1d_sample(), xs, word_len=13)
        values, flagged = _ref_sup_measure(_scalar_piecewise_sample(13), xs, 13)
        assert len(xs) == 2200
        assert np.array_equal(mu.values, values)
        assert mu.flagged == flagged

    def test_reciprocal_flags_where_scalar_division_raised(self):
        # on floats 1/0 raises ZeroDivisionError; on arrays it is inf
        recip = OneDGenerator(
            fn=lambda x: 1.0 / x, dfn=lambda x: -1.0 / (x * x), inv=lambda x: 1.0 / x
        )
        shift = OneDGenerator(fn=lambda x: x + 0.5, dfn=lambda x: 1.0, inv=lambda x: x - 0.5)
        sample = GroupSample(generators=[recip, shift], word_len=3, uniform_K=1.0)
        xs = np.arange(-2.0, 2.25, 0.25)

        def raises(word, x):
            try:
                _ref_word_derivative(sample.generators, word, x)
            except ZeroDivisionError:
                return True
            return False

        words = _ref_reduced_words(2, 3)
        raised = [i for i, x in enumerate(xs) if any(raises(w, float(x)) for w in words)]
        mu = sup_measure_1d(sample, xs)
        values, flagged = _ref_sup_measure(sample, xs, 3)
        assert 0 < len(raised) < len(xs)
        assert mu.flagged == raised == flagged
        assert np.array_equal(mu.values, values)

    def test_branch_dead_at_every_point_is_not_extended(self, monkeypatch):
        steps = []

        def counting_walk(letters, depth, start, step, reduced=False):
            def counted(letter, state):
                steps.append(letter)
                return step(letter, state)

            return walk_words(letters, depth, start, counted, reduced)

        monkeypatch.setattr(tukia, "walk_words", counting_walk)
        sample = _pruning_sample(word_len=3)
        # four letters, three children per word: 4 + 12 + 36 steps when
        # every word stays live, as at x = 10
        assert sup_measure_1d(sample, np.array([1.0, 10.0])).flagged == [0]
        assert len(steps) == 52
        # at x = 1 three words of length 2 die (s s, S S and s d), so the
        # third level takes 9 * 3 steps instead of 12 * 3
        steps.clear()
        assert sup_measure_1d(sample, np.array([1.0])).flagged == [0]
        assert len(steps) == 4 + 12 + 27

    def test_one_derivative_call_per_word_and_grid_point(self):
        calls = []
        sample = piecewise_1d_sample(word_len=6)
        g = sample.generators[0]
        counted = dataclasses.replace(g, dfn=lambda x: calls.append(x) or g.dfn(x))
        sample = dataclasses.replace(sample, generators=[counted])
        xs = np.linspace(-2.0, 2.0, 9)
        mu = sup_measure_1d(sample, xs)
        assert mu.flagged == []
        words = len(_ref_reduced_words(1, 6)) - 1
        assert len(calls) == words
        assert sum(np.size(x) for x in calls) == len(xs) * words


class TestConjugator:
    def test_unit_measure_gives_identity(self):
        sample = similarity_1d_sample()
        mu = sup_measure_1d(sample, np.linspace(-2, 2, 41))
        conj = conjugator_1d(mu)
        for x in (-1.7, 0.0, 0.3, 1.9):
            assert conj.fn(x) == pytest.approx(x, abs=1e-12)
            assert conj.inv(x) == pytest.approx(x, abs=1e-12)

    def test_constant_measure_scales(self):
        from solvrigid.tukia import SupMeasure1D

        xs = np.linspace(-2, 2, 41)
        mu = SupMeasure1D(xs=xs, values=np.full_like(xs, 2.5), flagged=[])
        conj = conjugator_1d(mu)
        assert conj.fn(1.2) == pytest.approx(3.0, abs=1e-12)
        assert conj.fn(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_conjugator_and_measure_take_arrays(self):
        mu, conj = _pipeline(piecewise_1d_sample(word_len=4), h=0.05)
        x = np.array([[-1.3, 0.2], [0.7, 2.9]])
        for f in (mu, conj.fn, conj.inv, conj):
            assert np.array_equal(f(x), [[f(v) for v in row] for row in x])

    def test_nonpositive_measure_rejected(self):
        from solvrigid.tukia import SupMeasure1D

        xs = np.linspace(-1, 1, 11)
        mu = SupMeasure1D(xs=xs, values=np.zeros_like(xs), flagged=[])
        with pytest.raises(InputError):
            conjugator_1d(mu)


class TestVerifyConjugation:
    def test_similarity_sample_with_identity_conjugator(self):
        sample = similarity_1d_sample(word_len=4)
        xs = np.linspace(-40, 40, 161)
        ident = OneDConjugator(xs=xs, values=xs.copy())
        report = verify_conjugation(sample, ident, np.linspace(-1, 1, 5))
        assert report.passed
        assert report.max_defect <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_images_off_the_grid_fail(self):
        # word images leave [-2, 2], np.interp clamps them, a slope becomes 0
        # and the defect NaN: the report must fail and show it
        sample = similarity_1d_sample(word_len=4)
        xs = np.linspace(-2, 2, 81)
        ident = OneDConjugator(xs=xs, values=xs.copy())
        report = verify_conjugation(sample, ident, np.linspace(-1, 1, 5))
        assert any(math.isnan(v.defect) for v in report.verdicts)
        assert math.isnan(report.max_defect)
        assert report.passed is False

    def test_pipeline_output_passes(self):
        sample = piecewise_1d_sample(word_len=6)
        _, conj = _pipeline(sample)
        report = verify_conjugation(
            sample, conj, np.linspace(-3, 2, 7), probe_step=1.0, tol=1e-3
        )
        assert report.passed, f"max defect {report.max_defect}"

    def test_wrong_conjugator_fails(self):
        sample = piecewise_1d_sample(word_len=6)
        xs = np.arange(-11.0, 11.0, 0.01)
        ident = OneDConjugator(xs=xs, values=xs.copy())
        report = verify_conjugation(
            sample, ident, np.linspace(-3, 2, 7), probe_step=1.0, tol=1e-3
        )
        assert not report.passed
        assert report.max_defect > 0.1

    def test_walk_equals_enumerate_then_fold(self):
        sample = piecewise_1d_sample(word_len=4)
        _, conj = _pipeline(sample, h=0.05)
        half = OneDGenerator(fn=lambda x: x + 0.5, dfn=lambda x: 1.0, inv=lambda x: x - 0.5)
        two = dataclasses.replace(sample, generators=sample.generators + [half])
        probes = np.linspace(-3, 2, 7)
        for s in (sample, two):
            report = verify_conjugation(s, conj, probes, probe_step=1.0)
            assert report.verdicts == _ref_verdicts(s, conj, probes, 1.0, 4)

    def test_conjugated_sample_passes_with_identity(self):
        # idempotence: wrap the pipeline output into new generators and
        # verify them against the identity conjugator
        sample = piecewise_1d_sample(word_len=4)
        _, conj = _pipeline(sample, h=0.002)
        g = sample.generators[0]

        def fn(x, _g=g, _c=conj):
            return _c.fn(_g.fn(_c.inv(x)))

        def inv(x, _g=g, _c=conj):
            return _c.fn(_g.inv(_c.inv(x)))

        wrapped = OneDGenerator(fn=fn, dfn=lambda x: 1.0, inv=inv, stretch=1.0)
        new_sample = GroupSample(generators=[wrapped], word_len=4, uniform_K=1.5)
        span = 8.0
        xs = np.linspace(-span, span, 1601)
        ident = OneDConjugator(xs=xs, values=xs.copy())
        report = verify_conjugation(
            new_sample, ident, np.linspace(-2, 2, 5), probe_step=1.0, tol=2e-3
        )
        assert report.passed, f"max defect {report.max_defect}"


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

            def inv(p, _t=t):
                return dilate(spec, 1.0 / _t, p)

            escape.append(
                FirstBlockAffineMap(spec, t, quot, inverse_map=inv)
            )
        report = radial_conjugator(radial_sample(), escape, np.eye(1))
        rng = np.random.default_rng(0)
        for F in report.conjugators:
            for _ in range(5):
                p = BlockPoint(tuple(rng.uniform(-1, 1, n) for n in spec.multiplicities))
                assert F(p).isclose(p, atol=1e-12)

    def test_radial_fixture_stabilizes_with_vanishing_defect(self):
        report = radial_conjugator(radial_sample(), radial_escape_words(8), np.eye(1))
        cauchy = [s.cauchy_defect for s in report.steps[:-1]]
        assert all(b < a for a, b in zip(cauchy, cauchy[1:]))
        defects = [s.similarity_defect for s in report.steps]
        assert defects[-1] < 1e-6

    def test_non_escaping_stretches_rejected(self):
        g = radial_escape_words(1)[0]
        with pytest.raises(ConvergenceError):
            radial_conjugator(radial_sample(), [g, g], np.eye(1))

    def test_empty_escape_rejected(self):
        with pytest.raises(InputError):
            radial_conjugator(radial_sample(), [], np.eye(1))
