"""Similarity algebra, classification, homomorphisms, reciprocity, and the
rotation-rigidity witness search."""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from solvrigid import (
    ASimMap,
    AlmostTranslation,
    BlockVar,
    Const,
    DimensionMismatch,
    DomainError,
    FirstBlockAffineMap,
    FuncExpr,
    InputError,
    Lin,
    NotInUniformSubgroup,
    Osc,
    Scale,
    SimMap,
    SpectralData,
    Sum,
    classify,
    conjugate_almost_by_sim,
    estimate_qsim_constants,
    height_hom,
    random_row_blocks,
    rotation_rigidity_witness,
    stretch_hom,
)
from solvrigid.fixtures import (
    SPEC_NIL,
    SPEC_ROT,
    SPEC_STRETCH,
    constant_rotation_map,
    oscillating_kernel_element,
    radial_escape_words,
    radial_generator,
    varying_rotation_map,
)
from solvrigid.mapalg import _identity_parts
from solvrigid.nilpotent import Letter
from solvrigid.solvgroup import SolvSpec, boundary_of_height_isometry
from solvrigid.spectral import join_blocks, split_rows

import affine_reference
from metric_reference import from_flat, isclose, random_point, zero

RNG = np.random.default_rng(42)


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestSimMap:
    def test_rejects_nonorthogonal_rotation(self):
        with pytest.raises(InputError):
            SimMap(SPEC_ROT, 1.0, rotations=[2.0 * np.eye(2), np.eye(1)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rotation(self, bad):
        # NaN > 1e-12 is False, so a test written that way passes a NaN rotation
        with pytest.raises(InputError):
            SimMap(SPEC_NIL, 1.0, [[[bad]], [[1.0]]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_translation(self, bad):
        with pytest.raises(InputError):
            SimMap(SPEC_NIL, 1.0, translations=[[bad], [0.0]])
        with pytest.raises(InputError):  # a row of a stack's translations
            SimMap(SPEC_NIL, [1.0, 2.0], translations=[[[0.0], [bad]], [0.0]])

    @pytest.mark.parametrize("parts", [
        {"rotations": [np.eye(1)]}, {"translations": [[0.0]] * 3}, {"rotations": 5},
        {"translations": [["x"], [0.0]]},
    ], ids=["too-few-rotations", "too-many-translations", "not-a-sequence", "non-numeric"])
    def test_rejects_parts_that_are_not_one_per_block(self, parts):
        with pytest.raises(InputError):
            SimMap(SPEC_NIL, 1.0, **parts)

    def test_compose_matches_pointwise(self):
        s1 = SimMap(SPEC_ROT, 2.0, [_rot(0.3), np.eye(1)], [np.array([1.0, -0.5]), np.array([0.2])])
        s2 = SimMap(SPEC_ROT, 0.7, [_rot(-1.1), -np.eye(1)], [np.array([0.4, 0.9]), np.array([-1.0])])
        comp = s1.compose(s2)
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert isclose(comp(p), s1(s2(p)), atol=1e-12)

    def test_composed_dilations_keep_the_identity_rotations(self):
        s1 = SimMap(SPEC_ROT, 2.0, translations=[np.array([1.0, -0.5]), np.array([0.2])])
        s2 = SimMap(SPEC_ROT, 0.7)
        comp = s1.compose(s2)
        assert comp.rotations is s1.rotations is s2.rotations
        # the product path: the same parts with eye @ eye passed as rotations
        rots = [a1 @ a2 for a1, a2 in zip(s1.rotations, s2.rotations)]
        product = SimMap(SPEC_ROT, comp.stretch, rots, comp.translations)
        blocks = split_rows(SPEC_ROT, RNG.uniform(-3, 3, (50, SPEC_ROT.total_dim)))
        assert all(np.array_equal(a, b)
                   for a, b in zip(comp.eval_blocks(blocks), product.eval_blocks(blocks)))
        rotated = SimMap(SPEC_ROT, 1.0, [_rot(0.3), np.eye(1)]).compose(s2)
        assert rotated.rotations is not s2.rotations
        assert np.array_equal(rotated.rotations[0], _rot(0.3) @ np.eye(2))

    def test_infinite_stretch_rejected(self):
        # not inf > 0 is False: a stretch of inf was accepted
        with pytest.raises(DomainError):
            SimMap(SPEC_ROT, math.inf)

    def test_stretch_power_beyond_float_range_in_compose_rejected(self):
        # 1e-200 ** -2 raised builtins OverflowError in the translation part
        with pytest.raises(DomainError):
            SimMap(SPEC_ROT, 1e-200).compose(SimMap(SPEC_ROT, 1e-200))

    def test_lip_bound_beyond_float_range_reads_inf(self):
        # 1e200 ** 2.0 raised builtins OverflowError
        assert SimMap(SPEC_ROT, 1e200).lip_bound() == math.inf
        assert SimMap(SPEC_ROT, 1e-200).lip_bound() == 1e-200

    def test_translation_beyond_float_range_in_compose_or_inverse_rejected(self):
        # the parts overflowed with numpy's RuntimeWarning and held an inf translation
        with pytest.raises(DomainError):
            SimMap(SPEC_NIL, 6.0, translations=[[0.0], [5e306]]).inverse()
        far = SimMap(SPEC_NIL, 1.0, translations=[[0.0], [9e307]])
        with pytest.raises(DomainError):
            far.compose(far)
        with pytest.raises(DomainError):  # a stack, whose stretch product overflows too
            SimMap(SPEC_NIL, [1.0, 1e300]).compose(SimMap(SPEC_NIL, [1.0, 1e300]))

    def test_inverse_stretch_beyond_float_range_rejected(self):
        # 1 / 5e-324 is inf: the inverse was a map of stretch inf
        with pytest.raises(DomainError):
            SimMap(SPEC_ROT, 5e-324).inverse()

    def test_inverse_matches_pointwise(self):
        s = SimMap(SPEC_ROT, 1.7, [_rot(0.9), np.eye(1)], [np.array([0.3, 0.1]), np.array([2.0])])
        inv = s.inverse()
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert isclose(inv(s(p)), p, atol=1e-12)
            assert isclose(s(inv(p)), p, atol=1e-12)

class TestASimMap:
    def test_compose_matches_pointwise(self):
        a = oscillating_kernel_element()
        g1 = ASimMap(SimMap(SPEC_NIL, 2.0), a)
        g2 = ASimMap(SimMap(SPEC_NIL, 0.5), a.inverse())
        comp = g1.compose(g2)
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert isclose(comp(p), g1(g2(p)), atol=1e-10)

    def test_inverse_matches_pointwise(self):
        g = ASimMap(SimMap(SPEC_NIL, 1.5), oscillating_kernel_element())
        inv = g.inverse()
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert isclose(inv(g(p)), p, atol=1e-10)

    def test_conjugation_by_similarity_is_pointwise_conjugation(self):
        s = SimMap(SPEC_NIL, 2.0)
        a = oscillating_kernel_element()
        conj = conjugate_almost_by_sim(s, a)
        s_inv = s.inverse()
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert isclose(conj(p), s_inv(a(s(p))), atol=1e-10)

    def test_compose_with_a_stretch_power_beyond_float_range(self):
        # conjugating by the right factor reads its lip_bound, which raised
        # builtins OverflowError; a zero Lipschitz bound stays 0 rather than 0 * inf
        a = AlmostTranslation.identity(SPEC_ROT)
        comp = ASimMap(SimMap(SPEC_ROT, 1.0), a).compose(ASimMap(SimMap(SPEC_ROT, 1e200), a))
        assert comp.sim.stretch == 1e200
        assert [(b.sup_bound, b.lipschitz) for b in comp.almost.perturbations] == [(0.0, 0.0)] * 2
        assert comp.lip_bound() == math.inf
        wobbly = ASimMap(SimMap(SPEC_ROT, 1e200), _asim_letter(np.random.default_rng(0)).almost)
        assert ASimMap(SimMap(SPEC_ROT, 1.0), a).compose(wobbly).lip_bound() == math.inf

def _asim_letter(rng):
    """A rotation-stretch-translation after an oscillating almost translation on SPEC_ROT."""
    theta = rng.uniform(-math.pi, math.pi)
    sim = SimMap(SPEC_ROT, rng.uniform(0.8, 1.25), [_rot(theta), np.eye(1)],
                 [rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)])
    bump = Osc(rng.uniform(-0.5, 0.5, 2), [rng.uniform(0.5, 2.0)], rng.uniform(0, 2 * math.pi),
               BlockVar(1, 1))
    return ASimMap(sim, AlmostTranslation(SPEC_ROT, [bump, Const(rng.uniform(-1, 1, 1))]))


class TestASimWords:
    LETTERS = 10

    def _folds(self):
        rng = np.random.default_rng(11)
        letters = [_asim_letter(rng) for _ in range(self.LETTERS)]
        left = functools.reduce(lambda acc, a: acc.compose(a), letters)
        right = functools.reduce(lambda acc, a: a.compose(acc), reversed(letters))
        return letters, left, right

    def test_folds_match_letter_by_letter(self):
        letters, left, right = self._folds()
        for _ in range(10):
            p = random_point(SPEC_ROT, RNG, 2.0)
            want = p
            for a in reversed(letters):
                want = a(want)
            for word in (left, right):
                assert np.max(np.abs(word(p).flat() - want.flat())) <= 1e-9

    def test_each_letter_evaluated_once(self, count_calls):
        _, left, right = self._folds()
        calls = count_calls(Osc)  # one Osc node per letter
        p = random_point(SPEC_ROT, RNG, 2.0)
        for word in (left, right):
            calls.clear()
            word(p)
            assert len(calls) == self.LETTERS


# -- composition through the checking constructor, with no cached parts ------


def _checked_sim_compose(s, o):
    """SimMap.compose, building the product with the public SimMap(...)."""
    eyes = s.rotations is o.rotations is _identity_parts(s.spec.multiplicities)[0]
    rots = None if eyes else [a1 @ a2 for a1, a2 in zip(s.rotations, o.rotations)]
    trans = [b2 + o.stretch ** (-a) * a2.T @ b1
             for a, a2, b1, b2 in zip(s.spec.exponents, o.rotations, s.translations,
                                      o.translations)]
    return SimMap(s.spec, s.stretch * o.stretch, rots, trans)


def _checked_sim_inverse(s):
    rots = [a.T for a in s.rotations]
    trans = [-(s.stretch**e) * a @ b for e, a, b in zip(s.spec.exponents, s.rotations,
                                                         s.translations)]
    return SimMap(s.spec, 1.0 / s.stretch, rots, trans)


def _inverse_linear_parts(s):
    """Per block, the linear part t^-alpha_i A_i^T of s^-1, built afresh."""
    return [s.stretch ** (-e) * rot.T for e, rot in zip(s.spec.exponents, s.rotations)]


class _FreshLetter(Letter):
    """A letter holding its own inverse linear parts rather than its similarity's."""

    __slots__ = ("_mats",)

    def __init__(self, base, sign, sim, mats):
        super().__init__(base, sign, sim)
        self._mats = mats

    @property
    def mats(self):
        return self._mats

    def inverse(self):
        return _FreshLetter(self.base, -self.sign, self.sim, self._mats)


def _checked_conjugate(s, a):
    """conjugate_almost_by_sim with fresh parts and one matrix norm per block."""
    mats = _inverse_linear_parts(s)
    lip = s.lip_bound()
    certificates = []
    for m, b in zip(mats, a.perturbations):
        opnorm = float(np.linalg.norm(m, 2))
        certificates.append((opnorm * b.sup_bound, opnorm * (b.lipschitz * lip), b.deps()))
    letters = []
    for letter in a.letters:
        sim = s if letter.sim is None else _checked_sim_compose(letter.sim, s)
        letters.append(_FreshLetter(letter.base, letter.sign, sim, _inverse_linear_parts(sim)))
    return AlmostTranslation.from_letters(s.spec, letters, certificates, a.K)


def _checked_compose(f, g):
    sim = _checked_sim_compose(f.sim, g.sim)
    return ASimMap(sim, _checked_conjugate(g.sim, f.almost).compose(g.almost))


def _checked_inverse(f):
    sim_inv = _checked_sim_inverse(f.sim)
    return ASimMap(sim_inv, _checked_conjugate(sim_inv, f.almost.inverse()))


class TestCompositionReusesCheckedParts:
    ALPHABET = 4
    LETTERS = 10

    def _alphabet(self, seed):
        rng = np.random.default_rng(seed)
        return [_asim_letter(rng) for _ in range(self.ALPHABET)], rng

    def _assert_identical(self, got, want, rows):
        assert got.stretch == want.stretch
        for parts in ("rotations", "translations"):
            assert all(np.array_equal(a, b)
                       for a, b in zip(getattr(got.sim, parts), getattr(want.sim, parts)))
        g, w = got.almost, want.almost
        assert (g.K, g.lip_bound(), got.lip_bound()) == (w.K, w.lip_bound(), want.lip_bound())
        for gb, wb in zip(g.perturbations, w.perturbations):
            assert (gb.sup_bound, gb.lipschitz, gb.deps()) == (wb.sup_bound, wb.lipschitz,
                                                                wb.deps())
        for blocks in (split_rows(SPEC_ROT, rows[0]), split_rows(SPEC_ROT, rows)):
            assert all(np.array_equal(a, b)
                       for a, b in zip(got.eval_blocks(blocks), want.eval_blocks(blocks)))

    @pytest.mark.parametrize("seed", range(4))
    def test_folds_and_inverses_equal_the_checked_path(self, seed):
        alphabet, rng = self._alphabet(seed)
        letters = [alphabet[i] for i in rng.integers(0, self.ALPHABET, self.LETTERS)]
        rows = rng.uniform(-2, 2, (25, SPEC_ROT.total_dim))
        folds = [
            (functools.reduce(lambda acc, a: acc.compose(a), letters),
             functools.reduce(_checked_compose, letters)),
            (functools.reduce(lambda acc, a: a.compose(acc), reversed(letters)),
             functools.reduce(lambda acc, a: _checked_compose(a, acc), reversed(letters))),
        ]
        for got, want in folds:
            self._assert_identical(got, want, rows)
            self._assert_identical(got.inverse(), _checked_inverse(want), rows)

    def test_cached_inverse_parts(self):
        s = _asim_letter(np.random.default_rng(5)).sim.compose(SimMap(SPEC_ROT, 1.7))
        assert s._inverse_linear is s._inverse_linear
        for m, want, norm in zip(s._inverse_linear, _inverse_linear_parts(s), s._inverse_opnorms):
            assert np.array_equal(m, want)
            assert norm == float(np.linalg.norm(m, 2))
            with pytest.raises(ValueError):
                m[0, 0] = 1.0

    def test_underflowing_stretch_rejected(self):
        # 1e-300 * 1e-30 underflows to 0, and the product is still checked
        with pytest.raises(DomainError):
            SimMap(SPEC_ROT, 1e-300).compose(SimMap(SPEC_ROT, 1e-30))

    def test_fold_computes_each_alphabet_norm_once(self, monkeypatch):
        alphabet, _ = self._alphabet(9)
        # every letter after the first conjugates by its similarity, each at least twice
        letters = [alphabet[i % self.ALPHABET] for i in range(self.LETTERS)]
        parts = [(k, i, m) for k, a in enumerate(alphabet)
                 for i, m in enumerate(_inverse_linear_parts(a.sim))]
        counts = {(k, i): 0 for k, i, _ in parts}
        svd = np.linalg.svd

        def counted(x, *args, **kwargs):
            for k, i, m in parts:
                if np.shape(x) == m.shape and np.array_equal(x, m):
                    counts[k, i] += 1
            return svd(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        functools.reduce(lambda acc, a: acc.compose(a), letters)
        assert counts == dict.fromkeys(counts, 1)

    def test_fold_computes_each_alphabet_lip_bound_once(self, monkeypatch):
        alphabet, _ = self._alphabet(9)
        letters = [alphabet[i % self.ALPHABET] for i in range(self.LETTERS)]
        counts = {(k, a): 0 for k in range(self.ALPHABET) for a in SPEC_ROT.exponents}
        power = np.float_power

        def counted(x, y, *args, **kwargs):
            # the lip bound raises the float stretch; the linear parts raise arrays
            for k, letter in enumerate(alphabet):
                if type(x) is float and x == letter.sim.stretch:
                    counts[k, y] += 1
            return power(x, y, *args, **kwargs)

        monkeypatch.setattr(np, "float_power", counted)
        functools.reduce(lambda acc, a: acc.compose(a), letters)
        assert counts == dict.fromkeys(counts, 1)

    def test_cached_lip_bound_of_a_stack_is_read_only(self):
        stack = SimMap(SPEC_ROT, np.array([0.5, 3.0]))
        lips = stack.lip_bound()
        assert stack.lip_bound() is lips and lips.tolist() == [0.5, 9.0]
        with pytest.raises(ValueError):
            lips[0] = 1.0

    @given(st.lists(st.floats(-150, 150), min_size=1, max_size=5), st.floats(-math.pi, math.pi))
    @settings(max_examples=100, deadline=None)
    def test_inverse_opnorms_equal_the_matrix_norm(self, logs, theta):
        stretches = 10.0 ** np.array(logs)
        stack = SimMap(SPEC_ROT, stretches, [_rot(theta), -np.eye(1)])
        for i, (m, norms) in enumerate(zip(stack._inverse_linear, stack._inverse_opnorms)):
            for j, t in enumerate(stretches.tolist()):
                one = SimMap(SPEC_ROT, t, stack.rotations)
                want = float(np.linalg.norm(m[j], 2))
                assert norms[j] == one._inverse_opnorms[i] == want
                assert type(one._inverse_opnorms[i]) is float


def _unshift(y):
    return [y[0] - 1.0]


def _row_maps():
    """Boundary maps on SPEC_ROT: a similarity with rotations, words, and first-block affine
    maps, one of them with a constant block."""
    s = SimMap(SPEC_ROT, 1.3, [_rot(0.7), -np.eye(1)], [np.array([0.4, -0.2]), np.array([0.3])])
    a = AlmostTranslation(SPEC_ROT, [Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)), Const([0.7])])
    word = a.compose(a.inverse()).compose(a)
    asim = ASimMap(s, word)
    # block 0 moved by a function of block 1, block 1 sent to a constant block
    generic = FirstBlockAffineMap(SPEC_ROT, 1.0, lambda y: [np.ones(1)],
                                  B_of=lambda y: np.sin(y[0]) * [0.5, 0.1])
    return {
        "sim": s,
        "word": word,
        "word-inverse": word.inverse(),
        "word-conjugate": conjugate_almost_by_sim(s, word),
        "asim": asim,
        "asim-word": asim.compose(_asim_letter(np.random.default_rng(3))),
        "block-map": generic,
        "affine": varying_rotation_map().compose(constant_rotation_map(0.5)),
        "affine-inverse": affine_reference.library_inverse(constant_rotation_map(0.9), _unshift),
    }


ROW_MAPS = _row_maps()


class TestRowEvaluation:
    ROWS = np.random.default_rng(8).uniform(-3, 3, (30, SPEC_ROT.total_dim))

    @staticmethod
    def _blocks(rows):
        return [rows[..., s] for s in SPEC_ROT.block_slices()]

    @pytest.mark.parametrize("name", list(ROW_MAPS))
    def test_rows_equal_the_per_point_loop(self, name):
        F = ROW_MAPS[name]
        got = F.eval_blocks(self._blocks(self.ROWS))
        want = [F.eval_blocks(self._blocks(row)) for row in self.ROWS]
        for i, n in enumerate(SPEC_ROT.multiplicities):
            # a constant component gives one block for every row
            block = np.broadcast_to(got[i], (len(self.ROWS), n))
            assert np.array_equal(block, np.array([w[i] for w in want]))

    @pytest.mark.parametrize("name", list(ROW_MAPS))
    def test_point_block_is_shared_by_the_rows(self, name):
        F = ROW_MAPS[name]
        rows = self.ROWS.copy()
        rows[:, :2] = rows[0, :2]
        got = F.eval_blocks([self.ROWS[0, :2], rows[:, 2:]])
        for g, w in zip(got, F.eval_blocks(self._blocks(rows))):
            assert np.array_equal(np.broadcast_to(g, w.shape), w)

    @pytest.mark.parametrize("name", list(ROW_MAPS))
    @pytest.mark.parametrize("shapes", [
        [(5, 3), (5, 1)],  # a block of the wrong dim
        [(5, 2), (4, 1)],  # rows of differing N
        [(1, 5, 2), (1, 5, 1)],  # 3-d blocks
        [(), (1,)],  # a 0-d block
        [(5, 2)],  # too few blocks
        [(5, 2), (5, 1), (5, 1)],  # too many
    ], ids=lambda s: str(s))
    def test_misshaped_blocks_rejected(self, name, shapes):
        with pytest.raises(InputError):
            ROW_MAPS[name].eval_blocks([np.zeros(s) for s in shapes])

    @pytest.mark.parametrize("name", list(ROW_MAPS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "x"])
    def test_non_finite_or_non_numeric_blocks_rejected(self, name, bad):
        blocks = [np.zeros((4, 2)).tolist(), np.zeros((4, 1)).tolist()]
        blocks[1][2][0] = bad
        with pytest.raises(InputError):
            ROW_MAPS[name].eval_blocks(blocks)


class Precompose(FuncExpr):
    """A child expression evaluated on the image of an inner block map.

    Each evaluation evaluates the whole inner map; the certificates follow
    the composition rules directly, which makes these trees the reference
    for the certificates that words carry.
    """

    def __init__(self, child: FuncExpr, inner):
        self.child = child
        self.inner = inner
        self.dim = child.dim

    def _eval(self, blocks):
        return self.child._eval(self.inner.eval_blocks(blocks))

    def deps(self):
        out = frozenset()
        for j in self.child.deps():
            out |= self.inner.deps_of(j)
        return out

    @property
    def lipschitz(self):
        return self.child.lipschitz * self.inner.lip_bound()

    @property
    def sup_bound(self):
        return self.child.sup_bound


def _tree_compose(s, o):
    """Composition as nested Precompose trees: the reference certificate rules."""
    newb = [Sum((bo, Precompose(bs, o))) for bs, bo in zip(s.perturbations, o.perturbations)]
    return AlmostTranslation(s.spec, newb, s.K * o.K)


def _tree_inverse(a):
    r = a.spec.r
    newb = [None] * r
    newb[r - 1] = Scale(-1.0, a.perturbations[r - 1])
    for i in range(r - 2, -1, -1):
        zeros = [Const(np.zeros(n)) for n in a.spec.multiplicities[: i + 1]]
        partial = AlmostTranslation(a.spec, zeros + newb[i + 1 :], a.K)
        newb[i] = Scale(-1.0, Precompose(a.perturbations[i], partial))
    return AlmostTranslation(a.spec, newb, a.K)


def _tree_conjugate(s, a):
    newb = [
        Lin(s.stretch ** (-e) * rot.T, Precompose(b, s))
        for e, rot, b in zip(s.spec.exponents, s.rotations, a.perturbations)
    ]
    return AlmostTranslation(s.spec, newb, a.K)


class TestWordCertificates:
    SPEC = SpectralData((1.0, 2.0, 3.0), (2, 1, 1))

    def _letters(self):
        # a's block 0 reads block 1 only and b's reads nothing, so deps must
        # follow the chain through block 1's own dependence on block 2
        a = AlmostTranslation(self.SPEC, [
            Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)),
            Osc([0.5], [2.0], 0.0, BlockVar(2, 1)),
            Const([1.5]),
        ], K=1.5)
        b = AlmostTranslation(self.SPEC, [
            Const([0.1, 0.4]),
            Osc([0.7], [1.3], -0.3, BlockVar(2, 1)),
            Const([0.25]),
        ], K=2.0)
        return a, b

    def _build(self, compose_, inverse):
        """A length-6 word, folded with mixed association."""
        a, b = self._letters()
        return compose_(
            compose_(compose_(a, inverse(b)), compose_(b, a)), compose_(inverse(a), b)
        )

    def _assert_same_certificates(self, got, want):
        assert got.K == want.K
        assert got.lip_bound() == want.lip_bound()
        for i in range(self.SPEC.r):
            assert got.b_max(i) == want.b_max(i)
            assert got.perturbations[i].lipschitz == want.perturbations[i].lipschitz
            assert got.perturbations[i].deps() == want.perturbations[i].deps()
            assert got.deps_of(i) == want.deps_of(i)
        for _ in range(3):
            p = random_point(self.SPEC, RNG, 2.0)
            assert isclose(got(p), want(p), atol=1e-12)
            for gb, wb in zip(got.perturbations, want.perturbations):
                assert np.max(np.abs(gb(p.blocks) - wb(p.blocks))) <= 1e-12

    def test_word_inverse_and_conjugates_match_tree_recursion(self):
        word = self._build(lambda x, y: x.compose(y), lambda x: x.inverse())
        tree = self._build(_tree_compose, _tree_inverse)
        assert len(word.letters) == 6
        s1 = SimMap(self.SPEC, 1.3, [_rot(0.4), -np.eye(1), np.eye(1)],
                    [np.array([0.2, -0.1]), np.array([0.3]), np.array([-0.7])])
        s2 = SimMap(self.SPEC, 0.6, [_rot(-1.2), np.eye(1), -np.eye(1)])
        a, b = self._letters()
        self._assert_same_certificates(a.compose(b), _tree_compose(a, b))
        self._assert_same_certificates(a.inverse(), _tree_inverse(a))
        self._assert_same_certificates(word, tree)
        self._assert_same_certificates(word.inverse(), _tree_inverse(tree))
        self._assert_same_certificates(conjugate_almost_by_sim(s1, word), _tree_conjugate(s1, tree))
        self._assert_same_certificates(
            conjugate_almost_by_sim(s2, conjugate_almost_by_sim(s1, word)),
            _tree_conjugate(s2, _tree_conjugate(s1, tree)),
        )


class TestClassification:
    @staticmethod
    def _pairs(count, scale=1.0):
        return next(random_row_blocks(SPEC_NIL, RNG, count, 2, scale))

    def test_similarity(self):
        c = classify(SPEC_NIL, SimMap(SPEC_NIL, 2.0), self._pairs(50))
        assert c.kind == "Sim" and c.stretch == pytest.approx(2.0)

    def test_almost_similarity(self):
        g = ASimMap(SimMap(SPEC_NIL, 2.0), oscillating_kernel_element())
        c = classify(SPEC_NIL, g, self._pairs(200, 5.0))
        assert c.kind == "ASim" and c.stretch == pytest.approx(2.0)

    def test_bilip_map(self):
        squeeze = FirstBlockAffineMap(SPEC_NIL, 1.0, lambda y: y, lam_of=lambda y: 1.5)
        c = classify(SPEC_NIL, squeeze, self._pairs(300, 5.0))
        assert c.kind in ("Bilip", "QSim")
        assert c.K > 1.0

    @pytest.mark.parametrize("F, gap", [
        (FirstBlockAffineMap(SPEC_NIL, 1.0, lambda y: [np.ones(1)], lam_of=lambda y: 0.0), 1.0),
        (FirstBlockAffineMap(SPEC_NIL, 1.0, lambda y: y, B_of=lambda y: 1e300 * (y[0] > 0)),
         1e-20),
    ], ids=["ratio-0", "ratio-inf"])
    def test_pairs_with_a_ratio_of_0_or_inf_rejected(self, F, gap):
        # lam 0 and a constant quotient send both points of a pair to one image (ratio 0); a
        # jump of 1e300 across y = 0 moves points 1e-10 apart by 1e300 (ratio inf). np.log
        # warned, and the map read as QSim with K NaN
        pairs = np.zeros((20, 2, SPEC_NIL.total_dim))
        pairs[:, :, 0] = np.linspace(-1.0, 1.0, 20)[:, None]
        pairs[:, 1, 1] = gap
        for measure in (classify, estimate_qsim_constants):
            with pytest.raises(DomainError, match="20 of 20"):
                measure(SPEC_NIL, F, pairs)

    def test_an_image_gap_beyond_float_range_is_the_maps_fault(self):
        # finite samples that the map sends 3e308 apart: the distance of the images raised
        # InputError, blaming the caller's points
        F = FirstBlockAffineMap(spec=SPEC_STRETCH, stretch=1e308, quotient=lambda y: [y[0]])
        pairs = np.array([[(1.5, 0.3), (-1.5, 0.3)], [(0.2, 0.1), (0.4, 0.7)]])
        for measure in (classify, estimate_qsim_constants):
            with pytest.raises(DomainError, match="1 of 2 sample pairs have a non-finite image gap"):
                measure(SPEC_STRETCH, F, pairs)
            pairs[0, 0, 0] = math.inf  # a non-finite sample is still the caller's
            with pytest.raises(InputError):
                measure(SPEC_STRETCH, F, pairs)
            pairs[0, 0, 0] = 1.5


class TestHomomorphisms:
    def test_height_additive(self):
        for _ in range(50):
            t1, t2 = RNG.uniform(0.3, 3.0, 2)
            s1, s2 = SimMap(SPEC_NIL, t1), SimMap(SPEC_NIL, t2)
            assert height_hom(s1.compose(s2)) == pytest.approx(
                height_hom(s1) + height_hom(s2), abs=1e-12
            )

    def test_rotation_multiplicative(self):
        s1 = ASimMap(SimMap(SPEC_ROT, 1.0, [_rot(0.4), np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
        s2 = ASimMap(SimMap(SPEC_ROT, 2.0, [_rot(1.1), np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
        r12 = s1.compose(s2).sim.rotations
        expect = [a @ b for a, b in zip(s1.sim.rotations, s2.sim.rotations)]
        for got, want in zip(r12, expect):
            assert np.allclose(got, want, atol=1e-12)

    def test_stretch_pairing_recovery(self):
        els = [SimMap(SPEC_NIL, 2.0), SimMap(SPEC_NIL, 8.0)]
        v = stretch_hom(els, [[1.0, 0.0], [3.0, 0.0]])
        assert v[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_stretch_pairing_takes_any_element_with_a_stretch(self):
        affine = FirstBlockAffineMap(SPEC_ROT, 2.0, lambda y: [2.0 * y[0]])
        els = [affine, ASimMap(SimMap(SPEC_ROT, 8.0), AlmostTranslation.identity(SPEC_ROT))]
        assert stretch_hom(els, [[1.0], [3.0]])[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_inconsistent_stretches_rejected(self):
        els = [SimMap(SPEC_NIL, 2.0), SimMap(SPEC_NIL, 3.0)]
        with pytest.raises(NotInUniformSubgroup):
            stretch_hom(els, [[1.0], [1.0]])

    @pytest.mark.parametrize("stretch, v, error", [
        (math.inf, 1.0, NotInUniformSubgroup), (math.nan, 1.0, NotInUniformSubgroup),
        (2.0, math.inf, InputError), (2.0, math.nan, InputError),
    ])
    def test_non_finite_stretches_and_spanning_vectors_rejected(self, stretch, v, error):
        # a NaN residual passed (v read [nan]), and a non-finite spanning vector
        # reached LAPACK, which raised numpy's LinAlgError
        els = [SimpleNamespace(stretch=stretch), SimMap(SPEC_NIL, 2.0)]
        with pytest.raises(error):
            stretch_hom(els, [[v], [1.0]])


class TestFirstBlockAffine:
    def test_compose_matches_pointwise(self):
        f = constant_rotation_map(0.5)
        g = constant_rotation_map(-1.2)
        comp = f.compose(g)
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert isclose(comp(p), f(g(p)), atol=1e-12)

    @pytest.mark.parametrize("stretch, error", [
        (0.0, DomainError), (-1.0, DomainError), (math.inf, DomainError), (math.nan, DomainError),
        ([1.0, 2.0], DimensionMismatch),
    ])
    def test_stretch_is_one_positive_finite_number(self, stretch, error):
        # height_hom raised a bare ValueError on these, or read a stack
        with pytest.raises(error):
            FirstBlockAffineMap(SPEC_ROT, stretch, lambda y: y)

    def test_missing_inverse_raises(self):
        g = constant_rotation_map()
        with pytest.raises(InputError):
            g.invert_blocks(random_point(SPEC_ROT, RNG).blocks)


def _affine_pairs():
    """Library maps and their per-point closure copies, built from the same callables."""
    rot, vary = constant_rotation_map(0.9), varying_rotation_map()
    ref_rot, ref_vary = affine_reference.from_map(rot), affine_reference.from_map(vary)
    inverse = affine_reference.library_inverse(vary, _unshift)
    return {
        "rotation": (rot, ref_rot),
        "varying": (vary, ref_vary),
        "composite": (vary.compose(rot), ref_vary.compose(ref_rot)),
        "inverse": (inverse, affine_reference.from_map(inverse)),
        "radial-word": (radial_escape_words(3)[-1],
                        affine_reference.radial_escape_words(
                            affine_reference.from_map(radial_generator()), 3)[-1]),
    }


class TestAffineRowsEqualClosures:
    @pytest.mark.parametrize("name", list(_affine_pairs()))
    def test_images_derivatives_and_preimages(self, name):
        g, ref = _affine_pairs()[name]
        rows = np.random.default_rng(5).uniform(-3, 3, (40, g.spec.total_dim))
        blocks = split_rows(g.spec, rows)
        images = join_blocks(g.eval_blocks(blocks))
        derivs = g.first_block_derivative(blocks)
        for row, image, deriv in zip(rows, images, derivs):
            p = from_flat(g.spec, row)
            assert np.array_equal(image, ref(p).flat())
            assert np.array_equal(deriv, ref.first_block_derivative(p))
            assert np.array_equal(g.first_block_derivative(p.blocks), deriv)
        if ref.inverse_map is not None:
            pre = join_blocks(g.invert_blocks(blocks))
            for row, q in zip(rows, pre):
                assert np.array_equal(q, ref.invert_point(from_flat(g.spec, row)).flat())

    @pytest.mark.parametrize("name", ["rotation", "varying", "composite", "inverse"])
    def test_rotation_witness(self, name):
        g, ref = _affine_pairs()[name]
        got = rotation_rigidity_witness(g, K=1.5)
        want = affine_reference.rotation_rigidity_witness(ref, K=1.5)
        assert (got is None) == (want is None) == (name == "rotation")
        if got is not None:
            y, yp, z, ratio, bound = want
            assert all(np.array_equal(a, b) for a, b in zip(got.y + got.y_prime, y + yp))
            assert np.array_equal(got.z, z)
            assert got.ratio == ratio and got.bound == bound


class TestRotationWitness:
    def test_constant_rotation_passes(self):
        assert rotation_rigidity_witness(constant_rotation_map(0.7), K=1.5) is None
        assert rotation_rigidity_witness(constant_rotation_map(0.0), K=1.5) is None

    def test_varying_rotation_yields_violating_witness(self):
        g = varying_rotation_map()
        w = rotation_rigidity_witness(g, K=1.5)
        assert w is not None
        assert math.isfinite(w.ratio)
        assert w.ratio > w.bound


def _equal_parts(got, want):
    """Blocks of one member against the one-similarity blocks, bit for bit."""
    return all(np.array_equal(g, w) for g, w in zip(got, want))


@st.composite
def _sim_stacks(draw):
    """A stack of B similarities of SPEC_ROT with shared rotations and non-zero
    translations, rows or shared per block, and the blocks of B points."""
    b = draw(st.integers(1, 6))
    stretch = draw(hnp.arrays(float, b, elements=st.floats(0.05, 20.0)))
    theta = draw(st.floats(-math.pi, math.pi))
    rots = [_rot(theta), draw(st.sampled_from([np.eye(1), -np.eye(1)]))]
    coord = st.floats(-3, 3).filter(lambda v: v != 0.0)
    trans = [draw(hnp.arrays(float, draw(st.sampled_from([(n,), (b, n)])), elements=coord))
             for n in SPEC_ROT.multiplicities]
    points = [draw(hnp.arrays(float, (b, n), elements=st.floats(-5, 5)))
              for n in SPEC_ROT.multiplicities]
    return SimMap(SPEC_ROT, stretch, rots, trans), points


def _member(s, j):
    """Member j of a stack as one similarity, or s itself when it is one."""
    if not isinstance(s.stretch, np.ndarray):
        return s
    return SimMap(SPEC_ROT, float(s.stretch[j]), s.rotations,
                  [b if b.ndim == 1 else b[j] for b in s.translations])


def _same_member(stack, j, one):
    """Stretch, rotations, translations and linear parts of member j equal those of ``one``."""
    trans = [b if b.ndim == 1 else b[j] for b in stack.translations]
    return (stack.stretch[j] == one.stretch
            and _equal_parts(stack.rotations, one.rotations)
            and _equal_parts(trans, one.translations)
            and _equal_parts([m[j] for m in stack._linear], one._linear)
            and _equal_parts([m[j] for m in stack._inverse_linear], one._inverse_linear))


class TestSimMapStacks:
    @given(_sim_stacks(), _sim_stacks(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_members_equal_their_one_similarity_maps(self, first, second, one_other):
        stack, points = first
        other = second[0]
        b = len(stack.stretch)
        if one_other:  # one similarity with a stack
            other = _member(other, 0)
        elif len(other.stretch) != b:
            other = SimMap(SPEC_ROT, np.resize(other.stretch, b), other.rotations,
                           [t if t.ndim == 1 else np.resize(t, (b, t.shape[1]))
                            for t in other.translations])
        images = stack.eval_blocks(points)
        lips, heights = stack.lip_bound(), height_hom(stack)
        products = (stack.compose(other), other.compose(stack), stack.inverse())
        for j in range(b):
            one = _member(stack, j)
            assert _same_member(stack, j, one)
            assert _equal_parts([x[j] for x in images], one.eval_blocks([x[j] for x in points]))
            assert lips[j] == one.lip_bound()
            assert heights[j] == height_hom(one) == math.log(one.stretch)
            for got, want in zip(products, (one.compose(_member(other, j)),
                                            _member(other, j).compose(one), one.inverse())):
                assert _same_member(got, j, want)

    @given(hnp.arrays(float, st.integers(1, 6), elements=st.floats(-3, 3)))
    @settings(max_examples=50, deadline=None)
    def test_height_isometry_members(self, heights):
        spec = SolvSpec(lower=SPEC_ROT)
        stack = boundary_of_height_isometry(spec, heights)
        points = [np.full((len(heights), n), 1.5) for n in SPEC_ROT.multiplicities]
        images = stack.eval_blocks(points)
        for j, a in enumerate(heights.tolist()):
            one = boundary_of_height_isometry(spec, a)
            assert one.stretch == math.exp(a) and _same_member(stack, j, one)
            assert _equal_parts([x[j] for x in images], one.eval_blocks([x[j] for x in points]))

    def test_a_point_is_mapped_by_every_member(self):
        stack = SimMap(SPEC_ROT, np.array([0.5, 2.0]), translations=[[1.0, 2.0], [[0.5], [-0.5]]])
        images = stack.eval_blocks([np.array([1.0, -1.0]), np.array([3.0])])
        rows = stack.eval_blocks([np.array([[1.0, -1.0]] * 2), np.array([[3.0]] * 2)])
        assert _equal_parts(images, rows) and images[0].shape == (2, 2)

    def test_one_similarity_methods_reject_stacks(self):
        stack = SimMap(SPEC_ROT, np.array([1.0, 2.0]))
        a = AlmostTranslation.identity(SPEC_ROT)
        samples = np.zeros((3, 2, SPEC_ROT.total_dim))
        for call in (lambda: ASimMap(stack, a), lambda: conjugate_almost_by_sim(stack, a),
                     lambda: classify(SPEC_ROT, stack, samples),
                     lambda: stretch_hom([stack], [[1.0]]),
                     lambda: stack(zero(SPEC_ROT))):
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("make", [
        lambda: SimMap(SPEC_ROT, np.ones((2, 2))),  # not (B,)
        lambda: SimMap(SPEC_ROT, np.ones(2), translations=[np.zeros((3, 2)), np.zeros(1)]),
        lambda: SimMap(SPEC_ROT, 1.0, translations=[np.zeros((2, 2)), np.zeros(1)]),
        lambda: SimMap(SPEC_ROT, np.ones(2)).compose(SimMap(SPEC_ROT, np.ones(3))),
        lambda: SimMap(SPEC_ROT, np.ones(2)).eval_blocks([np.zeros((3, 2)), np.zeros((3, 1))]),
    ])
    def test_mismatched_stacks_rejected(self, make):
        with pytest.raises(DimensionMismatch):
            make()

    def test_a_bad_member_is_rejected_as_one(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                SimMap(SPEC_ROT, np.array([1.0, bad]))
        # 1e-200 ** -2 is beyond float range for the second member only
        with pytest.raises(DomainError):
            SimMap(SPEC_ROT, 1.0).compose(SimMap(SPEC_ROT, np.array([1.0, 1e-200])))
        lips = SimMap(SPEC_ROT, np.array([2.0, 1e200, 1e-200])).lip_bound()
        assert lips.tolist() == [4.0, math.inf, 1e-200]
