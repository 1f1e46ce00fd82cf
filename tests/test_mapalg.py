"""Similarity algebra, classification, homomorphisms, reciprocity, and the
rotation-rigidity witness search."""

import functools
import math

import numpy as np
import pytest

from solvrigid import (
    ASimMap,
    AlmostTranslation,
    BlockMap,
    BlockPoint,
    BlockVar,
    BoundaryPair,
    Const,
    FirstBlockAffineMap,
    InputError,
    Lin,
    NotInUniformSubgroup,
    Osc,
    Precompose,
    Scale,
    SimMap,
    SpectralData,
    Sum,
    affine_inverse,
    check_reciprocity,
    check_triangularity,
    classify,
    compose,
    conjugate_almost_by_sim,
    height_hom,
    invert,
    random_pairs,
    random_point,
    rotation_hom,
    rotation_rigidity_witness,
    stretch_hom,
)
from solvrigid.fixtures import (
    SPEC_NIL,
    SPEC_ROT,
    constant_rotation_map,
    matched_boundary_pair,
    mismatched_boundary_pair,
    oscillating_kernel_element,
    varying_rotation_map,
)

RNG = np.random.default_rng(42)


def _rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestSimMap:
    def test_rejects_nonorthogonal_rotation(self):
        with pytest.raises(InputError):
            SimMap(SPEC_ROT, 1.0, rotations=[2.0 * np.eye(2), np.eye(1)])

    def test_compose_matches_pointwise(self):
        s1 = SimMap(SPEC_ROT, 2.0, [_rot(0.3), np.eye(1)], [np.array([1.0, -0.5]), np.array([0.2])])
        s2 = SimMap(SPEC_ROT, 0.7, [_rot(-1.1), -np.eye(1)], [np.array([0.4, 0.9]), np.array([-1.0])])
        comp = s1.compose(s2)
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert comp(p).isclose(s1(s2(p)), atol=1e-12)

    def test_inverse_matches_pointwise(self):
        s = SimMap(SPEC_ROT, 1.7, [_rot(0.9), np.eye(1)], [np.array([0.3, 0.1]), np.array([2.0])])
        inv = s.inverse()
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert inv(s(p)).isclose(p, atol=1e-12)
            assert s(inv(p)).isclose(p, atol=1e-12)

    def test_as_block_map_agrees(self):
        s = SimMap(SPEC_ROT, 1.3, [_rot(0.2), np.eye(1)], [np.array([1.0, 0.0]), np.array([0.5])])
        bm = s.as_block_map()
        p = random_point(SPEC_ROT, RNG, 2.0)
        assert bm(p).isclose(s(p), atol=1e-12)


class TestASimMap:
    def test_compose_matches_pointwise(self):
        a = oscillating_kernel_element()
        g1 = ASimMap(SimMap.dilation(SPEC_NIL, 2.0), a)
        g2 = ASimMap(SimMap.dilation(SPEC_NIL, 0.5), a.inverse())
        comp = g1.compose(g2)
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert comp(p).isclose(g1(g2(p)), atol=1e-10)

    def test_inverse_matches_pointwise(self):
        g = ASimMap(SimMap.dilation(SPEC_NIL, 1.5), oscillating_kernel_element())
        inv = g.inverse()
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert inv(g(p)).isclose(p, atol=1e-10)

    def test_conjugation_by_similarity_is_pointwise_conjugation(self):
        s = SimMap.dilation(SPEC_NIL, 2.0)
        a = oscillating_kernel_element()
        conj = conjugate_almost_by_sim(s, a)
        s_inv = s.inverse()
        for _ in range(20):
            p = random_point(SPEC_NIL, RNG, 3.0)
            assert conj(p).isclose(s_inv(a(s(p))), atol=1e-10)

    def test_generic_compose_invert_dispatch(self):
        s = SimMap.dilation(SPEC_NIL, 2.0)
        a = oscillating_kernel_element()
        c = compose(s, a)
        assert isinstance(c, ASimMap)
        p = random_point(SPEC_NIL, RNG, 2.0)
        assert c(p).isclose(s(a(p)), atol=1e-10)
        assert invert(s)(s(p)).isclose(p, atol=1e-12)


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
            assert got(p).isclose(want(p), atol=1e-12)
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


class TestGenericComposition:
    def _generic(self):
        return BlockMap(SPEC_NIL, [
            Sum((BlockVar(0, 1), Osc([0.5], [1.0], 0.0, BlockVar(1, 1)))),
            Sum((BlockVar(1, 1), Const([1.0]))),
        ])

    def test_nested_compositions_evaluate_inner_once(self, count_calls):
        n = 8
        maps = [self._generic() for _ in range(n)]
        asim = ASimMap(SimMap.dilation(SPEC_NIL, 2.0), oscillating_kernel_element())
        left = functools.reduce(compose, maps)
        right = functools.reduce(lambda acc, m: compose(m, acc), reversed(maps))
        calls = count_calls(Osc)  # one Osc node per map
        p = random_point(SPEC_NIL, RNG, 2.0)
        want = p
        for m in reversed(maps):
            want = m(want)
        for word in (left, right):
            calls.clear()
            assert word(p).isclose(want, atol=1e-12)
            assert len(calls) == n
        want = asim(want)
        calls.clear()
        assert compose(asim, right)(p).isclose(want, atol=1e-12)
        assert len(calls) == n + 1


class TestTriangularity:
    def test_block_map_constructor_enforces_structure(self):
        from solvrigid import BlockVar

        with pytest.raises(InputError):
            BlockMap(SPEC_NIL, [BlockVar(0, 1), BlockVar(0, 1)])

    def test_probe_check_passes_on_sim(self):
        s = SimMap.dilation(SPEC_NIL, 3.0)
        assert check_triangularity(s, SPEC_NIL).passed

    def test_probe_check_flags_lower_dependence(self):
        def bad(p):
            return BlockPoint((p.blocks[0], p.blocks[1] + p.blocks[0]))

        verdict = check_triangularity(bad, SPEC_NIL)
        assert not verdict.passed
        assert verdict.worst_pair == (1, 0)


class TestClassification:
    def test_similarity(self):
        c = classify(SPEC_NIL, SimMap.dilation(SPEC_NIL, 2.0), random_pairs(SPEC_NIL, RNG, 50))
        assert c.kind == "Sim" and c.stretch == pytest.approx(2.0)

    def test_almost_similarity(self):
        g = ASimMap(SimMap.dilation(SPEC_NIL, 2.0), oscillating_kernel_element())
        c = classify(SPEC_NIL, g, random_pairs(SPEC_NIL, RNG, 200, 5.0))
        assert c.kind == "ASim" and c.stretch == pytest.approx(2.0)

    def test_bilip_map(self):
        def squeeze(p):
            return BlockPoint((1.5 * p.blocks[0], p.blocks[1]))

        c = classify(SPEC_NIL, squeeze, random_pairs(SPEC_NIL, RNG, 300, 5.0))
        assert c.kind in ("Bilip", "QSim")
        assert c.K > 1.0


class TestHomomorphisms:
    def test_height_additive(self):
        for _ in range(50):
            t1, t2 = RNG.uniform(0.3, 3.0, 2)
            s1, s2 = SimMap.dilation(SPEC_NIL, t1), SimMap.dilation(SPEC_NIL, t2)
            assert height_hom(s1.compose(s2)) == pytest.approx(
                height_hom(s1) + height_hom(s2), abs=1e-12
            )

    def test_rotation_multiplicative(self):
        s1 = ASimMap(SimMap(SPEC_ROT, 1.0, [_rot(0.4), np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
        s2 = ASimMap(SimMap(SPEC_ROT, 2.0, [_rot(1.1), np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
        r12 = rotation_hom(s1.compose(s2))
        expect = [a @ b for a, b in zip(rotation_hom(s1), rotation_hom(s2))]
        for got, want in zip(r12, expect):
            assert np.allclose(got, want, atol=1e-12)

    def test_stretch_pairing_recovery(self):
        els = [SimMap.dilation(SPEC_NIL, 2.0), SimMap.dilation(SPEC_NIL, 8.0)]
        v = stretch_hom(els, [[1.0, 0.0], [3.0, 0.0]])
        assert v[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_inconsistent_stretches_rejected(self):
        els = [SimMap.dilation(SPEC_NIL, 2.0), SimMap.dilation(SPEC_NIL, 3.0)]
        with pytest.raises(NotInUniformSubgroup):
            stretch_hom(els, [[1.0], [1.0]])


class TestReciprocity:
    def test_matched_pair_passes(self):
        assert check_reciprocity(matched_boundary_pair()).passed

    def test_mismatch_fails_with_geometric_drift(self):
        verdict = check_reciprocity(mismatched_boundary_pair())
        assert not verdict.passed
        assert verdict.log_defect == pytest.approx(abs(math.log(2.0 / 3.0)), rel=1e-12)
        drift = np.asarray(verdict.drift)
        assert len(drift) == 10
        # drift of (t_l t_u)^k decays geometrically for t_l t_u = 2/3
        assert np.allclose(np.diff(np.log(drift)), math.log(2.0 / 3.0))


class TestFirstBlockAffine:
    def test_compose_matches_pointwise(self):
        f = constant_rotation_map(0.5)
        g = constant_rotation_map(-1.2)
        comp = f.compose(g)
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert comp(p).isclose(f(g(p)), atol=1e-12)

    def test_affine_inverse(self):
        g = constant_rotation_map(0.9)
        g_inv = affine_inverse(g, lambda y: (y[0] - 1.0,))
        for _ in range(20):
            p = random_point(SPEC_ROT, RNG, 3.0)
            assert g_inv(g(p)).isclose(p, atol=1e-12)
            assert g_inv.invert_point(g_inv(p)).isclose(p, atol=1e-12)

    def test_missing_inverse_raises(self):
        g = constant_rotation_map()
        with pytest.raises(InputError):
            g.invert_point(random_point(SPEC_ROT, RNG))


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
