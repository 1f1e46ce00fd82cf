"""Almost translations, oscillation bounds, orbit counting, and the exact
approximate-root algorithm."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrigid import (
    AlmostTranslation,
    BlockPoint,
    Const,
    ExactWord,
    InfiniteIndexSuspected,
    InputError,
    OrbitCount,
    Osc,
    approx_lth_root,
    default_probes,
    distance,
    epsilon_bound,
    orbit_growth,
    oscillation,
    root_power_word,
)
from solvrigid.funcexpr import BlockVar
from solvrigid.fixtures import (
    SPEC_NIL,
    SPEC_R1,
    exact_r1_fixture,
    exact_r2_fixture,
    oscillating_kernel_element,
)
from solvrigid import fixtures, nilpotent
from solvrigid.nilpotent import ExactGenerator

from builders import unit_translation_1d
from metric_reference import isclose, zero

RNG = np.random.default_rng(23)

# negative, zero and non-dyadic rationals
_rationals = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=50),
                       st.fractions(-10**6, 10**6))


# magnitudes far enough from 0 and inf that the squares of their gaps stay normal
_MAGNITUDES = st.floats(2.0 ** -100, 2.0 ** 100)


def _pairwise_max(vals) -> float:
    """The largest norm of all N^2 row differences, in one array."""
    return float(np.linalg.norm(vals[:, None] - vals[None], axis=-1).max())


def _rand_point():
    return BlockPoint(tuple(RNG.uniform(-4, 4, n) for n in SPEC_NIL.multiplicities))


class TestAlmostTranslation:
    def test_structure_validation(self):
        with pytest.raises(InputError):
            # first-block perturbation may not read the first block
            AlmostTranslation(SPEC_NIL, [BlockVar(0, 1), Const([1.0])])
        with pytest.raises(InputError):
            # last block must be constant
            AlmostTranslation(SPEC_NIL, [Const([0.0]), Osc([1.0], [1.0], 0.0, BlockVar(1, 1))])

    @pytest.mark.parametrize("K", [-2.0, 0.0, 0.5])
    def test_quasisimilarity_constant_below_one_rejected(self, K):
        # epsilon_bound assumes K >= 1: K=-2 would make it -8.0, K=0 make it 0.0
        with pytest.raises(InputError):
            AlmostTranslation(SPEC_NIL, oscillating_kernel_element().perturbations, K=K)

    def test_compose_matches_pointwise(self):
        a = oscillating_kernel_element()
        b = a.compose(a)
        for _ in range(20):
            p = _rand_point()
            assert isclose(b(p), a(a(p)), atol=1e-12)

    def test_inverse_matches_pointwise(self):
        a = oscillating_kernel_element()
        inv = a.inverse()
        for _ in range(20):
            p = _rand_point()
            assert isclose(inv(a(p)), p, atol=1e-10)
            assert isclose(a(inv(p)), p, atol=1e-10)

    def test_power(self):
        a = oscillating_kernel_element()
        p = _rand_point()
        assert isclose(a.power(3)(p), a(a(a(p))), atol=1e-10)
        assert isclose(a.power(-1)(a(p)), p, atol=1e-10)
        assert isclose(a.power(0)(p), p)

    def test_power_has_n_letters_and_k_to_the_n(self):
        # gamma^n holds |n| letters and K^|n|; gamma^0 is the identity, K = 1
        a = oscillating_kernel_element()  # K = 2
        assert (a.power(0).K, a.power(1).K, a.power(-3).K) == (1.0, 2.0, 8.0)
        assert len(a.power(9).letters) == 9 and len(a.power(-9).letters) == 9
        assert a.power(1) is a


class TestWords:
    """Composed elements are words: an evaluation applies each letter once."""

    def test_power_evaluates_each_letter_once(self, count_calls):
        calls = count_calls(Osc)
        gamma = oscillating_kernel_element()  # one Osc node per letter
        p = _rand_point()
        for n in (14, -14):
            word = gamma.power(n)
            calls.clear()
            word(p)
            assert len(calls) == 14

    def test_power_matches_closed_form(self):
        c = 4.0
        gamma = oscillating_kernel_element(c=c)
        for n in range(-14, 15):
            x1, x2 = RNG.uniform(-3, 3, 2)
            p = BlockPoint((np.array([x1]), np.array([x2])))
            if n >= 0:
                want = (x1 + sum(math.sin(x2 + k * c) for k in range(n)), x2 + n * c)
            else:
                want = (x1 - sum(math.sin(x2 - k * c) for k in range(1, -n + 1)), x2 + n * c)
            assert np.max(np.abs(gamma.power(n)(p).flat() - want)) <= 1e-9, n

    def test_inverse_undoes_long_word(self):
        word = oscillating_kernel_element().power(14)
        inv = word.inverse()
        for _ in range(20):
            p = _rand_point()
            assert isclose(inv(word(p)), p, atol=1e-10)


class TestBounds:
    def test_epsilon_bound_dominates_sampled_oscillation(self):
        gamma = oscillating_kernel_element()
        for i in range(SPEC_NIL.r):
            bound = epsilon_bound(gamma, i)
            vals = [gamma.perturbations[i](_rand_point().blocks) for _ in range(300)]
            osc = max(
                float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
                for a in vals
                for b in vals[:20]
            )
            assert osc <= bound + 1e-12

    def test_epsilon_bound_zero_for_top_block(self):
        gamma = oscillating_kernel_element()
        assert epsilon_bound(gamma, SPEC_NIL.r - 1) == 0.0

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), _MAGNITUDES,
                              _MAGNITUDES.map(lambda m: -m)), min_size=1, max_size=40),
           st.integers(-359, 410))
    @settings(max_examples=200, deadline=None)
    def test_width_one_oscillation_is_the_pairwise_maximum(self, values, e):
        # nonzero values have magnitudes in 2^e [2^-100, 2^100], so every nonzero gap lies in
        # 2^e [2^-152, 2^101], inside [2^-511, 2^511]: all squares are normal
        vals = np.array(values)[:, None] * 2.0 ** e
        assert oscillation(vals).hex() == _pairwise_max(vals).hex()

    def test_width_one_oscillation_is_exact_where_squares_leave_normal_range(self):
        # the only values where max - min and the pairwise maximum differ: the squares of
        # these gaps underflow to 0 or overflow to inf
        for vals, gap in (([2.0 ** -540, 0.0], 2.0 ** -540), ([1e154, -1e154], 2e154)):
            vals = np.array(vals)[:, None]
            assert oscillation(vals) == gap
            with np.errstate(under="ignore", over="ignore"):
                assert _pairwise_max(vals) in (0.0, math.inf)

    def test_wider_blocks_take_the_pairwise_maximum(self):
        vals = RNG.uniform(-3.0, 3.0, (300, 2))  # 300**2 gaps: 12 chunks
        assert oscillation(vals) == _pairwise_max(vals)
        vals[7, 1] = math.nan
        assert math.isnan(oscillation(vals))


def _ref_orbit(generators, basepoint, word_cap):
    """The (depth, distance from the basepoint) of every distinct element.

    The breadth-first reference: each new element is composed from its
    parent and evaluated from the identity on the probes, then deduplicated
    by its probe images rounded to 1e-9.
    """
    spec = generators[0].spec
    probes = [basepoint, BlockPoint(tuple(np.full(n, 0.625) for n in spec.multiplicities))]

    def fingerprint(g):
        return tuple(tuple(np.round(g(q).flat(), 9)) for q in probes)

    alphabet = list(generators) + [g.inverse() for g in generators]
    ident = AlmostTranslation.identity(spec)
    seen = {fingerprint(ident)}
    found = [(0, distance(spec, ident(basepoint).flat(), basepoint.flat()))]
    frontier = [ident]
    for depth in range(1, word_cap + 1):
        nxt = []
        for g in frontier:
            for a in alphabet:
                h = a.compose(g)
                fp = fingerprint(h)
                if fp in seen:
                    continue
                seen.add(fp)
                nxt.append(h)
                found.append((depth, distance(spec, h(basepoint).flat(), basepoint.flat())))
        frontier = nxt
    return found


def _ref_count(found, k, word_cap):
    inside = [depth for depth, d in found if d <= k]
    return OrbitCount(count=len(inside), saturated=word_cap in inside)


def _assert_orbit_counts_match(generators, basepoint, radii, word_cap):
    found = _ref_orbit(generators, basepoint, word_cap)
    for k in radii:
        got = orbit_growth(generators, basepoint, k, word_cap)
        assert got == _ref_count(found, k, word_cap), (k, word_cap)


class TestOrbitGrowth:
    def test_single_translation_counts_ball(self):
        g = unit_translation_1d()
        base = zero(SPEC_R1)
        # D(g^k 0, 0) = |k|^(1/2) <= 2 iff |k| <= 4
        out = orbit_growth([g], base, 2.0, word_cap=6)
        assert out.count == 9
        assert not out.saturated

    def test_saturation_flagged(self):
        g = unit_translation_1d()
        base = zero(SPEC_R1)
        out = orbit_growth([g], base, 10.0, word_cap=3)
        assert out.saturated

    def test_no_generators(self):
        assert orbit_growth([], zero(SPEC_R1), 1.0, 3).count == 1

    def test_translation_matches_reference(self):
        g = unit_translation_1d()
        for x in (0.0, 0.3, -2.5):
            for cap in (1, 3, 6):
                base = BlockPoint((np.array([x]),))
                _assert_orbit_counts_match([g], base, (0.5, 1.0, 2.0, 4.0), cap)

    def test_kernel_element_matches_reference(self):
        rng = np.random.default_rng(5)
        for c in np.linspace(0.5, 5.0, 91):
            base = BlockPoint(tuple(rng.uniform(-1, 1, (2, 1))))
            gamma = oscillating_kernel_element(c=float(c))
            _assert_orbit_counts_match([gamma], base, (0.5, 1.0, 2.0, 4.0), 6)

    def test_two_generators_match_reference(self):
        # the first pair commutes, so distinct words give one element and the
        # count rests on the deduplication; the second pair does not
        gamma = oscillating_kernel_element(c=4.0)
        shift = AlmostTranslation(SPEC_NIL, [Const([0.7]), Const([0.0])])
        wobble = AlmostTranslation(SPEC_NIL, [Osc([0.3], [2.0], 0.5, BlockVar(1, 1)), Const([1.5])])
        rng = np.random.default_rng(6)
        for pair in ((gamma, shift), (gamma, wobble)):
            for _ in range(3):
                base = BlockPoint(tuple(rng.uniform(-1, 1, (2, 1))))
                _assert_orbit_counts_match(list(pair), base, (0.5, 1.0, 2.0, 4.0), 4)

    def test_each_word_costs_one_letter_step(self, count_calls):
        calls = count_calls(Osc)  # one Osc node per letter of gamma or its inverse
        gamma = oscillating_kernel_element(c=4.0)
        base = BlockPoint((np.array([0.3]), np.array([-0.2])))
        orbit_growth([gamma], base, 2.0, word_cap=7)
        # the walk steps both letters on the identity and on gamma^k and
        # gamma^-k for 0 < |k| < 7, and each step applies one letter to at
        # most three points; composing and re-evaluating made 276 calls
        stepped = 2 + 4 * 6
        assert len(calls) <= 3 * stepped

    @pytest.mark.parametrize("case", ["translation", "kernel", "two-generators"])
    def test_each_step_is_one_apply_call_on_two_rows(self, case, count_calls, monkeypatch):
        generators, base = {
            "translation": ([unit_translation_1d()], BlockPoint((np.array([0.3]),))),
            "kernel": ([oscillating_kernel_element(c=4.0)],
                       BlockPoint((np.array([0.3]), np.array([-0.2])))),
            "two-generators": ([oscillating_kernel_element(c=4.0), AlmostTranslation(
                SPEC_NIL, [Osc([0.3], [2.0], 0.5, BlockVar(1, 1)), Const([1.5])])],
                BlockPoint((np.array([0.3]), np.array([-0.2])))),
        }[case]
        found = _ref_orbit(generators, base, 4)
        steps, walk = [], nilpotent.walk_words

        def counted_walk(letters, depth, start, step):
            return walk(letters, depth, start, lambda a, state: steps.append(a) or step(a, state))

        monkeypatch.setattr(nilpotent, "walk_words", counted_walk)
        calls = count_calls(AlmostTranslation, name="_apply")
        for k in (0.5, 1.0, 2.0, 4.0):
            steps.clear()
            calls.clear()
            assert orbit_growth(generators, base, k, 4) == _ref_count(found, k, 4)
            assert len(calls) == len(steps) > 0
            assert all(b.shape[0] == 2 for _, blocks in calls for b in blocks)

    def test_orbit_is_measured_in_one_distance_call(self, count_calls):
        # the walk measured each word in a one-point distance call of its own
        calls = count_calls(nilpotent, name="distance")
        base = BlockPoint((np.array([0.3]), np.array([-0.2])))
        orbit_growth([oscillating_kernel_element(c=4.0)], base, 2.0, word_cap=7)
        # the rows of gamma^k for |k| <= 7
        assert len(calls) == 1 and np.shape(calls[0][1]) == (15, 2)


class TestExactWords:
    def test_free_reduction(self):
        gens, gamma_p, _ = exact_r1_fixture()
        w = ExactWord(gens, [(0, 1), (0, -1), (1, 1)])
        assert w.letters == ((1, 1),)

    def test_inverse_and_power(self):
        gens, gamma_p, _ = exact_r2_fixture()
        probes = default_probes(gens[0].dims)
        assert (gamma_p * gamma_p.inverse()).is_identity(probes)
        assert (gamma_p ** 2).equals(gamma_p * gamma_p, probes)
        assert (gamma_p ** -1).equals(gamma_p.inverse(), probes)

    def test_rightmost_letter_acts_first(self):
        dims = (1, 1)
        g1 = ExactGenerator(dims, [(Fraction(1),), (Fraction(0),)], name="a")

        def b1(later):
            return (later[0][0],)

        g2 = ExactGenerator(dims, [b1, (Fraction(0),)], name="b")
        point = ((Fraction(0),), (Fraction(2),))
        # g2 then g1: x1 = 0 + 2 + 1
        w = ExactWord([g1, g2], [(0, 1), (1, 1)])
        assert w.apply(point)[0] == (Fraction(3),)


class TestShuffleIdentities:
    """Exact commutation rules for kernel elements against arbitrary words."""

    def test_deeper_blocks_ignore_level_j_elements(self):
        gens, gamma_p, _ = exact_r2_fixture()
        kappa = ExactWord(gens, [(0, 1)])  # level-0 kernel element
        probes = default_probes(gens[0].dims)
        for p in probes:
            assert (gamma_p * kappa).block_displacement(p, 1) == (
                kappa * gamma_p
            ).block_displacement(p, 1)
            assert (gamma_p * kappa).block_displacement(p, 1) == gamma_p.block_displacement(p, 1)

    def test_level_block_commutes(self):
        gens, gamma_p, _ = exact_r2_fixture()
        probes = default_probes(gens[0].dims)
        for kappa in (ExactWord(gens, [(0, 1)]), ExactWord(gens, [(1, 1)])):
            j = 0 if kappa.letters[0][0] == 0 else 1
            for p in probes:
                assert (gamma_p * kappa).block_displacement(p, j) == (
                    kappa * gamma_p
                ).block_displacement(p, j)

    def test_cancellation_rule(self):
        # B_j of kappa = B_j of (gamma eta) implies kappa eta^-1 displaces
        # block j exactly like gamma
        gens, gamma_p, _ = exact_r2_fixture()
        probes = default_probes(gens[0].dims)
        gamma = ExactWord(gens, [(0, 1), (1, 1)])
        eta = ExactWord(gens, [(1, 1)])
        # gamma*eta moves block 1 by 2, and so does kappa
        kappa = ExactWord(gens, [(1, 1), (1, 1)])
        ge = gamma * eta
        for p in probes:
            assert kappa.block_displacement(p, 1) == ge.block_displacement(p, 1)
            assert (kappa * eta.inverse()).block_displacement(p, 1) == gamma.block_displacement(p, 1)


class TestApproxRoot:
    def test_single_level_fixture(self):
        gens, gamma_p, levels = exact_r1_fixture()
        probes = default_probes(gens[0].dims)
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, 2)
        # gamma_p = gamma' * eta with eta in the subgroup
        assert (cert.gamma_prime * cert.eta).equals(gamma_p, probes)
        # (gamma')^2 equals the recorded generator-power product exactly
        assert (cert.gamma_prime ** 2).equals(root_power_word(cert, gens), probes)
        assert all(0 <= c < 2 for c in cert.coefficients.values())

    def test_two_level_fixture(self):
        gens, gamma_p, levels = exact_r2_fixture()
        probes = default_probes(gens[0].dims)
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, 2)
        assert (cert.gamma_prime * cert.eta).equals(gamma_p, probes)
        power = cert.gamma_prime ** 2
        target = root_power_word(cert, gens)
        assert power.equals(target, probes)
        assert cert.coefficients == {0: 1, 1: 1}

    def test_top_block_displacement_of_root_is_dominated(self):
        # l * B_r(gamma') = sum c_i B_r(gamma_i) <= l * sum B_r(gamma_i)
        gens, gamma_p, levels = exact_r2_fixture()
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, 2)
        zero = gamma_p.zero_point()
        lhs = 2 * cert.gamma_prime.block_displacement(zero, 1)[0]
        rhs = sum(
            Fraction(c) * gens[i].top_displacement(1)[0] for i, c in cert.coefficients.items()
        )
        assert lhs == rhs

    def test_incompatible_translation_raises(self):
        dims = (1,)
        g1 = ExactGenerator(dims, [(Fraction(1),)], name="g1")
        gp = ExactGenerator(dims, [(Fraction(1, 3),)], name="gp")
        gamma_p = ExactWord([g1, gp], [(1, 1)])
        with pytest.raises(InfiniteIndexSuspected):
            approx_lth_root(gamma_p, [0, 1], [[0]], 2)

    def test_invalid_order_rejected(self):
        gens, gamma_p, levels = exact_r1_fixture()
        with pytest.raises(InputError):
            approx_lth_root(gamma_p, range(len(gens)), levels, 0)


# per fixture and root order: (coefficients, letters of gamma_prime, letters of eta),
# or None where a coefficient is not an integer
ROOTS = {
    ("r1", 1): None,
    ("r1", 2): ({0: 1}, ((1, 1), (0, -1), (0, -1)), ((0, 1), (0, 1))),
    ("r1", 3): None,
    ("r1", 4): ({0: 2}, ((1, 1), (0, -1), (0, -1)), ((0, 1), (0, 1))),
    ("r2", 1): None,
    ("r2", 2): ({1: 1, 0: 1}, ((2, 1), (1, -1)), ((1, 1),)),
    ("r2", 3): None,
    ("r2", 4): ({1: 2, 0: 2}, ((2, 1), (1, -1)), ((1, 1),)),
}
FIXTURES = {"r1": exact_r1_fixture, "r2": exact_r2_fixture}


class TestRootCost:
    @pytest.mark.parametrize("key", sorted(ROOTS))
    def test_certificates_are_unchanged(self, key):
        gens, gamma_p, levels = FIXTURES[key[0]]()
        if ROOTS[key] is None:
            with pytest.raises(InfiniteIndexSuspected):
                approx_lth_root(gamma_p, range(len(gens)), levels, key[1])
            return
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, key[1])
        assert (cert.coefficients, cert.gamma_prime.letters, cert.eta.letters) == ROOTS[key]

    @pytest.mark.parametrize("fixture", [exact_r1_fixture, exact_r2_fixture])
    def test_each_probe_image_computed_once_per_level(self, fixture, count_calls):
        gens, gamma_p, levels = fixture()
        calls = count_calls(ExactWord, name="apply")
        approx_lth_root(gamma_p, range(len(gens)), levels, 2)
        probes, r = len(default_probes(gens[0].dims)), len(gens[0].dims)
        # per level every probe and the zero point, then the final identity check
        assert len(calls) == r * (probes + 1) + probes

    def test_default_probes_built_once_per_block_structure(self):
        probes = default_probes((1, 1))
        assert probes is default_probes((1, 1)) and probes is not default_probes((1,))
        # immutable all the way down, so no caller can change another's probes
        assert isinstance(probes, tuple) and all(isinstance(p, tuple) for p in probes)

    def test_constant_perturbations_converted_once(self, count_calls):
        gens, _, _ = exact_r2_fixture()
        point = default_probes(gens[0].dims)[1]
        calls = count_calls(nilpotent, name="_fracvec")
        assert gens[0].apply(point) == ((point[0][0] + 1,), point[1])
        assert gens[0].apply_inverse(point) == ((point[0][0] - 1,), point[1])
        assert calls == []
        gens[2].apply(point)  # its first-block perturbation is a callable
        assert len(calls) == 1

    @given(st.lists(_rationals, min_size=4, max_size=4), st.lists(_rationals, min_size=3,
                                                                     max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_steps_add_the_displacements_exactly(self, entries, constants):
        # blocks of dims (2, 1, 1); block 1's displacement reads block 2, block 0's is constant
        point = (tuple(entries[:2]), (entries[2],), (entries[3],))
        b0, b2 = (constants[0], Fraction(0)), (constants[2],)

        def b1(later):
            return (later[0][0] * constants[1],)

        gen = ExactGenerator((2, 1, 1), [b0, b1, b2])
        x0, x1, x2 = point
        forward = (tuple(x + d for x, d in zip(x0, b0)), (x1[0] + b1((x2,))[0],),
                   (x2[0] + b2[0],))
        assert gen.apply(point) == forward
        y2 = (x2[0] - b2[0],)
        y1 = (x1[0] - b1((y2,))[0],)
        assert gen.apply_inverse(point) == (tuple(x - d for x, d in zip(x0, b0)), y1, y2)
        for image in (gen.apply(point), gen.apply_inverse(point)):
            assert all(type(x) is Fraction for block in image for x in block)

    @given(_rationals)
    @settings(max_examples=300, deadline=None)
    def test_chi_and_u_match_the_floor_form(self, x):
        chi = 1 if x - math.floor(x) < Fraction(1, 2) else -1
        assert fixtures._chi(x) == chi
        assert fixtures._u(x) == Fraction(1, 2) + Fraction(1, 4) * chi

    def test_callable_top_perturbation_rejected(self):
        with pytest.raises(InputError):
            ExactGenerator((1, 1), [(Fraction(0),), lambda later: (Fraction(1),)])
