"""Almost translations, kernel projections, oscillation bounds, orbit
counting, and the exact approximate-root algorithm."""

import math
from fractions import Fraction

import numpy as np
import pytest

from solvrigid import (
    AlmostTranslation,
    BlockPoint,
    Const,
    ExactWord,
    InfiniteIndexSuspected,
    InputError,
    NotInKernel,
    Osc,
    approx_lth_root,
    default_probes,
    displacement_bound,
    epsilon_bound,
    orbit_growth,
    root_power_word,
    tau_project,
)
from solvrigid.funcexpr import BlockVar
from solvrigid.fixtures import (
    SPEC_NIL,
    SPEC_R1,
    exact_r1_fixture,
    exact_r2_fixture,
    oscillating_kernel_element,
    unit_translation_1d,
)
from solvrigid.nilpotent import ExactGenerator

RNG = np.random.default_rng(23)


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

    def test_compose_matches_pointwise(self):
        a = oscillating_kernel_element()
        b = a.compose(a)
        for _ in range(20):
            p = _rand_point()
            assert b(p).isclose(a(a(p)), atol=1e-12)

    def test_inverse_matches_pointwise(self):
        a = oscillating_kernel_element()
        inv = a.inverse()
        for _ in range(20):
            p = _rand_point()
            assert inv(a(p)).isclose(p, atol=1e-10)
            assert a(inv(p)).isclose(p, atol=1e-10)

    def test_power(self):
        a = oscillating_kernel_element()
        p = _rand_point()
        assert a.power(3)(p).isclose(a(a(a(p))), atol=1e-10)
        assert a.power(-1)(a(p)).isclose(p, atol=1e-10)
        assert a.power(0)(p).isclose(p)


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
            assert inv(word(p)).isclose(p, atol=1e-10)


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

    def test_displacement_bound_dominates(self):
        from solvrigid import distance

        gamma = oscillating_kernel_element()
        bound = displacement_bound(gamma, [gamma])
        for _ in range(100):
            p = _rand_point()
            moved = float(np.linalg.norm(gamma(p).flat() - p.flat()))
            assert moved <= bound + 1e-12


class TestTauProject:
    def test_reads_constant_top_block(self):
        gamma = oscillating_kernel_element(c=4.0)
        assert np.allclose(tau_project(gamma, 1), [4.0])

    def test_kernel_requirement(self):
        gamma = oscillating_kernel_element()
        with pytest.raises(NotInKernel) as err:
            tau_project(gamma, 0)
        assert err.value.block == 1

    def test_first_level_after_quotient(self):
        b1 = Const([2.5])
        gamma = AlmostTranslation(SPEC_NIL, [b1, Const([0.0])])
        assert np.allclose(tau_project(gamma, 0), [2.5])


class TestOrbitGrowth:
    def test_single_translation_counts_ball(self):
        g = unit_translation_1d()
        base = BlockPoint.zero(SPEC_R1)
        # D(g^k 0, 0) = |k|^(1/2) <= 2 iff |k| <= 4
        out = orbit_growth([g], base, 2.0, word_cap=6)
        assert out.count == 9
        assert not out.saturated

    def test_saturation_flagged(self):
        g = unit_translation_1d()
        base = BlockPoint.zero(SPEC_R1)
        out = orbit_growth([g], base, 10.0, word_cap=3)
        assert out.saturated

    def test_no_generators(self):
        assert orbit_growth([], BlockPoint.zero(SPEC_R1), 1.0, 3).count == 1


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
