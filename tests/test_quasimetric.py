"""Block quasi-metric, dilations, and the chain functional against its oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvrigid import (
    BlockPoint,
    ChainGrid,
    DimensionMismatch,
    DomainError,
    InputError,
    SpectralData,
    chain_energy,
    dilate,
    dilate_rows,
    distance,
    distance_rows,
    enumerate_chain_cost,
    estimate_qsim_constants,
    random_point,
    random_row_blocks,
)
from solvrigid.spectral import ROW_BLOCK
from solvrigid.fixtures import SPEC_R1, SPEC_R2, SPEC_R3


def _point(spec, values):
    out = []
    it = iter(values)
    for n in spec.multiplicities:
        out.append(np.array([next(it) for _ in range(n)]))
    return BlockPoint(tuple(out))


coords = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=7, max_size=7
)


class TestSpectralData:
    def test_rejects_nonincreasing_exponents(self):
        with pytest.raises(InputError):
            SpectralData((2.0, 2.0), (1, 1))

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InputError):
            SpectralData((1.0,), (0,))

    def test_json_round_trip(self):
        again = SpectralData.from_json(SPEC_R3.to_json())
        assert again == SPEC_R3

    def test_from_json_rejects_missing_keys(self):
        with pytest.raises(InputError):
            SpectralData.from_json({"alphas": [1.0]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"alphas": 2.0, "mults": [1]},
            {"alphas": ["two"], "mults": [1]},
            {"alphas": [True], "mults": [1]},
            {"alphas": [2.0], "mults": [1.5]},
            {"alphas": [2.0], "mults": "1"},
        ],
    )
    def test_from_json_rejects_malformed_lists(self, obj):
        with pytest.raises(InputError):
            SpectralData.from_json(obj)


class TestDistance:
    def test_single_block_is_root_of_norm(self):
        p = _point(SPEC_R1, [3.0])
        q = _point(SPEC_R1, [0.0])
        assert distance(SPEC_R1, p, q) == pytest.approx(3.0 ** 0.5, rel=1e-15)

    def test_zero_iff_equal(self):
        p = _point(SPEC_R2, [1.0, 2.0])
        assert distance(SPEC_R2, p, p) == 0.0

    @given(coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b):
        p, q = _point(SPEC_R3, a), _point(SPEC_R3, b)
        assert distance(SPEC_R3, p, q) == distance(SPEC_R3, q, p)

    @given(coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_power_triangle_inequality(self, a, b, c):
        p, q, s = (_point(SPEC_R3, v) for v in (a, b, c))
        a1 = SPEC_R3.exponents[0]
        lhs = distance(SPEC_R3, p, s) ** a1
        rhs = distance(SPEC_R3, p, q) ** a1 + distance(SPEC_R3, q, s) ** a1
        assert lhs <= rhs + 1e-12 * max(lhs, 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(Exception):
            distance(SPEC_R2, _point(SPEC_R1, [1.0]), _point(SPEC_R1, [0.0]))


class TestDilate:
    @given(coords, coords, st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_exact_similarity(self, a, b, t):
        p, q = _point(SPEC_R3, a), _point(SPEC_R3, b)
        d = distance(SPEC_R3, p, q)
        d2 = distance(SPEC_R3, dilate(SPEC_R3, t, p), dilate(SPEC_R3, t, q))
        assert d2 == pytest.approx(t * d, rel=1e-12, abs=1e-300)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            dilate(SPEC_R1, 0.0, BlockPoint.zero(SPEC_R1))

    def test_group_property(self):
        p = _point(SPEC_R2, [1.3, -0.7])
        once = dilate(SPEC_R2, 6.0, p)
        twice = dilate(SPEC_R2, 2.0, dilate(SPEC_R2, 3.0, p))
        assert once.isclose(twice)


class TestChainEnergy:
    def test_matches_brute_force_oracle_per_round(self):
        # a single-block move subdivided k times is exactly the k-step
        # interleaved chain the oracle materializes
        p = BlockPoint.zero(SPEC_R2)
        q = _point(SPEC_R2, [1.0, 0.0])
        for k in (1, 2, 4, 8):
            est = chain_energy(SPEC_R2, 3.0, p, q, ChainGrid(resolution=k, max_depth=1))
            oracle = enumerate_chain_cost(SPEC_R2, 3.0, p, q, k)
            assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_multi_block_oracle(self):
        p = _point(SPEC_R2, [0.3, -0.2])
        q = _point(SPEC_R2, [1.1, 0.9])
        est = chain_energy(SPEC_R2, 2.5, p, q, ChainGrid(resolution=4, max_depth=1))
        oracle = enumerate_chain_cost(SPEC_R2, 2.5, p, q, 4)
        assert est.value <= oracle + 1e-12

    def test_supercritical_decays_with_depth(self):
        p = BlockPoint.zero(SPEC_R2)
        q = _point(SPEC_R2, [1.0, 0.0])
        shallow = chain_energy(SPEC_R2, 3.0, p, q, ChainGrid(max_depth=3))
        deep = chain_energy(SPEC_R2, 3.0, p, q, ChainGrid(max_depth=10))
        assert deep.value < shallow.value

    def test_critical_beta_is_flat(self):
        # beta = alpha_1 makes each first-block chain cost exactly the gap
        p = BlockPoint.zero(SPEC_R2)
        q = _point(SPEC_R2, [0.75, 0.0])
        est = chain_energy(SPEC_R2, 2.0, p, q, ChainGrid(max_depth=8))
        assert est.value == pytest.approx(0.75, abs=1e-12)

    def test_second_block_detects_foliation(self):
        # with beta/alpha_2 < 1 subdividing a deeper-block chain only adds
        # cost, so the estimate is gap**(beta/alpha_2) without refinement,
        # cheaper than the first-block cost of the same gap
        p = BlockPoint.zero(SPEC_R2)
        q2 = _point(SPEC_R2, [0.0, 8.0])
        est = chain_energy(SPEC_R2, 2.0, p, q2, ChainGrid(max_depth=12))
        assert est.value == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)
        q1 = _point(SPEC_R2, [8.0, 0.0])
        first = chain_energy(SPEC_R2, 2.0, p, q1, ChainGrid(max_depth=12))
        assert est.value < first.value

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            chain_energy(SPEC_R1, 0.0, BlockPoint.zero(SPEC_R1), BlockPoint.zero(SPEC_R1), ChainGrid())


class TestQsimConstants:
    def test_dilation_has_trivial_k(self):
        rng = np.random.default_rng(3)
        pairs = [
            (BlockPoint(tuple(rng.uniform(-2, 2, n) for n in SPEC_R2.multiplicities)),
             BlockPoint(tuple(rng.uniform(-2, 2, n) for n in SPEC_R2.multiplicities)))
            for _ in range(100)
        ]
        n, k = estimate_qsim_constants(SPEC_R2, lambda p: dilate(SPEC_R2, 2.0, p), pairs)
        assert n == pytest.approx(2.0, rel=1e-12)
        assert k == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_sample_rejected(self):
        p = BlockPoint.zero(SPEC_R1)
        with pytest.raises(InputError):
            estimate_qsim_constants(SPEC_R1, lambda q: q, [(p, p)])


SPEC_NAN = SpectralData((1.0, 2.0), (1, 1))
# SPEC_R3 is also the spec of the boundary_batch benchmark workload
ROW_SPECS = [SPEC_R1, SPEC_R2, SPEC_R3]


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_distance_rejects(self, bad):
        p = _point(SPEC_NAN, [bad, 1.0])
        with pytest.raises(InputError):
            distance(SPEC_NAN, p, BlockPoint.zero(SPEC_NAN))
        with pytest.raises(InputError):
            distance(SPEC_NAN, p, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_row_distance_rejects(self, bad):
        P = np.zeros((5, 2))
        P[3, 1] = bad
        with pytest.raises(InputError):
            distance_rows(SPEC_NAN, P, np.ones((5, 2)))

    def test_chain_energy_rejects(self):
        p = _point(SPEC_NAN, [math.nan, 1.0])
        with pytest.raises(InputError):
            chain_energy(SPEC_NAN, 3.0, p, BlockPoint.zero(SPEC_NAN), ChainGrid())


class TestTinyGaps:
    def test_gap_whose_square_underflows(self):
        # (1.4e-162)^2 is below the smallest subnormal: a plain sum of squares
        # gives distance 0 for two distinct points
        gap = 1.38e-162
        p = _point(SPEC_R3, [0.0, 0.0, 0.0, gap, 0.0])
        want = gap ** (1.0 / 3.5)
        assert distance(SPEC_R3, p, BlockPoint.zero(SPEC_R3)) == pytest.approx(want, rel=1e-15)
        rows = distance_rows(SPEC_R3, p.flat()[None], np.zeros((1, 5)))
        assert rows[0] == pytest.approx(want, rel=1e-15)

    def test_dilation_stays_exact_near_underflow(self):
        p = _point(SPEC_R3, [0.0, 0.0, 0.0, 0.0, 1.5663668947752864e-161])
        q = BlockPoint.zero(SPEC_R3)
        d = distance(SPEC_R3, p, q)
        d2 = distance(SPEC_R3, dilate(SPEC_R3, 0.5, p), dilate(SPEC_R3, 0.5, q))
        assert d2 == pytest.approx(0.5 * d, rel=1e-12)


class TestRowKernels:
    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_distance_rows_match_scalar(self, spec, row_pairs, within_ulps):
        P, Q = row_pairs(spec, np.random.default_rng(5))
        want = [distance(spec, BlockPoint.from_flat(spec, p), BlockPoint.from_flat(spec, q))
                for p, q in zip(P, Q)]
        got = distance_rows(spec, P, Q)
        assert within_ulps(got, want)
        assert np.all(got[::7] == 0.0) and np.all(got[2::7] > 0.0)

    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_dilate_rows_match_scalar(self, spec, row_pairs, within_ulps):
        P, _ = row_pairs(spec, np.random.default_rng(6))
        for t in (0.5, 3.0):
            want = [dilate(spec, t, BlockPoint.from_flat(spec, p)).flat() for p in P]
            assert within_ulps(dilate_rows(spec, t, P), want)

    def test_dilate_rows_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            dilate_rows(SPEC_R1, 0.0, np.zeros((2, 1)))

    @pytest.mark.parametrize("p_shape, q_shape", [((4,), (4,)), ((4, 3), (4, 3)),
                                                  ((1, 4, 5), (1, 4, 5)), ((4, 5), (3, 5))])
    def test_misshaped_rows_rejected(self, p_shape, q_shape):
        with pytest.raises(DimensionMismatch):
            distance_rows(SPEC_R3, np.zeros(p_shape), np.zeros(q_shape))


class TestRowDraws:
    @pytest.mark.parametrize("count, k", [(ROW_BLOCK + 7, 3), (200, 2), (2 * ROW_BLOCK + 1, 2)])
    def test_blocks_equal_the_per_point_loop(self, count, k):
        rows_rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        blocks = list(random_row_blocks(SPEC_R3, rows_rng, count, k, 3.0))
        assert [len(b) for b in blocks][:-1] == [ROW_BLOCK] * (len(blocks) - 1)
        got = np.concatenate(blocks)
        want = [[random_point(SPEC_R3, loop_rng, 3.0).flat() for _ in range(k)] for _ in range(count)]
        assert np.array_equal(got, np.asarray(want))
        # the generators are left in the same state, so later draws agree too
        assert rows_rng.bit_generator.state == loop_rng.bit_generator.state
