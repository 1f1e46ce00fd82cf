"""Block quasi-metric, dilations, and the chain functional against its oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from solvrigid import (
    ChainGrid,
    DimensionMismatch,
    DomainError,
    FirstBlockAffineMap,
    InputError,
    SimMap,
    SpectralData,
    chain_energy,
    dilate,
    distance,
    enumerate_chain_cost,
    estimate_qsim_constants,
    random_row_blocks,
)
from solvrigid import quasimetric
from solvrigid.spectral import ROW_BLOCK
from solvrigid.fixtures import SPEC_R1, SPEC_R2, SPEC_R3

import metric_reference as reference
from metric_reference import random_point


def _point(spec, values):
    """The ``(total_dim,)`` point of the first total_dim values."""
    return np.array(values[: spec.total_dim], dtype=float)


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

    @pytest.mark.parametrize("mults", [(1.5,), (True, 2.9), (math.nan,), (math.inf,)])
    def test_rejects_non_integral_multiplicities(self, mults):
        # int() would truncate 1.5 to 1 and 2.9 to 2
        with pytest.raises(InputError):
            SpectralData((1.0, 2.0)[: len(mults)], mults)

    def test_integral_multiplicities_of_any_number_type(self):
        spec = SpectralData((1, 2.5), (True, 2.0))
        assert spec.exponents == (1.0, 2.5) and spec.multiplicities == (1, 2)
        assert all(type(n) is int for n in spec.multiplicities)

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


def _dilated_rounding(spec, a, b, t):
    """Relative error of the dilated distance that rounding alone can cause.

    Each dilated coordinate is rounded before the subtraction, which costs up
    to 2^-52 max|coordinate| per coordinate of the gap, or 2^-1074 where the
    product is subnormal. Relative to the gap that is eps_i in block i; the
    1/alpha_i power turns it into eps_i / alpha_i to first order, and into
    1 - (1 - eps_i)^(1/alpha_i) in general.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    worst = 0.0
    for alpha, s in zip(spec.exponents, spec.block_slices()):
        # math.hypot, since the square of a subnormal gap underflows
        gap = math.hypot(*(a[s] - b[s]))
        if gap == 0.0:
            continue  # equal coordinates stay equal
        scale = math.hypot(*np.maximum(np.abs(a[s]), np.abs(b[s])))
        floor = math.sqrt(s.stop - s.start) * 2.0**-1074 / gap / t**alpha
        eps = 2.0**-52 * scale / gap + floor
        worst = max(worst, 1.0 if eps >= 1.0 else -math.expm1(math.log1p(-eps) / alpha))
    return worst


class TestDilate:
    @given(coords, coords, st.floats(min_value=0.1, max_value=10.0))
    # the gap is 1e-9 of the coordinates: the dilated distance is off by 9.5e-9 relative
    @example([0, 0, 0, 1.1754943508222875e-38, 0, 0, 0], [0, 0, 0, 1.175494351e-38, 0, 0, 0], 2.0)
    # a subnormal gap that the dilation rounds to 0
    @example([0, 0, 5e-324, 0, 0, 0, 0], [0.0] * 7, 0.1)
    @settings(max_examples=200, deadline=None)
    def test_exact_similarity(self, a, b, t):
        p, q = _point(SPEC_R3, a), _point(SPEC_R3, b)
        d = distance(SPEC_R3, p, q)
        d2 = distance(SPEC_R3, dilate(SPEC_R3, t, p), dilate(SPEC_R3, t, q))
        rel = 1e-12 + _dilated_rounding(SPEC_R3, a, b, t)
        assert d2 == pytest.approx(t * d, rel=rel, abs=1e-300)

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            dilate(SPEC_R1, 0.0, np.zeros(1))

    @pytest.mark.parametrize("t", ["x", [2.0, 3.0], 10**400], ids=["text", "array", "huge-int"])
    def test_rejects_a_parameter_that_is_not_one_number(self, t):
        with pytest.raises(InputError):
            dilate(SPEC_R1, t, np.zeros(1))

    def test_group_property(self):
        p = _point(SPEC_R2, [1.3, -0.7])
        once = dilate(SPEC_R2, 6.0, p)
        twice = dilate(SPEC_R2, 2.0, dilate(SPEC_R2, 3.0, p))
        assert np.allclose(once, twice, rtol=1e-12, atol=0.0)


class TestChainEnergy:
    def test_matches_brute_force_oracle_per_round(self):
        # a single-block move subdivided k times is exactly the k-step
        # interleaved chain the oracle materializes
        p = np.zeros(2)
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

    def test_oracle_chain_equals_the_per_step_loop(self, count_calls):
        def per_step(spec, beta, p, q, k):
            # the loop that one distance call on the chain's rows replaced
            cost, current = 0.0, list(p.blocks)
            for i in range(spec.r):
                for j in range(1, k + 1):
                    nxt = list(current)
                    nxt[i] = p.blocks[i] + (j / k) * (q.blocks[i] - p.blocks[i])
                    cost += distance(spec, np.concatenate(current), np.concatenate(nxt)) ** beta
                    current = nxt
            return cost

        rng = np.random.default_rng(12)
        calls = count_calls(quasimetric, name="distance")
        for k in (0, 1, 3, 7):
            p, q = random_point(SPEC_R3, rng, 3.0), random_point(SPEC_R3, rng, 3.0)
            got = enumerate_chain_cost(SPEC_R3, 2.5, p.flat(), q.flat(), k)
            assert got == per_step(SPEC_R3, 2.5, p, q, k)
        assert len(calls) == 4  # one per chain

    def test_cost_beyond_float_range_reads_inf(self):
        # (1e300)^3 raised builtins OverflowError in both, and chain_energy
        # printed numpy's vecdot overflow warning for the gap's square
        spec = SpectralData((1.0,), (1,))
        p, q = np.zeros(1), np.array([1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert enumerate_chain_cost(spec, 3.0, p, q, 1) == math.inf
            est = chain_energy(spec, 3.0, p, q, ChainGrid(max_depth=3))
        assert (est.value, est.last_decrement, est.rounds) == (math.inf, 0.0, 3)

    def test_rows_rejected(self):
        rows = np.zeros((3, 2))
        with pytest.raises(DimensionMismatch):
            chain_energy(SPEC_R2, 2.0, rows, rows + 1.0, ChainGrid())

    def test_supercritical_decays_with_depth(self):
        p = np.zeros(2)
        q = _point(SPEC_R2, [1.0, 0.0])
        shallow = chain_energy(SPEC_R2, 3.0, p, q, ChainGrid(max_depth=3))
        deep = chain_energy(SPEC_R2, 3.0, p, q, ChainGrid(max_depth=10))
        assert deep.value < shallow.value

    def test_critical_beta_is_flat(self):
        # beta = alpha_1 makes each first-block chain cost exactly the gap
        p = np.zeros(2)
        q = _point(SPEC_R2, [0.75, 0.0])
        est = chain_energy(SPEC_R2, 2.0, p, q, ChainGrid(max_depth=8))
        assert est.value == pytest.approx(0.75, abs=1e-12)

    def test_second_block_detects_foliation(self):
        # with beta/alpha_2 < 1 subdividing a deeper-block chain only adds
        # cost, so the estimate is gap**(beta/alpha_2) without refinement,
        # cheaper than the first-block cost of the same gap
        p = np.zeros(2)
        q2 = _point(SPEC_R2, [0.0, 8.0])
        est = chain_energy(SPEC_R2, 2.0, p, q2, ChainGrid(max_depth=12))
        assert est.value == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)
        q1 = _point(SPEC_R2, [8.0, 0.0])
        first = chain_energy(SPEC_R2, 2.0, p, q1, ChainGrid(max_depth=12))
        assert est.value < first.value

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            chain_energy(SPEC_R1, 0.0, np.zeros(1), np.zeros(1), ChainGrid())

    def test_exit_says_whether_it_converged(self):
        p = np.zeros(2)
        # beta = alpha_1: the second round lowers nothing
        flat = chain_energy(SPEC_R2, 2.0, p, _point(SPEC_R2, [0.75, 0.0]), ChainGrid(max_depth=8))
        assert (flat.exit, flat.rounds, flat.last_decrement) == ("converged", 2, 0.0)
        # the metric suite's estimate at the default config: still falling after 12 rounds
        est = chain_energy(SPEC_R2, 3.0, p, _point(SPEC_R2, [1.0, 0.0]),
                           ChainGrid(resolution=16, max_depth=12))
        assert (est.exit, est.rounds) == ("max_depth", 12)
        assert est.last_decrement == pytest.approx(2.29e-3, rel=1e-2)


class TestQsimConstants:
    def test_dilation_has_trivial_k(self):
        rng = np.random.default_rng(3)
        pairs = rng.uniform(-2, 2, (100, 2, SPEC_R2.total_dim))
        n, k = estimate_qsim_constants(SPEC_R2, SimMap(SPEC_R2, 2.0), pairs)
        assert n == pytest.approx(2.0, rel=1e-12)
        assert k == pytest.approx(1.0, rel=1e-12)

    def test_constant_component_is_shared_by_the_rows(self):
        rng = np.random.default_rng(6)
        pairs = rng.uniform(-2, 2, (50, 2, SPEC_R2.total_dim))
        collapse = FirstBlockAffineMap(SPEC_R2, 1.0, lambda y: [np.ones(1)])
        images = [[collapse(reference.from_flat(SPEC_R2, x)).flat() for x in pair]
                  for pair in pairs]
        logs = np.log([distance(SPEC_R2, *image) / distance(SPEC_R2, *pair)
                       for image, pair in zip(images, pairs)])
        n, k = estimate_qsim_constants(SPEC_R2, collapse, pairs)
        assert n == float(np.exp(logs.mean()))
        assert k == max(float(np.exp(np.abs(logs - logs.mean()).max())), 1.0)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(InputError):
            estimate_qsim_constants(SPEC_R1, SimMap(SPEC_R1, 1.0), np.zeros((1, 2, 1)))


SPEC_NAN = SpectralData((1.0, 2.0), (1, 1))
# SPEC_R3 is also the spec of the boundary_batch benchmark workload
ROW_SPECS = [SPEC_R1, SPEC_R2, SPEC_R3]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_distance_rejects(self, bad):
        p = _point(SPEC_NAN, [bad, 1.0])
        with pytest.raises(InputError):
            distance(SPEC_NAN, p, np.zeros(2))
        with pytest.raises(InputError):
            distance(SPEC_NAN, p, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_row_distance_rejects(self, bad):
        P = np.zeros((5, 2))
        P[3, 1] = bad
        with pytest.raises(InputError):
            distance(SPEC_NAN, P, np.ones((5, 2)))

    def test_scalar_distance_beyond_float_range_is_inf_as_in_rows(self):
        # 3^1000 leaves the float range: the scalar path raised OverflowError
        spec = SpectralData((1e-3,), (1,))
        p, q = _point(spec, [0.0]), _point(spec, [3.0])
        rows = distance(spec, p[None], q[None])
        assert distance(spec, p, q) == rows[0] == math.inf

    def test_scalar_gap_beyond_float_range_rejects_without_warning(self):
        # the subtraction overflows; numpy's warning came before the InputError
        spec = SpectralData((1.0,), (1,))
        with pytest.raises(InputError):
            distance(spec, _point(spec, [1e308]), _point(spec, [-1e308]))

    def test_chain_energy_rejects(self):
        p = _point(SPEC_NAN, [math.nan, 1.0])
        with pytest.raises(InputError):
            chain_energy(SPEC_NAN, 3.0, p, np.zeros(2), ChainGrid())


class TestTinyGaps:
    def test_gap_whose_square_underflows(self):
        # (1.4e-162)^2 is below the smallest subnormal: a plain sum of squares
        # gives distance 0 for two distinct points
        gap = 1.38e-162
        p = _point(SPEC_R3, [0.0, 0.0, 0.0, gap, 0.0])
        want = gap ** (1.0 / 3.5)
        assert distance(SPEC_R3, p, np.zeros(5)) == pytest.approx(want, rel=1e-15)
        rows = distance(SPEC_R3, p[None], np.zeros((1, 5)))
        assert rows[0] == pytest.approx(want, rel=1e-15)

    def test_dilation_stays_exact_near_underflow(self):
        p = _point(SPEC_R3, [0.0, 0.0, 0.0, 0.0, 1.5663668947752864e-161])
        q = np.zeros(5)
        d = distance(SPEC_R3, p, q)
        d2 = distance(SPEC_R3, dilate(SPEC_R3, 0.5, p), dilate(SPEC_R3, 0.5, q))
        assert d2 == pytest.approx(0.5 * d, rel=1e-12)


class TestRowKernels:
    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_distance_equals_the_reference(self, spec, row_pairs):
        P, Q = row_pairs(spec, np.random.default_rng(5))
        want = [reference.distance(spec, reference.from_flat(spec, p), reference.from_flat(spec, q))
                for p, q in zip(P, Q)]
        got = distance(spec, P, Q)
        assert np.array_equal(got, want)
        assert [distance(spec, p, q) for p, q in zip(P, Q)] == want
        assert np.all(got[::7] == 0.0) and np.all(got[2::7] > 0.0)

    @pytest.mark.parametrize("spec", ROW_SPECS)
    def test_dilate_equals_the_reference(self, spec, row_pairs):
        P, _ = row_pairs(spec, np.random.default_rng(6))
        for t in (0.5, 3.0):
            want = np.array([reference.dilate(spec, t, reference.from_flat(spec, p)).flat()
                             for p in P])
            assert np.array_equal(dilate(spec, t, P), want)
            assert np.array_equal([dilate(spec, t, p) for p in P], want)

    def test_dilate_rows_rejects_nonpositive_parameter(self):
        with pytest.raises(DomainError):
            dilate(SPEC_R1, 0.0, np.zeros((2, 1)))

    @pytest.mark.parametrize("p_shape, q_shape", [((4,), (4,)), ((4, 3), (4, 3)),
                                                  ((1, 4, 5), (1, 4, 5)), ((4, 5), (3, 5)),
                                                  ((5,), (1, 5))])
    def test_misshaped_rows_rejected(self, p_shape, q_shape):
        with pytest.raises(DimensionMismatch):
            distance(SPEC_R3, np.zeros(p_shape), np.zeros(q_shape))


# block entries: zeros, subnormals, 1e+-300, and magnitudes whose squares or
# differences are beyond float range
gap_entries = st.builds(
    lambda m, sign: sign * m,
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-160, 1.0, 1e154, 1e300, 1.7e308])
    | st.floats(0.0, 10.0),
    st.sampled_from([1.0, -1.0]),
)


@st.composite
def unit_specs(draw):
    """A spec with a block of exponent 1, and blocks of one to three entries."""
    exps = sorted({1.0, *draw(st.lists(st.sampled_from([0.5, 2.0, 3.5]) | st.floats(0.25, 4.0),
                                       max_size=2))})
    return SpectralData(tuple(exps), tuple(draw(st.integers(1, 3)) for _ in exps))


def _outcome(fn):
    """The bits of fn()'s float or floats, or the InputError it raises."""
    try:
        return np.asarray(fn(), float).tobytes()
    except InputError:
        return "InputError"


class TestMetricShortcuts:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_distance_equals_the_general_formula(self, data):
        # a block of exponent 1 skips pow: that must keep every bit, one point
        # and rows alike
        spec = data.draw(unit_specs())
        shape = (data.draw(st.integers(0, 4)), spec.total_dim)
        P, Q = (data.draw(hnp.arrays(float, shape, elements=gap_entries)) for _ in range(2))
        assert _outcome(lambda: distance(spec, P, Q)) == _outcome(
            lambda: reference.row_distance(spec, P, Q))
        for p, q in zip(P, Q):
            assert _outcome(lambda: distance(spec, p, q)) == _outcome(
                lambda: reference.row_distance(spec, p[None], q[None]))


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
