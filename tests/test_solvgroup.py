"""Solvable model space: group law, level metrics, geodesics, and the
boundary correspondence."""

import math
from decimal import Decimal

import numpy as np
import pytest

from solvrigid import (
    DimensionMismatch,
    DomainError,
    InputError,
    SimMap,
    SolvPoint,
    SolvSpec,
    SpectralData,
    boundary_of_height_isometry,
    distance,
    inverse,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
    random_row_blocks,
)
from solvrigid import solvgroup
from solvrigid.fixtures import SPEC_R1, SPEC_R2, SPEC_R3

import metric_reference as reference
from metric_reference import isclose, random_point

RNG = np.random.default_rng(9)


def level_distance(spec, t, p, q):
    """The level distance that pair_to_point_bisect steers by: ``_level_distance`` on
    ``_level_gaps``, a float for one point each and an ``(N,)`` array for rows."""
    t = np.asarray(t, dtype=float)
    d = solvgroup._level_distance(t, *solvgroup._level_gaps(spec, t, p, q))
    return float(d) if d.ndim == 0 else d
PURE = SolvSpec(lower=SPEC_R2)
MIXED = SolvSpec(lower=SPEC_R2, upper=SPEC_R2)
BATCH = SolvSpec(lower=SpectralData((1.0, 2.0, 3.5), (2, 1, 2)))  # the boundary_batch spec


def _solv_point(spec, h=None):
    return SolvPoint(
        height=float(RNG.uniform(-1.5, 1.5)) if h is None else h,
        x=random_point(spec.lower, RNG).flat() if spec.lower else None,
        z=random_point(spec.upper, RNG).flat() if spec.upper else None,
    )


class TestGroupLaw:
    def test_spec_requires_a_factor(self):
        with pytest.raises(InputError):
            SolvSpec(lower=None, upper=None)

    def test_identity_and_inverse(self):
        e = SolvPoint(0.0, np.zeros(MIXED.lower.total_dim), np.zeros(MIXED.upper.total_dim))
        for _ in range(30):
            g = _solv_point(MIXED)
            assert multiply(MIXED, g, e).height == pytest.approx(g.height)
            left = multiply(MIXED, inverse(MIXED, g), g)
            assert left.height == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(left.x, 0.0, atol=1e-12)
            assert np.allclose(left.z, 0.0, atol=1e-12)

    def test_associativity(self):
        for _ in range(30):
            g, h, k = _solv_point(MIXED), _solv_point(MIXED), _solv_point(MIXED)
            a = multiply(MIXED, multiply(MIXED, g, h), k)
            b = multiply(MIXED, g, multiply(MIXED, h, k))
            assert a.height == pytest.approx(b.height, abs=1e-12)
            assert np.allclose(a.x, b.x, atol=1e-12)
            assert np.allclose(a.z, b.z, atol=1e-12)


def _solv_rows(spec, rng, n):
    """n points as rows: heights in +-30, coordinates in +-3."""
    def coords(data):
        return None if data is None else rng.uniform(-3, 3, (n, data.total_dim))

    return SolvPoint(rng.uniform(-30, 30, n), coords(spec.lower), coords(spec.upper))


def _row(rows, i):
    """Row i of ``rows`` as one point."""
    return SolvPoint(float(rows.height[i]),
                     *(None if c is None else c[i] for c in (rows.x, rows.z)))


def _blocks(spec, p):
    """The one point p with BlockPoint coordinates, as the reference takes it."""
    return SolvPoint(p.height, *(None if d is None else reference.from_flat(d, c)
                                 for d, c in ((spec.lower, p.x), (spec.upper, p.z))))


def _flat(p):
    return [None if c is None else c.flat() for c in (p.x, p.z)]


class TestGroupLawRows:
    @pytest.mark.parametrize("spec", [PURE, MIXED, BATCH], ids=["pure", "mixed", "batch"])
    def test_rows_equal_the_per_point_loop(self, spec):
        rng = np.random.default_rng(5)
        g, h = _solv_rows(spec, rng, 1000), _solv_rows(spec, rng, 1000)
        product, inv = multiply(spec, g, h), inverse(spec, g)
        for i in range(1000):
            gi, hi = _row(g, i), _row(h, i)
            bg, bh = _blocks(spec, gi), _blocks(spec, hi)
            for rows, one, ref in (
                (product, multiply(spec, gi, hi), reference.multiply(spec, bg, bh)),
                (inv, inverse(spec, gi), reference.inverse(spec, bg)),
            ):
                assert rows.height[i] == one.height == ref.height
                assert all(c is None or c.ndim == 1 for c in (one.x, one.z))
                for got, want, row in zip((one.x, one.z), _flat(ref), (rows.x, rows.z)):
                    assert (got is None) == (want is None) == (row is None)
                    if got is not None:
                        assert np.array_equal(got, want) and np.array_equal(row[i], want)

    def test_arrays_for_one_point(self):
        g = _solv_point(MIXED)
        blocks = _blocks(MIXED, g)
        for got, want in ((multiply(MIXED, g, g), reference.multiply(MIXED, blocks, blocks)),
                          (inverse(MIXED, g), reference.inverse(MIXED, blocks))):
            assert got.height == want.height
            assert all(np.array_equal(a, b) for a, b in zip((got.x, got.z), _flat(want)))

    def test_one_point_is_not_shared_by_rows(self):
        # rows and one point are rejected, as distance rejects them
        rows = _solv_rows(PURE, np.random.default_rng(1), 4)
        with pytest.raises(DimensionMismatch):
            multiply(PURE, rows, _row(rows, 0))
        with pytest.raises(DimensionMismatch):
            multiply(PURE, SolvPoint(rows.height[:3], rows.x), SolvPoint(rows.height[:3], rows.x))
        with pytest.raises(DimensionMismatch):
            inverse(PURE, SolvPoint(0.5, rows.x))
        with pytest.raises(DimensionMismatch):
            inverse(MIXED, SolvPoint(rows.height, rows.x, rows.x[:3]))
        with pytest.raises(DimensionMismatch):
            inverse(PURE, SolvPoint(rows.height, rows.x[:, :1]))

    def test_factor_beyond_float_range(self):
        # e^(400 * 2) is beyond float range: math.exp raised OverflowError
        p = SolvPoint(400.0, np.zeros(2))
        with pytest.raises(DomainError):
            multiply(PURE, p, p)
        with pytest.raises(DomainError):
            inverse(PURE, SolvPoint(-400.0, p.x))
        rows = SolvPoint(np.array([0.0, 400.0]), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            multiply(PURE, rows, rows)
        with pytest.raises(DomainError):
            inverse(PURE, SolvPoint(-rows.height, rows.x))

    def test_product_beyond_float_range(self):
        p = SolvPoint(300.0, np.array([1e300, 0.0]))
        with pytest.raises(DomainError):
            multiply(PURE, p, p)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN height gave NaN coordinates
        p = _solv_point(MIXED)
        for q in (SolvPoint(bad, p.x, p.z), SolvPoint(p.height, p.x * bad, p.z)):
            with pytest.raises(InputError):
                multiply(MIXED, p, q)
            with pytest.raises(InputError):
                inverse(MIXED, q)
        rows = _solv_rows(PURE, np.random.default_rng(2), 3)
        rows.height[1] = bad
        with pytest.raises(InputError):
            inverse(PURE, rows)

    def test_missing_factor_rejected(self):
        with pytest.raises(InputError):
            inverse(MIXED, SolvPoint(0.0, np.zeros(2)))


class TestLevelDistance:
    def test_lower_contracts_upper_expands(self):
        p = _solv_point(MIXED, 0.0)
        q = _solv_point(MIXED, 0.0)
        d0 = level_distance(MIXED, 0.0, p, q)
        # lower-only pair contracts going up, expands going down
        pl = (p.x, None)
        ql = (q.x, None)
        assert level_distance(PURE, 2.0, pl, ql) < level_distance(PURE, 0.0, pl, ql)
        assert level_distance(PURE, -2.0, pl, ql) > level_distance(PURE, 0.0, pl, ql)
        assert d0 >= 0.0

    def test_non_finite_coordinate_rejected(self):
        # np.linalg.norm of a NaN gap read 0.0: the block was dropped
        p = np.array([math.nan, 1.0])
        with pytest.raises(InputError):
            level_distance(PURE, 0.0, (p, None), (np.zeros(2), None))

    def test_gap_whose_square_underflows(self):
        # (1e-170)^2 underflows to 0, and np.linalg.norm read the gap as 0
        p = np.array([1e-170, 0.0])
        q = np.zeros(2)
        assert level_distance(PURE, 0.0, (p, None), (q, None)) == 1e-170
        assert distance(SPEC_R2, p, q) == 1e-170 ** 0.5

    def test_beyond_float_range_reads_inf(self):
        # e^1000 is beyond float range: math.exp raised OverflowError
        solv = SolvSpec(lower=SpectralData((1.0,), (1,)))
        one, zero = np.ones(1), np.zeros(1)
        assert level_distance(solv, -1000.0, (one, None), (zero, None)) == math.inf
        assert level_distance(solv, -1000.0, (one, None), (one, None)) == 0.0

    def test_factor_beyond_float_range_on_a_tiny_gap(self):
        # e^800 is beyond float range, e^800 * 1e-300 = 2.7e47 is not: this read inf
        solv = SolvSpec(lower=SpectralData((1.0,), (1,)))
        gap, zero = np.array([1e-300]), np.zeros(1)
        want = float(Decimal(1e-300) * Decimal(800).exp())
        assert level_distance(solv, -800.0, (gap, None), (zero, None)) == pytest.approx(
            want, rel=1e-12, abs=0)


class TestLevelDistanceRows:
    @pytest.mark.parametrize("spec", [PURE, MIXED, BATCH, SolvSpec(lower=None, upper=SPEC_R3)])
    def test_rows_equal_the_one_point_calls(self, spec):
        rng = np.random.default_rng(21)
        n = 300

        def rows(data):
            if data is None:
                return None
            return rng.uniform(-3, 3, (n, data.total_dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))

        p, q = (rows(spec.lower), rows(spec.upper)), (rows(spec.lower), rows(spec.upper))
        p[0 if spec.lower else 1][::7] = q[0 if spec.lower else 1][::7]  # no gap in that factor

        def row(pair, i):
            return tuple(None if a is None else a[i] for a in pair)

        for t in (0.7, rng.uniform(-30, 30, n)):
            heights = np.broadcast_to(t, n).tolist()
            got = level_distance(spec, t, p, q)
            want = [level_distance(spec, h, row(p, i), row(q, i)) for i, h in enumerate(heights)]
            assert got.shape == (n,) and np.array_equal(got, want)
            assert want == [reference.level_distance(spec, h, row(p, i), row(q, i))
                            for i, h in enumerate(heights)]

    def test_far_range_rows_equal_the_one_point_calls(self):
        # the e^800, e^-800 and e^1000 factors of TestLevelDistance, as rows
        solv = SolvSpec(lower=SpectralData((1.0,), (1,)))
        x = np.array([[1e-300], [1.0], [1.0], [1e300], [0.5]])
        y = np.array([[0.0], [0.0], [1.0], [0.0], [0.0]])
        heights = np.array([-800.0, -1000.0, -1000.0, 800.0, 0.0])
        for t in (heights, -800.0, 800.0):
            got = level_distance(solv, t, (x, None), (y, None))
            want = [level_distance(solv, h, (a, None), (b, None))
                    for h, a, b in zip(np.broadcast_to(t, 5).tolist(), x, y)]
            assert np.array_equal(got, want)
            assert want == [reference.level_distance(solv, h, (a, None), (b, None))
                            for h, a, b in zip(np.broadcast_to(t, 5).tolist(), x, y)]
        got = level_distance(solv, heights, (x, None), (y, None))
        assert got[1] == math.inf and got[2] == 0.0 and 0.0 < got[3] < 1e-40

    def test_heights_unlike_the_rows_rejected(self):
        x, y = np.zeros((3, 2)), np.ones((3, 2))
        for t in (np.zeros(2), np.zeros((3, 1))):
            with pytest.raises(DimensionMismatch):
                level_distance(PURE, t, (x, None), (y, None))
        with pytest.raises(DimensionMismatch):  # one point at three heights
            level_distance(PURE, np.zeros(3), (x[0], None), (y[0], None))
        with pytest.raises(DimensionMismatch):  # lower rows with an upper point
            level_distance(MIXED, 0.0, (x, x[0]), (y, y[0]))


class TestPairToPoint:
    def test_height_is_log_distance(self):
        for _ in range(50):
            p, q = random_point(SPEC_R2, RNG, 3.0).flat(), random_point(SPEC_R2, RNG, 3.0).flat()
            d = distance(SPEC_R2, p, q)
            if d == 0.0:
                continue
            t = pair_to_point(PURE, p, q)
            assert math.exp(t) == pytest.approx(d, rel=1e-12)

    def test_agrees_with_bisection_oracle(self):
        pairs = next(random_row_blocks(SPEC_R2, RNG, 20, 2, 3.0))
        pairs = pairs[distance(SPEC_R2, pairs[:, 0], pairs[:, 1]) != 0.0]
        heights = pair_to_point_bisect(PURE, pairs[:, 0], pairs[:, 1])
        for (p, q), bisected in zip(pairs, heights):
            closed = pair_to_point(PURE, p, q)
            assert closed == pytest.approx(bisected, abs=1e-9)

    def test_coincident_points_rejected(self):
        p = random_point(SPEC_R2, RNG).flat()
        with pytest.raises(DomainError):
            pair_to_point(PURE, p, p)

    def test_requires_pure_case(self):
        p, q = random_point(SPEC_R2, RNG).flat(), random_point(SPEC_R2, RNG).flat()
        with pytest.raises(InputError):
            pair_to_point(MIXED, p, q)

    @pytest.mark.parametrize("spec", [SPEC_R1, SPEC_R2, SPEC_R3])
    def test_heights_match_scalar(self, spec, row_pairs):
        solv = SolvSpec(lower=spec)
        P, Q = row_pairs(spec, np.random.default_rng(8), rows=14_000)
        keep = np.any(P != Q, axis=1)  # coincident pairs have no height
        P, Q = P[keep], Q[keep]
        # the reference takes libm's log of each pair, np.log is within one ulp of it
        want = np.array([reference.pair_to_point(solv, reference.from_flat(spec, p),
                                                  reference.from_flat(spec, q))
                         for p, q in zip(P, Q)])
        assert len(want) >= 10_000
        got = pair_to_point(solv, P, Q)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
        assert [pair_to_point(solv, p, q) for p, q in zip(P, Q)] == got.tolist()

    def test_heights_reject_coincident_rows_and_mixed_spec(self):
        P = RNG.uniform(-1, 1, (3, 2))
        Q = P.copy()
        Q[0] += 1.0
        with pytest.raises(DomainError):
            pair_to_point(PURE, P, Q)
        with pytest.raises(InputError):
            pair_to_point(MIXED, P, Q + 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        # (nan, 1) and 0 used to give height 0.0: the NaN block was dropped
        p = np.array([bad, 1.0])
        with pytest.raises(InputError):
            pair_to_point(PURE, p, np.zeros(2))
        P = np.zeros((4, 2))
        P[2, 0] = bad
        with pytest.raises(InputError):
            pair_to_point(PURE, P, np.ones((4, 2)))

    def test_bisection_level_factor_beyond_float_range(self):
        # log D is -203.9, so e^(-t alpha_2) at the bracket's low end t = -204.9
        # is e^717, beyond float range, while its product with the 1e-310 gap is
        # not: math.exp raised OverflowError, and then the bisection DomainError
        solv = SolvSpec(lower=SpectralData((1.0, 3.5), (1, 1)))
        P = np.zeros((3, 2))
        Q = np.array([[1e-310, 1e-310], [0.0, 1e-310], [1.0, 0.5]])
        heights = pair_to_point_bisect(solv, P, Q)
        assert heights[0] == pytest.approx(-203.9, abs=0.1)
        assert np.allclose(heights, pair_to_point(solv, P, Q), rtol=0, atol=1e-9)

    def test_bisection_takes_rows_only(self):
        with pytest.raises(DimensionMismatch):
            pair_to_point_bisect(PURE, np.zeros(2), np.ones(2))


class TestBoundaryCorrespondence:
    def test_height_isometry_boundary_is_exact_dilation(self):
        for a in (-1.0, 0.0, 0.7, 2.0):
            bd = boundary_of_height_isometry(PURE, a)
            assert isinstance(bd, SimMap)
            assert bd.stretch == math.exp(a)
            assert all(np.allclose(r, np.eye(r.shape[0])) for r in bd.rotations)

    def test_composition_law(self):
        for _ in range(30):
            a, b = RNG.uniform(-1.5, 1.5, 2)
            lhs = boundary_of_height_isometry(PURE, a).compose(boundary_of_height_isometry(PURE, b))
            rhs = boundary_of_height_isometry(PURE, a + b)
            p = random_point(SPEC_R2, RNG, 2.0)
            assert isclose(lhs(p), rhs(p), atol=1e-12)

    def test_composition_law_on_stacks(self):
        # one stack per side for 30 samples, each member the one-sample dilation
        a, b = RNG.uniform(-1.5, 1.5, (2, 30))
        lhs = boundary_of_height_isometry(PURE, a).compose(boundary_of_height_isometry(PURE, b))
        rhs = boundary_of_height_isometry(PURE, a + b)
        assert lhs.stretch.shape == (30,) and np.allclose(lhs.stretch, rhs.stretch, rtol=1e-14)
        assert rhs.stretch.tolist() == [math.exp(h) for h in (a + b).tolist()]

    @pytest.mark.parametrize("height, error", [
        (1000.0, DomainError), (-1000.0, DomainError), (math.nan, InputError),
        (math.inf, InputError), (-math.inf, InputError),
        ([0.5, 1000.0], DomainError), ([0.5, math.nan], InputError), ([[0.5]], DimensionMismatch),
    ])
    def test_heights_beyond_range_or_non_finite_rejected(self, height, error):
        # e^1000 raised builtins OverflowError, and a NaN height DomainError
        with pytest.raises(error):
            boundary_of_height_isometry(PURE, height)
