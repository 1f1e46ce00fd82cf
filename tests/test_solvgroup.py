"""Solvable model space: group law, level metrics, geodesics, and the
boundary correspondence."""

import math

import numpy as np
import pytest

from solvrigid import (
    BlockPoint,
    DomainError,
    InputError,
    SimMap,
    SolvPoint,
    SolvSpec,
    VerticalGeodesic,
    boundary_of_height_isometry,
    distance,
    identity_point,
    inverse,
    level_distance,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
    pair_to_point_heights,
    random_point,
    suspend_boundary_map,
)
from solvrigid.fixtures import SPEC_R1, SPEC_R2, SPEC_R3

RNG = np.random.default_rng(9)
PURE = SolvSpec(lower=SPEC_R2)
MIXED = SolvSpec(lower=SPEC_R2, upper=SPEC_R2)


def _solv_point(spec, h=None):
    return SolvPoint(
        height=float(RNG.uniform(-1.5, 1.5)) if h is None else h,
        x=random_point(spec.lower, RNG) if spec.lower else None,
        z=random_point(spec.upper, RNG) if spec.upper else None,
    )


class TestGroupLaw:
    def test_spec_requires_a_factor(self):
        with pytest.raises(InputError):
            SolvSpec(lower=None, upper=None)

    def test_identity_and_inverse(self):
        e = identity_point(MIXED)
        for _ in range(30):
            g = _solv_point(MIXED)
            assert multiply(MIXED, g, e).height == pytest.approx(g.height)
            left = multiply(MIXED, inverse(MIXED, g), g)
            assert left.height == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(left.x.flat(), 0.0, atol=1e-12)
            assert np.allclose(left.z.flat(), 0.0, atol=1e-12)

    def test_associativity(self):
        for _ in range(30):
            g, h, k = _solv_point(MIXED), _solv_point(MIXED), _solv_point(MIXED)
            a = multiply(MIXED, multiply(MIXED, g, h), k)
            b = multiply(MIXED, g, multiply(MIXED, h, k))
            assert a.height == pytest.approx(b.height, abs=1e-12)
            assert np.allclose(a.x.flat(), b.x.flat(), atol=1e-12)
            assert np.allclose(a.z.flat(), b.z.flat(), atol=1e-12)

    def test_json_round_trip(self):
        again = SolvSpec.from_json(MIXED.to_json())
        assert again == MIXED


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


class TestPairToPoint:
    def test_height_is_log_distance(self):
        for _ in range(50):
            p, q = random_point(SPEC_R2, RNG, 3.0), random_point(SPEC_R2, RNG, 3.0)
            d = distance(SPEC_R2, p, q)
            if d == 0.0:
                continue
            o = pair_to_point(PURE, p, q)
            assert math.exp(o.height) == pytest.approx(d, rel=1e-12)
            assert o.x is p

    def test_agrees_with_bisection_oracle(self):
        for _ in range(20):
            p, q = random_point(SPEC_R2, RNG, 3.0), random_point(SPEC_R2, RNG, 3.0)
            if distance(SPEC_R2, p, q) == 0.0:
                continue
            closed = pair_to_point(PURE, p, q).height
            assert closed == pytest.approx(pair_to_point_bisect(PURE, p, q), abs=1e-9)

    def test_coincident_points_rejected(self):
        p = random_point(SPEC_R2, RNG)
        with pytest.raises(DomainError):
            pair_to_point(PURE, p, p)

    def test_requires_pure_case(self):
        p, q = random_point(SPEC_R2, RNG), random_point(SPEC_R2, RNG)
        with pytest.raises(InputError):
            pair_to_point(MIXED, p, q)

    @pytest.mark.parametrize("spec", [SPEC_R1, SPEC_R2, SPEC_R3])
    def test_heights_match_scalar(self, spec, row_pairs, within_ulps):
        solv = SolvSpec(lower=spec)
        P, Q = row_pairs(spec, np.random.default_rng(8), rows=14_000)
        keep = np.any(P != Q, axis=1)  # coincident pairs have no height
        P, Q = P[keep], Q[keep]
        want = [pair_to_point(solv, BlockPoint.from_flat(spec, p), BlockPoint.from_flat(spec, q)).height
                for p, q in zip(P, Q)]
        assert len(want) >= 10_000
        assert within_ulps(pair_to_point_heights(solv, P, Q), want)

    def test_heights_reject_coincident_rows_and_mixed_spec(self):
        P = RNG.uniform(-1, 1, (3, 2))
        Q = P.copy()
        Q[0] += 1.0
        with pytest.raises(DomainError):
            pair_to_point_heights(PURE, P, Q)
        with pytest.raises(InputError):
            pair_to_point_heights(MIXED, P, Q + 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        # (nan, 1) and 0 used to give height 0.0: the NaN block was dropped
        p = BlockPoint((np.array([bad]), np.array([1.0])))
        with pytest.raises(InputError):
            pair_to_point(PURE, p, BlockPoint.zero(SPEC_R2))
        P = np.zeros((4, 2))
        P[2, 0] = bad
        with pytest.raises(InputError):
            pair_to_point_heights(PURE, P, np.ones((4, 2)))


class TestVerticalGeodesic:
    def test_orientation_validation(self):
        with pytest.raises(InputError):
            VerticalGeodesic(anchor=(BlockPoint.zero(SPEC_R2), None), orientation="sideways")

    def test_downward_points_decrease_height(self):
        geo = VerticalGeodesic(anchor=(BlockPoint.zero(SPEC_R2), None))
        assert geo.point_at(2.0).height == -2.0
        rows = geo.sample_csv_rows([0.0, 1.0])
        assert rows[0][0] == 0.0 and rows[1][0] == -1.0


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
            assert lhs(p).isclose(rhs(p), atol=1e-12)

    def test_suspension_accepts_triangular_and_shifts_height(self):
        sus = suspend_boundary_map(PURE, SimMap.dilation(SPEC_R2, math.e), 1.0)
        g = SolvPoint(height=0.25, x=random_point(SPEC_R2, RNG))
        out = sus(g)
        assert out.height == pytest.approx(1.25)

    def test_suspension_rejects_nontriangular_map(self):
        def bad(p):
            return BlockPoint((p.blocks[0], p.blocks[1] + p.blocks[0]))

        with pytest.raises(InputError):
            suspend_boundary_map(PURE, bad, 0.0)
