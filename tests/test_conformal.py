"""SPD determinant-one geometry: action, metrics, circumcenters, and
invariant conformal structure fields."""

import math

import numpy as np
import pytest

from solvrigid import (
    BlockPoint,
    ConvergenceError,
    CoverageError,
    DomainError,
    FirstBlockAffineMap,
    InputError,
    act,
    affine_inverse,
    circumcenter,
    conf_class,
    conformality_defect,
    ddist,
    dilatation,
    dilate,
    invariant_structure,
    kdist,
    measure_distortion_check,
    solve_circumcenter,
)
from solvrigid.conformal import ConfField, _orbit_classes
from solvrigid.fixtures import SPEC_R2, SPEC_ROT, constant_rotation_map

RNG = np.random.default_rng(17)


def _ref_invariant_structure(generators, grid, word_len, resolution):
    """Enumerate-then-fold reference: every word folded from the identity."""
    words = [[]]
    frontier = [[]]
    for _ in range(word_len):
        frontier = [w + [gi] for w in frontier for gi in range(len(generators))]
        words.extend(frontier)
    n1 = grid[0].blocks[0].shape[0]
    points, values, skipped = [], [], []
    for idx, p in enumerate(grid):
        classes = []
        seen = set()
        try:
            for w in words:
                jac = np.eye(n1)
                cur = p
                for gi in reversed(w):
                    g = generators[gi]
                    jac = g.first_block_derivative(cur) @ jac
                    cur = g(cur)
                if abs(np.linalg.det(jac)) < 1e-12:
                    raise DomainError("singular first-block Jacobian")
                cls = act(jac, np.eye(n1))
                key = tuple(np.round(cls, 9).ravel())
                if key not in seen:
                    seen.add(key)
                    classes.append(cls)
        except DomainError:
            skipped.append(idx)
            continue
        points.append(p)
        values.append(circumcenter(classes))
    field_ = ConfField(points=points, values=values, resolution=resolution, skipped=skipped)
    for p, mu_p in zip(points, values):
        worst = 0.0
        for g in generators:
            try:
                mu_gp = field_.value_at(g(p))
            except CoverageError:
                continue
            worst = max(worst, kdist(mu_gp, act(g.first_block_derivative(p), mu_p)))
        field_.defects.append(worst)
    return field_


def _harmonic_descent_radius(mats, iters=100):
    """Reference: the Badoiu-Clarkson descent, a step of 1/(k+2) along the
    geodesic toward the farthest point; returns the best radius seen."""
    mats = np.asarray(mats)
    P = mats[0]
    best = math.inf
    for k in range(iters):
        w, v = np.linalg.eigh(P)
        ph, pmh = (v * w**0.5) @ v.T, (v * w**-0.5) @ v.T
        mw, mv = np.linalg.eigh(pmh @ mats @ pmh)
        dists = np.sqrt(np.sum(np.log(mw) ** 2, axis=1))
        far = int(np.argmax(dists))
        best = min(best, float(dists[far]))
        step = ph @ (mv[far] * mw[far] ** (1.0 / (k + 2))) @ mv[far].T @ ph
        P = conf_class(0.5 * (step + step.T))
    return best


def _spd_power(a, t):
    w, v = np.linalg.eigh(a)
    return (v * w**t) @ v.T


def random_spd(n=3):
    q = np.linalg.qr(RNG.normal(size=(n, n)))[0]
    return conf_class(q @ np.diag(np.exp(RNG.uniform(-1.2, 1.2, n))) @ q.T)


def random_gl(n=3):
    u, _ = np.linalg.qr(RNG.normal(size=(n, n)))
    v, _ = np.linalg.qr(RNG.normal(size=(n, n)))
    return u @ np.diag(RNG.uniform(0.5, 2.0, n)) @ v


class TestClassValidation:
    def test_normalizes_determinant(self):
        a = conf_class(3.0 * np.eye(3))
        assert np.linalg.det(a) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(InputError):
            conf_class([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(InputError):
            conf_class(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [
        np.full((2, 2), np.nan),  # read as an all-NaN class
        [[1.0, np.inf], [np.inf, 1.0]],  # likewise
        np.full((3, 3), np.nan),  # ended in numpy's LinAlgError
    ])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError):
            conf_class(bad)

    @pytest.mark.parametrize("big, n", [
        (1e308, 2),  # a + a.T overflowed: all NaN
        (1e-200, 2),  # the eigenvalue product underflowed: inf and NaN
        (2.0**600, 3),  # the eigenvalue product overflowed: the zero matrix
        (5e-324, 2),
    ])
    def test_extreme_scales_give_the_identity(self, big, n):
        assert np.array_equal(conf_class(big * np.eye(n)), np.eye(n))

    def test_extreme_scale_keeps_the_shape(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert np.allclose(conf_class(2.0**1000 * a), conf_class(a), rtol=1e-15, atol=0.0)

    def test_in_range_classes_unchanged(self):
        # the plain path: symmetrize, divide by the n-th root of the determinant
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            for _ in range(50):
                q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                a = q @ np.diag(np.exp(rng.uniform(-8.0, 8.0, n))) @ q.T
                a = 0.5 * (a + a.T)
                det = float(np.prod(np.linalg.eigvalsh(a)))
                assert np.array_equal(conf_class(a), a / det ** (1.0 / n))

    @pytest.mark.parametrize("bad", [
        np.zeros((0, 0)),  # raised numpy's ValueError
        [["a"]],  # likewise
        np.diag([1.0, 1e-200, 1e-200]),  # the class itself is beyond float range
    ])
    def test_rejects_empty_non_numeric_and_unrepresentable(self, bad):
        with pytest.raises(InputError):
            conf_class(bad)

    def test_circumcenter_rejects_non_finite_class(self):
        # exited no_descent with a NaN gap
        with pytest.raises(InputError):
            solve_circumcenter([np.full((2, 2), np.nan), np.eye(2)])

    def test_act_rejects_singular(self):
        with pytest.raises(DomainError):
            act(np.zeros((3, 3)), np.eye(3))


class TestAction:
    def test_cocycle_exact(self):
        for _ in range(50):
            a = random_spd()
            x, y = random_gl(), random_gl()
            lhs = act(x @ y, a)
            rhs = act(y, act(x, a))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_identity_acts_trivially(self):
        a = random_spd()
        assert np.allclose(act(np.eye(3), a), a, atol=1e-14)


class TestMetrics:
    def test_kdist_zero_iff_equal_and_symmetric(self):
        a, b = random_spd(), random_spd()
        assert kdist(a, a) == pytest.approx(0.0, abs=1e-12)
        assert kdist(a, b) == pytest.approx(kdist(b, a), abs=1e-11)

    def test_kdist_triangle(self):
        for _ in range(100):
            a, b, c = random_spd(), random_spd(), random_spd()
            assert kdist(a, c) <= kdist(a, b) + kdist(b, c) + 1e-10

    def test_gl_invariance(self):
        for _ in range(100):
            a, b = random_spd(), random_spd()
            x = random_gl()
            assert kdist(act(x, a), act(x, b)) == pytest.approx(kdist(a, b), abs=1e-10)
            assert ddist(act(x, a), act(x, b)) == pytest.approx(ddist(a, b), abs=1e-10)

    def test_kdist_below_ddist(self):
        a, b = random_spd(), random_spd()
        assert kdist(a, b) <= ddist(a, b) + 1e-12

    def test_dilatation(self):
        assert dilatation(np.eye(3)) == pytest.approx(1.0)
        t = conf_class(np.diag([4.0, 1.0, 1.0]))
        w = np.linalg.eigvalsh(t)
        assert dilatation(t) == pytest.approx(max(w[-1], 1.0 / w[0]), rel=1e-12)


class TestCircumcenter:
    def test_singleton(self):
        a = random_spd()
        assert np.allclose(circumcenter([a]), a)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            circumcenter([])

    def test_symmetric_pair_returns_identity(self):
        for _ in range(10):
            a = random_spd()
            c = circumcenter([a, np.linalg.inv(a)])
            assert kdist(np.eye(3), c) <= 1e-9

    def test_two_point_center_is_midpoint(self):
        a, b = random_spd(), random_spd()
        c = circumcenter([a, b])
        assert ddist(c, a) == pytest.approx(ddist(c, b), abs=1e-4)
        assert ddist(c, a) == pytest.approx(0.5 * ddist(a, b), abs=1e-4)

    def test_equivariance(self):
        for _ in range(10):
            pts = [random_spd() for _ in range(5)]
            x = random_gl()
            moved = circumcenter([act(x, p) for p in pts])
            assert ddist(moved, act(x, circumcenter(pts))) <= 1e-6

    def test_two_classes_center_is_geometric_mean(self):
        for _ in range(10):
            a, b = random_spd(), random_spd()
            ah, amh = _spd_power(a, 0.5), _spd_power(a, -0.5)
            expect = ah @ _spd_power(amh @ b @ amh, 0.5) @ ah
            assert np.max(np.abs(circumcenter([a, b]) - expect)) <= 1e-12

    @pytest.mark.parametrize("direction", [[1.0, -1.0], [1.0, 0.5, -1.5]])
    def test_commuting_diagonal_classes_center_is_log_midpoint(self, direction):
        # classes exp(t_i h) on one flat line: the center is exp(m h) with m
        # the midpoint of the extreme log-eigenvalue parameters
        h = np.array(direction)
        for _ in range(10):
            ts = RNG.uniform(-2.0, 2.0, 6)
            c = circumcenter([np.diag(np.exp(t * h)) for t in ts])
            m = 0.5 * (ts.max() + ts.min())
            assert np.max(np.abs(c - np.diag(np.exp(m * h)))) <= 1e-12

    def test_certificate_is_sound_and_beats_harmonic_descent(self):
        tol = 1e-9
        for _ in range(200):
            pts = [random_spd() for _ in range(5)]
            res = solve_circumcenter(pts, tol=tol)
            radius = max(ddist(res.center, a) for a in pts)
            assert res.exit == "certified" and res.gap <= tol
            # the 1e-12 allows for rounding between the solver's distances
            # and ddist once the bounds meet
            assert res.lower <= radius + 1e-12
            assert radius <= res.lower + tol + 1e-12
            assert radius <= _harmonic_descent_radius(pts) + 1e-12

    def test_uncertified_center_raises_with_gap(self):
        pts = [random_spd() for _ in range(5)]
        res = solve_circumcenter(pts, max_iters=1)
        assert res.exit == "max_iters" and res.gap > 1e-9
        with pytest.raises(ConvergenceError) as info:
            circumcenter(pts, max_iters=1)
        assert info.value.last_value == res.gap


class TestInvariantStructure:
    def _grid(self):
        return [
            BlockPoint((np.zeros(2), np.array([float(y)]))) for y in range(-3, 4)
        ]

    def test_rotation_generator_gives_identity_field_with_zero_defect(self):
        g = constant_rotation_map(0.8)
        g_inv = affine_inverse(g, lambda y: (y[0] - 1.0,))
        field = invariant_structure([g, g_inv], self._grid(), word_len=3, resolution=0.51)
        for val in field.values:
            assert np.allclose(val, np.eye(2), atol=1e-9)
        assert max(field.defects) <= 1e-9

    def test_diagonal_generator_field_is_orbit_circumcenter(self):
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        g = FirstBlockAffineMap(SPEC_ROT, 1.0, quot, lam_of=lambda y: 1.0, A_of=lambda y: t)
        g_inv = affine_inverse(g, lambda y: (y[0] - 1.0,))
        field = invariant_structure([g, g_inv], self._grid(), word_len=3, resolution=0.51)
        orbit = [act(np.linalg.matrix_power(t, k), np.eye(2)) for k in range(-3, 4)]
        expect = circumcenter(orbit)
        for val in field.values:
            assert np.allclose(val, expect, atol=1e-8)

    def test_walk_equals_enumerate_then_fold(self):
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        diag = FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: t)
        # singular where y = 0, so grid points whose orbit meets it are skipped
        fold = FirstBlockAffineMap(
            SPEC_ROT, 1.0, quot, A_of=lambda y: np.diag([float(y[0][0]), 1.0])
        )
        rot = constant_rotation_map(0.8)
        for gens in ([rot, affine_inverse(rot, lambda y: (y[0] - 1.0,))], [diag, fold]):
            field = invariant_structure(gens, self._grid(), word_len=3, resolution=0.51)
            ref = _ref_invariant_structure(gens, self._grid(), 3, 0.51)
            assert len(field.values) == len(ref.values)
            assert all(np.array_equal(a, b) for a, b in zip(field.values, ref.values))
            assert field.defects == ref.defects
            assert field.skipped == ref.skipped
        assert field.skipped

    def test_three_generator_orbits_certify(self):
        # 18-22 classes per point; each solve takes 23-29 iterations, where
        # a full step without backtracking cycles between two radii
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        gens = [
            FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: t),
            FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: np.diag([float(y[0][0]), 1.0])),
            constant_rotation_map(0.8),
        ]
        solved = 0
        for p in self._grid():
            try:
                classes = _orbit_classes(gens, p, 3)
            except DomainError:
                continue
            res = solve_circumcenter(classes)
            assert res.exit == "certified" and res.gap <= 1e-9
            assert res.iterations <= 40
            solved += 1
        assert solved == 4
        field = invariant_structure(gens, self._grid(), word_len=3, resolution=0.51)
        assert field.skipped == [1, 2, 3]

    def test_value_at_raises_off_grid(self):
        field = ConfField(points=self._grid(), values=[np.eye(2)] * 7, resolution=0.4)
        with pytest.raises(CoverageError):
            field.value_at(BlockPoint((np.zeros(2), np.array([9.0]))))

    def test_conformality_defect_of_identity_is_one(self):
        field = ConfField(points=self._grid(), values=[np.eye(2)] * 7, resolution=0.51)
        ident = FirstBlockAffineMap(SPEC_ROT, 1.0, lambda y: y)
        p = BlockPoint((np.zeros(2), np.array([1.0])))
        assert conformality_defect(ident, field, field, p) == pytest.approx(1.0, abs=1e-12)


class TestMeasureDistortion:
    def test_dilation_band_is_exact_jacobian(self):
        t = 1.5
        expected = t ** sum(SPEC_R2.exponents)

        class Dil:
            def __call__(self, p):
                return dilate(SPEC_R2, t, p)

        boxes = [(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                 (np.array([0.0, 0.0]), np.array([2.0, 2.0]))]
        lo, hi = measure_distortion_check(Dil(), SPEC_R2, boxes, np.random.default_rng(1), samples=50)
        assert lo == pytest.approx(expected, rel=1e-3)
        assert hi == pytest.approx(expected, rel=1e-3)

    def test_degenerate_boxes_rejected(self):
        with pytest.raises(InputError):
            measure_distortion_check(
                lambda p: p, SPEC_R2, [(np.ones(2), np.ones(2))], np.random.default_rng(0)
            )
