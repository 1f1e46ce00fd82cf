"""SPD determinant-one geometry: action, metrics, circumcenters, and
invariant conformal structure fields."""

import math

import numpy as np
import pytest

from solvrigid import (
    ConvergenceError,
    DomainError,
    FirstBlockAffineMap,
    InputError,
    act,
    circumcenter,
    conf_class,
    conformal,
    ddist,
    dilatation,
    invariant_structure,
    kdist,
    solve_circumcenter,
)
from solvrigid.conformal import ConfField, _orbit_classes
from solvrigid.fixtures import SPEC_ROT, constant_rotation_map
from solvrigid.spectral import split_rows

import affine_reference
import conformal_reference
from metric_reference import from_flat

RNG = np.random.default_rng(17)


def _ref_invariant_structure(generators, grid, word_len, resolution):
    """Enumerate-then-fold reference: every word folded from the identity."""
    words = [[]]
    frontier = [[]]
    for _ in range(word_len):
        frontier = [w + [gi] for w in frontier for gi in range(len(generators))]
        words.extend(frontier)
    grid = [from_flat(SPEC_ROT, row) for row in grid]
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
                    jac = g.first_block_derivative(cur.blocks) @ jac
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
    rows = np.reshape([q.flat() for q in points], (-1, SPEC_ROT.total_dim))
    field_ = ConfField(points=rows, values=values, resolution=resolution, skipped=skipped)
    for p, mu_p in zip(points, values):
        worst = 0.0
        for g in generators:
            (j,), (covered,) = field_._nearest(g(p).flat()[None])
            if not covered:
                continue
            worst = max(worst, kdist(field_.values[j], act(g.first_block_derivative(p.blocks), mu_p)))
        field_.defects.append(worst)
    return field_


def _unshift(y):
    """The inverse of the fixtures' quotient y + 1."""
    return [y[0] - 1.0]


def _diag_y(y):
    """diag(y, 1) at each quotient point: singular where y = 0."""
    m = np.zeros(y[0].shape[:-1] + (2, 2))
    m[..., 0, 0] = y[0][..., 0]
    m[..., 1, 1] = 1.0
    return m


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


def _random_stack(rng, count, n=3):
    """count positive definite matrices with log-eigenvalues in [-8, 8]; every
    10th is scaled by 1e250 and every 10th from the 5th by 1e-250, so their
    determinants leave the float range and take the rescale path."""
    q = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    a = (q * np.exp(rng.uniform(-8.0, 8.0, (count, n)))[..., None, :]) @ q.mT
    a[::10] *= 1e250
    a[5::10] *= 1e-250
    return a


def _random_gl_stack(rng, count, n=3):
    u = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(count, n, n)))[0]
    return (u * rng.uniform(0.5, 2.0, (count, n))[..., None, :]) @ v


class TestStacks:
    # a stack goes through the code of one class: member by member, bit for bit
    def test_conf_class_equals_the_per_matrix_loop(self):
        raw = _random_stack(np.random.default_rng(21), 1200)
        got = conf_class(raw)
        assert got.shape == raw.shape
        assert np.array_equal(got, np.stack([conf_class(a) for a in raw]))
        assert np.allclose(np.linalg.det(got), 1.0, rtol=1e-9, atol=0.0)

    def test_act_equals_the_per_matrix_loop(self):
        rng = np.random.default_rng(22)
        raw, X = _random_stack(rng, 1200), _random_gl_stack(rng, 1200)
        assert np.array_equal(act(X, raw), np.stack([act(x, a) for x, a in zip(X, raw)]))
        # one action matrix on a stack of classes
        assert np.array_equal(act(X[7], raw), np.stack([act(X[7], a) for a in raw]))

    @pytest.mark.parametrize("dist", [kdist, ddist])
    def test_distances_equal_the_per_matrix_loop(self, dist):
        rng = np.random.default_rng(23)
        A = conf_class(_random_stack(rng, 1200))
        B = conf_class(_random_stack(rng, 1200))
        got = dist(A, B)
        assert isinstance(got, np.ndarray) and got.shape == (1200,)
        want = [dist(a, b) for a, b in zip(A, B)]
        assert all(isinstance(d, float) for d in want)
        assert np.array_equal(got, want)
        # one class against a stack
        assert np.array_equal(dist(A[3], B), [dist(A[3], b) for b in B])

    @pytest.mark.parametrize("member", [
        np.full((3, 3), np.nan),
        np.diag([1.0, np.inf, 1.0]),
        [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # asymmetric
        np.diag([1.0, -1.0, 1.0]),  # indefinite
        np.diag([1.0, 1e-200, 1e-200]),  # beyond float range even rescaled
    ], ids=["nan", "inf", "asymmetric", "indefinite", "unrepresentable"])
    def test_one_bad_member_rejects_the_stack(self, member):
        stack = _random_stack(np.random.default_rng(24), 20)
        stack[13] = member
        with pytest.raises(InputError):
            conf_class(stack)
        with pytest.raises(InputError):
            act(_random_gl_stack(np.random.default_rng(25), 20), stack)

    @pytest.mark.parametrize("bad", [
        [np.eye(2), np.eye(3)],  # ragged
        [np.eye(3), [[1.0, 0.0, 0.0]]],  # ragged
        np.zeros((0, 3, 3)),  # empty stack
        np.ones((2, 3, 4)),  # members not square
        np.ones((2, 2, 3, 3)),  # a stack of stacks
        np.ones(3),
    ], ids=["ragged-size", "ragged-rows", "empty", "not-square", "4-d", "1-d"])
    def test_misshaped_stacks_rejected(self, bad):
        with pytest.raises(InputError):
            conf_class(bad)
        with pytest.raises(InputError):
            act(bad, np.eye(3))

    def test_act_rejects_mismatched_sides(self):
        rng = np.random.default_rng(26)
        with pytest.raises(InputError):
            act(_random_gl_stack(rng, 4), conf_class(_random_stack(rng, 5)))
        with pytest.raises(InputError):
            act(np.eye(2), conf_class(_random_stack(rng, 5)))

    def test_singular_member_of_x_raises_domain_error(self):
        rng = np.random.default_rng(27)
        X = _random_gl_stack(rng, 6)
        X[4] = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            act(X, conf_class(_random_stack(rng, 6)))

    def test_dilatation_equals_the_per_matrix_loop(self):
        for n in (2, 3):
            raw = conf_class(_random_stack(np.random.default_rng(29), 40, n))
            got = dilatation(raw)
            assert isinstance(got, np.ndarray) and got.shape == (40,)
            want = [dilatation(a) for a in raw]
            assert all(isinstance(d, float) for d in want)
            assert all(g == w for g, w in zip(got.tolist(), want))

    @pytest.mark.parametrize("dist", [kdist, ddist])
    @pytest.mark.parametrize("a, b", [
        (np.eye(2), -np.eye(2)),  # negative definite
        (-np.eye(2), np.eye(2)),
        (np.eye(2), np.diag([1.0, 0.0])),  # singular
        (np.eye(2), np.eye(3)),  # sizes differ
        (np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 4)),  # counts differ
        (np.eye(2), np.full((2, 2), np.nan)),
        (np.diag([np.inf, 1.0]), np.eye(2)),
        (1e-300 * np.eye(2), 1e300 * np.eye(2)),  # relative eigenvalues overflow
        (np.eye(2), np.ones(2)),  # not a matrix
    ], ids=["neg-b", "neg-a", "singular", "sizes", "counts", "nan", "inf", "overflow", "1-d"])
    def test_distances_reject_bad_classes(self, dist, a, b):
        with pytest.raises(InputError):
            dist(a, b)

    def test_circumcenter_takes_a_stack(self):
        rng = np.random.default_rng(28)
        pts = conf_class(_random_stack(rng, 5)[1:5])
        assert np.array_equal(circumcenter(pts), circumcenter(list(pts)))
        with pytest.raises(InputError):
            solve_circumcenter(np.eye(3))  # one class, not a sequence of them


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

    def test_dilatation_beyond_float_range_reads_inf(self):
        # k-distance 744 from the identity: e^744 is beyond float range
        far = np.diag([1.0, 5e-324])
        assert dilatation(far) == math.inf
        got = dilatation(np.stack([np.eye(2), far]))
        assert got[0] == 1.0 and got[1] == math.inf

    @pytest.mark.parametrize("fn", [kdist, ddist])
    @pytest.mark.parametrize("a, b", [
        (np.eye(2), [[1.0, 7.0], [0.0, 1.0]]),
        ([[2.0, 100.0], [0.0, 0.5]], np.eye(2)),
    ], ids=["upper-entry-on-the-identity", "upper-entry-on-diag(2, 0.5)"])
    def test_asymmetric_class_rejected(self, fn, a, b):
        # only the lower triangle was read: these gave 0.0 and 0.693 in kdist,
        # the distances of the identity and of diag(2, 0.5)
        with pytest.raises(InputError):
            fn(a, b)
        with pytest.raises(InputError):  # one asymmetric member of a stack
            fn(np.stack([np.eye(2), a]), np.stack([np.eye(2), b]))


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

    def test_center_bound_is_the_cat0_bound_of_the_gap(self):
        # sqrt(radius^2 - lower^2), 0 where rounding puts lower above radius
        one = conformal.CircumcenterResult(np.eye(2), 1.25, 0.75, 3, "certified")
        assert one.center_bound == 1.0 and isinstance(one.center_bound, float)
        batch = conformal.CircumcenterResult(
            np.stack([np.eye(2)] * 3), np.array([1.25, 2.0, 1.0]),
            np.array([0.75, 2.0, 1.0 + 2e-16]), np.array([3, 1, 1]), np.array(["certified"] * 3))
        assert batch.center_bound.tolist() == [1.0, 0.0, 0.0]

    def test_uncertified_center_raises_with_gap(self):
        pts = [random_spd() for _ in range(5)]
        res = solve_circumcenter(pts, max_iters=1)
        assert res.exit == "max_iters" and res.gap > 1e-9
        with pytest.raises(ConvergenceError) as info:
            circumcenter(pts, max_iters=1)
        assert info.value.last_value == res.gap


def _same_result(got, want) -> bool:
    return (np.array_equal(got.center, want.center) and got.radius == want.radius
            and got.lower == want.lower and got.iterations == want.iterations
            and got.exit == want.exit)


def _member(res, i):
    return conformal.CircumcenterResult(res.center[i], float(res.radius[i]), float(res.lower[i]),
                                        int(res.iterations[i]), str(res.exit[i]))


def _three_generator_orbits(points):
    t = np.diag([2.0, 0.5])

    def quot(y):
        return (y[0] + 1.0,)

    gens = [
        FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: t),
        FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=_diag_y),
        constant_rotation_map(0.8),
    ]
    grid = np.column_stack([np.zeros((points, 2)), np.linspace(-3.0, 3.0, points)])
    return gens, grid, _orbit_classes(gens, split_rows(SPEC_ROT, grid), 3)[1]


class TestBatchedCircumcenter:
    """A batch of class sets is solved in lock step; each member equals its
    one-set solve, and each one-set solve equals the per-set reference copy
    in tests/conformal_reference.py, bit for bit."""

    def _check_sets(self, sets, max_iters=4000):
        batch = solve_circumcenter(np.stack(sets), max_iters=max_iters)
        assert batch.center.shape == np.shape(sets)[:1] + np.shape(sets)[2:]
        assert all(np.shape(f) == (len(sets),) for f in
                   (batch.radius, batch.lower, batch.iterations, batch.exit, batch.gap))
        for i, classes in enumerate(sets):
            one = solve_circumcenter(classes, max_iters=max_iters)
            ref = conformal_reference.solve_circumcenter(classes, max_iters=max_iters)
            assert _same_result(one, ref)
            assert _same_result(_member(batch, i), one)
            assert batch.gap[i] == one.gap
        return batch

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_random_and_moved_sets_equal_the_reference(self, k):
        # 50 sets and the 50 copies act(x, set): 100 sets per k, 300 in all
        rng = np.random.default_rng(40 + k)
        q = np.linalg.qr(rng.normal(size=(50 * k, 3, 3)))[0]
        spd = (q * np.exp(rng.uniform(-1.2, 1.2, (50 * k, 3)))[..., None, :]) @ q.mT
        sets = list(conf_class(spd).reshape(50, k, 3, 3))
        xs = _random_gl_stack(rng, 50)
        batch = self._check_sets(sets + [act(x, s) for x, s in zip(xs, sets)])
        assert set(batch.exit.tolist()) == {"certified"}
        # a capped batch leaves its members uncertified, each as alone
        capped = self._check_sets(sets[:10], max_iters=1)
        assert "max_iters" in capped.exit.tolist()

    def test_one_class_members(self):
        rng = np.random.default_rng(7)
        sets = [conf_class(_random_stack(rng, 1)) for _ in range(4)]
        batch = self._check_sets(sets)
        assert batch.iterations.tolist() == [0] * 4 and batch.radius.tolist() == [0.0] * 4

    def test_three_generator_orbits_equal_the_reference(self):
        _, _, orbits = _three_generator_orbits(31)
        for k in sorted({len(classes) for classes in orbits}):
            self._check_sets([classes for classes in orbits if len(classes) == k])

    @pytest.mark.parametrize("bad", [
        np.ones((1, 2, 2, 2, 2)),  # 5-D
        np.ones((0, 2, 2, 2)),  # no sets
        np.ones((3, 0, 2, 2)),  # empty sets
        np.stack([np.stack([np.eye(2), np.eye(2)]), np.stack([np.eye(2), -np.eye(2)])]),
        np.stack([np.stack([np.eye(2), np.eye(2)]), np.full((2, 2, 2), np.nan)]),
    ], ids=["5-d", "empty-batch", "empty-sets", "indefinite-member", "nan-member"])
    def test_rejects_bad_batches(self, bad):
        with pytest.raises(InputError):
            solve_circumcenter(bad)
        with pytest.raises(InputError):
            circumcenter(bad)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9, "x", [1e-9, 1e-9]])
    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self, tol):
        # a NaN tolerance certifies nothing: every set would end in no_descent
        with pytest.raises(InputError):
            solve_circumcenter([np.eye(2), np.diag([2.0, 0.5])], tol=tol)

    def test_classes_whose_whitened_entries_overflow_raise_domain_error(self):
        # whitening diag(e^-400, e^400) by the first class's factor reads e^800:
        # numpy's RuntimeWarning "overflow encountered in matmul" came instead
        a = np.diag([math.exp(400.0), math.exp(-400.0)])
        pair = np.stack([a, np.diag([math.exp(-400.0), math.exp(400.0)])])
        for classes in (pair, np.stack([np.stack([np.eye(2), np.eye(2)]), pair])):
            with pytest.raises(DomainError, match="beyond float range"):
                solve_circumcenter(classes)

    def test_uncertified_batch_member_named_with_its_gap(self):
        rng = np.random.default_rng(3)
        pair = conf_class(_random_stack(rng, 2))
        sets = np.stack([pair[[0, 0]], pair, conf_class(_random_stack(rng, 2))])
        res = solve_circumcenter(sets, max_iters=1)
        first = res.exit.tolist().index("max_iters")
        assert first > 0  # the first member, two equal classes, certifies at once
        with pytest.raises(ConvergenceError, match=f"batch member {first}:") as info:
            circumcenter(sets, max_iters=1)
        assert info.value.last_value == res.gap[first]


def _random_2x2_sets(count=300, seed=30):
    """``count`` sets of 2 to 8 determinant-one 2 x 2 classes, log-eigenvalues in [-1.5, 1.5]."""
    rng = np.random.default_rng(seed)
    sets = []
    for k in rng.integers(2, 9, count):
        q = np.linalg.qr(rng.normal(size=(k, 2, 2)))[0]
        sets.append(conf_class((q * np.exp(rng.uniform(-1.5, 1.5, (k, 2)))[..., None, :]) @ q.mT))
    return sets


def _solved_by_size(sets):
    """The results of each set, solved in one batch per class count."""
    out = [None] * len(sets)
    for k in sorted({len(s) for s in sets}):
        at = [i for i, s in enumerate(sets) if len(s) == k]
        res = solve_circumcenter(np.stack([sets[i] for i in at]))
        for j, i in enumerate(at):
            out[i] = _member(res, j)
    return out


class TestExactCircumcenterOf2x2Classes:
    """The solver against the exact circumcenter of 2 x 2 classes in
    tests/conformal_reference.py: the hyperbolic plane's smallest ball
    through two or three of the classes."""

    def test_the_hyperboloid_reads_ddist(self):
        a, b = _random_2x2_sets(1, seed=3)[0][:2], _random_2x2_sets(1, seed=4)[0][:2]
        x, y = conformal_reference.hyperboloid(a), conformal_reference.hyperboloid(b)
        assert np.allclose(x[:, 0] ** 2 - x[:, 1] ** 2 - x[:, 2] ** 2, 1.0, rtol=0, atol=1e-12)
        inner = x[:, 0] * y[:, 0] - x[:, 1] * y[:, 1] - x[:, 2] * y[:, 2]
        assert np.allclose(math.sqrt(2.0) * np.arccosh(inner), ddist(a, b), rtol=1e-12)

    def test_the_oracle_is_the_smallest_enclosing_ball(self):
        # its radius is the reach of its center, no class reaches every class
        # from nearer, and no certified lower bound exceeds it
        for classes in _random_2x2_sets(40, seed=8):
            center, radius = conformal_reference.exact_circumcenter_2x2(classes)
            assert abs(ddist(center, classes).max() - radius) <= 1e-12
            i, j = np.divmod(np.arange(len(classes) ** 2), len(classes))
            reach = ddist(classes[i], classes[j]).reshape(len(classes), -1).max(axis=1)
            assert reach.min() >= radius - 1e-12
            assert solve_circumcenter(classes).lower <= radius + 1e-12

    def _worst_oracle_distance(self, sets):
        return max(ddist(res.center, conformal_reference.exact_circumcenter_2x2(classes)[0])
                   for classes, res in zip(sets, _solved_by_size(sets)))

    def test_random_sets_are_centered_to_1e_10(self):
        # the certificate bounds the radius to 1e-9; the Newton finish puts
        # the center itself within 1e-10 of the exact one (6.7e-11 at worst)
        sets = _random_2x2_sets()
        assert self._worst_oracle_distance(sets) <= 1e-10
        for classes, res in zip(sets, _solved_by_size(sets)):
            assert res.exit == "certified"
            exact = conformal_reference.exact_circumcenter_2x2(classes)[0]
            assert ddist(res.center, exact) <= res.center_bound + 1e-12

    def test_field_values_are_centered_to_1e_10(self):
        gens, grid, orbits = _three_generator_orbits(31)
        field = invariant_structure(gens, grid, word_len=3, resolution=0.51)
        assert len(field.values) == len(orbits) == 28
        worst = max(ddist(value, conformal_reference.exact_circumcenter_2x2(classes)[0])
                    for value, classes in zip(field.values, orbits))
        assert worst <= 1e-10

    def test_skipping_the_newton_finish_fails(self, monkeypatch):
        # with every Newton step unusable the solver takes the backtracking
        # step alone; its certified centers are 1e-5 off, not 1e-10
        monkeypatch.setattr(conformal, "_newton_moves", lambda logs, lw, mv, d, lam: (
            np.full(lam.shape, math.nan), np.zeros(logs.shape[:1] + logs.shape[2:])))
        assert self._worst_oracle_distance(_random_2x2_sets(60)) > 1e-8


class TestInvariantStructure:
    def _grid(self):
        return np.array([[0.0, 0.0, float(y)] for y in range(-3, 4)])

    def test_rotation_generator_gives_identity_field_with_zero_defect(self):
        g = constant_rotation_map(0.8)
        g_inv = affine_reference.library_inverse(g, _unshift)
        field = invariant_structure([g, g_inv], self._grid(), word_len=3, resolution=0.51)
        for val in field.values:
            assert np.allclose(val, np.eye(2), atol=1e-9)
        assert max(field.defects) <= 1e-9

    def test_diagonal_generator_field_is_orbit_circumcenter(self):
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        g = FirstBlockAffineMap(SPEC_ROT, 1.0, quot, lam_of=lambda y: 1.0, A_of=lambda y: t)
        g_inv = affine_reference.library_inverse(g, _unshift)
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
            SPEC_ROT, 1.0, quot, A_of=_diag_y
        )
        rot = constant_rotation_map(0.8)
        for gens in ([rot, affine_reference.library_inverse(rot, _unshift)], [diag, fold]):
            field = invariant_structure(gens, self._grid(), word_len=3, resolution=0.51)
            ref = _ref_invariant_structure(gens, self._grid(), 3, 0.51)
            assert len(field.values) == len(ref.values)
            assert all(np.array_equal(a, b) for a, b in zip(field.values, ref.values))
            assert field.defects == ref.defects
            assert field.skipped == ref.skipped
        assert field.skipped

    def test_grid_rows_equal_the_per_point_reference(self):
        # the field of the three generators below, and of a rotation and its
        # inverse, on a 25-point grid
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        rot = constant_rotation_map(0.8)
        grid = np.column_stack([np.zeros((25, 2)), np.linspace(-3.0, 3.0, 25)])
        points = [from_flat(SPEC_ROT, row) for row in grid]
        three = [FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: t),
                 FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=_diag_y), rot]
        ref_rot = affine_reference.from_map(rot)
        rot_inv = affine_reference.library_inverse(rot, _unshift)
        for gens, refs in (
            (three, [affine_reference.from_map(g) for g in three]),
            ([rot, rot_inv], [ref_rot, affine_reference.from_map(rot_inv)]),
        ):
            field = invariant_structure(gens, grid, word_len=3, resolution=0.51)
            ref_points, values, defects, skipped = affine_reference.invariant_structure(
                refs, points, 3, 0.51)
            assert np.array_equal(field.points, np.reshape([p.flat() for p in ref_points], (-1, 3)))
            assert len(field.values) == len(values)
            assert all(np.array_equal(a, b) for a, b in zip(field.values, values))
            assert field.defects == defects
            assert field.skipped == skipped

    def test_three_generator_orbits_certify(self):
        # 18-22 classes per point; the backtracking step alone took 23-29
        # iterations a solve (a full step without backtracking cycles between
        # two radii); with the Newton finish each takes 6
        t = np.diag([2.0, 0.5])

        def quot(y):
            return (y[0] + 1.0,)

        gens = [
            FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=lambda y: t),
            FirstBlockAffineMap(SPEC_ROT, 1.0, quot, A_of=_diag_y),
            constant_rotation_map(0.8),
        ]
        solved = 0
        _, orbits = _orbit_classes(gens, split_rows(SPEC_ROT, self._grid()), 3)
        for classes in orbits:
            res = solve_circumcenter(classes)
            assert res.exit == "certified" and res.gap <= 1e-9
            assert res.iterations <= 40
            solved += 1
        assert solved == 4
        field = invariant_structure(gens, self._grid(), word_len=3, resolution=0.51)
        assert field.skipped == [1, 2, 3]

    def test_orbits_and_defects_act_on_stacks(self, count_calls):
        # one act for the word orbits of the whole grid, one act and one
        # kdist per generator for the defects; one per word and per covered
        # pair would be 105 + 4 acts and 4 kdists
        g = constant_rotation_map(0.8)
        gens = [g, affine_reference.library_inverse(g, _unshift)]
        acts = count_calls(conformal, name="act")
        kdists = count_calls(conformal, name="kdist")
        field = invariant_structure(gens, self._grid(), word_len=3, resolution=0.51)
        assert len(field.values) == 7
        assert len(acts) == 1 + 2 and len(kdists) == 2

    def test_one_circumcenter_call_per_class_count(self, count_calls):
        # the per-point loop made one call per grid point whose orbit is alive
        gens, grid, orbits = _three_generator_orbits(31)
        counts = {len(classes) for classes in orbits}
        calls = count_calls(conformal, name="circumcenter")
        field = invariant_structure(gens, grid, word_len=3, resolution=0.51)
        assert len(calls) == len(counts) > 1
        assert sorted(np.shape(args[0])[1] for args in calls) == sorted(counts)
        assert sum(len(args[0]) for args in calls) == len(field.values) == len(orbits)
        for classes, value in zip(orbits, field.values):
            assert np.array_equal(value, conformal_reference.solve_circumcenter(classes).center)
