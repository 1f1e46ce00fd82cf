"""Acceptance gate: one timed pass/fail line per criterion."""

import json
import math
import time
from fractions import Fraction

import numpy as np

from solvrigid import (
    ASimMap,
    BlockPoint,
    ChainGrid,
    SimMap,
    SolvSpec,
    approx_lth_root,
    boundary_of_height_isometry,
    chain_energy,
    default_probes,
    epsilon_bound,
    height_hom,
    kdist,
    normalize_stretch,
    oscillation,
    random_row_blocks,
    rotation_rigidity_witness,
    solve_circumcenter,
    stretch_hom,
)
from solvrigid import cli
from solvrigid.fixtures import (
    SPEC_FIG1,
    SPEC_NIL,
    SPEC_R1,
    SPEC_R2,
    SPEC_R3,
    constant_rotation_map,
    exact_r1_fixture,
    exact_r2_fixture,
    normalized_dilation_sample,
    oscillating_kernel_element,
    stretch_bump_sample,
    varying_rotation_map,
)
from solvrigid.nilpotent import ExactWord

from builders import unit_translation_1d
import metric_reference as reference


class _Criterion:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f}s / budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s ({elapsed:.1f}s)"
        return False


def _assert_passed(*checks):
    assert all(c["passed"] for c in checks), checks


def _per_point_state(seed, draws):
    """The generator state after ``count`` one-point draws at scale 5 per (spec, count)."""
    rng = np.random.default_rng(seed)
    for spec, count in draws:
        for _ in range(count):
            reference.random_point(spec, rng, 5.0)
    return rng.bit_generator.state


def test_metric_axioms():
    specs = (SPEC_R1, SPEC_R2, SPEC_R3)
    with _Criterion("metric-axioms", 5.0):
        rng = np.random.default_rng(0)
        for spec in specs:
            _assert_passed(*cli._metric_checks(spec, random_row_blocks(spec, rng, 10_000, 3, 5.0),
                                               ((t, b) for t in (0.5, 2.0)
                                                for b in random_row_blocks(spec, rng, 200, 2, 5.0))))
    # the draws of one point at a time: 3 per triple, 2 per pair
    assert rng.bit_generator.state == _per_point_state(0, [(spec, 3 * 10_000 + 2 * 2 * 200)
                                                           for spec in specs])


def test_chain_functional_oracle():
    with _Criterion("chain-oracle", 30.0):
        p = np.zeros(2)
        q = np.array([1.0, 0.0])
        grid = ChainGrid(resolution=2 ** 16, max_depth=12)
        supercritical = chain_energy(SPEC_FIG1, 3.0, p, q, grid)
        assert supercritical.value < 1e-4
        for gap in (0.3, 1.0, 2.7):
            qg = np.array([gap, 0.0])
            critical = chain_energy(SPEC_FIG1, 2.0, p, qg, ChainGrid(max_depth=12))
            assert abs(critical.value - gap) <= 1e-6


def test_boundary_correspondence():
    with _Criterion("boundary-correspondence", 5.0):
        rng = np.random.default_rng(1)
        spec = SolvSpec(lower=SPEC_R2)
        _assert_passed(cli._pair_to_point_check(spec, random_row_blocks(SPEC_R2, rng, 10_000, 2, 5.0)))
        after_pairs = rng.bit_generator.state
        for a in (-1.5, 0.0, 0.8):
            bd = boundary_of_height_isometry(spec, a)
            assert bd.stretch == math.exp(a)
            assert all(np.array_equal(r, np.eye(r.shape[0])) for r in bd.rotations)
            assert all(np.array_equal(b, np.zeros(b.shape)) for b in bd.translations)
        bound = np.repeat([1.5, 2.0], [2, SPEC_R2.total_dim])
        _assert_passed(cli._composition_check(spec, rng.uniform(-bound, bound, (200, len(bound)))))
    # the pairs are the draws of one point at a time
    assert after_pairs == _per_point_state(1, [(SPEC_R2, 2 * 10_000)])


def test_symmetric_space_suite():
    with _Criterion("symmetric-space", 60.0):
        rng = np.random.default_rng(2)
        abc, x = cli._draw_classes(rng, 1000, 3, 1)
        a, b = abc[:, 0], abc[:, 1]
        assert np.all(kdist(a, a) <= 1e-10)
        assert np.all(np.abs(kdist(a, b) - kdist(b, a)) <= 1e-10)
        _assert_passed(*cli._kdist_checks(abc, x[:, 0]))
        sets, xs = cli._draw_classes(rng, 100, 5, 1)
        eq = solve_circumcenter(cli._moved_and_drawn(sets, xs[:, 0]), tol=1e-9, max_iters=600)
        a = cli._draw_classes(rng, 20, 1, 0)[0][:, 0]
        sym = solve_circumcenter(np.stack([a, np.linalg.inv(a)], axis=1), tol=1e-9)
        _assert_passed(*cli._circumcenter_checks(sym, eq, xs[:, 0], 1e-9))


def test_one_dimensional_conjugation():
    with _Criterion("1d-conjugation", 120.0):
        cfg = cli.RunConfig(word_len=12)
        _assert_passed(*cli.run_conjugate(cfg, np.random.default_rng(0)))


def test_stretch_and_rotation_normalization():
    with _Criterion("stretch-rotation", 30.0):
        for sample in (stretch_bump_sample(word_len=12), normalized_dilation_sample()):
            normalized = normalize_stretch(sample)
            a1 = normalized.alpha1
            for g in normalized.conjugated:
                for y in np.linspace(-6.0, 6.0, 25):
                    lam = g.lam_of((np.array([y]),))
                    assert abs(lam - g.stretch ** a1) <= 1e-6
        witness = rotation_rigidity_witness(varying_rotation_map(), K=1.5)
        assert witness is not None and witness.ratio > witness.bound
        for theta in (0.0, 0.7, -2.0):
            assert rotation_rigidity_witness(constant_rotation_map(theta), K=1.5) is None


def test_nilpotent_algorithms():
    with _Criterion("nilpotent", 30.0):
        for name, fixture in (("r1", exact_r1_fixture), ("r2", exact_r2_fixture)):
            gens, gamma_p, levels = fixture()
            cert = approx_lth_root(gamma_p, range(len(gens)), levels, 2)
            _assert_passed(*cli._root_checks(name, gens, gamma_p, cert, 2))
            assert all(0 <= c < 2 for c in cert.coefficients.values())
            top = len(gens[0].dims) - 1
            zero = gamma_p.zero_point()
            lhs = 2 * cert.gamma_prime.block_displacement(zero, top)[0]
            rhs = sum(
                Fraction(c) * gens[i].top_displacement(top)[0]
                for i, c in cert.coefficients.items()
            )
            assert lhs == rhs
        # shuffle identities, exact
        gens, gamma_p, _ = exact_r2_fixture()
        probes = default_probes(gens[0].dims)
        kappa = ExactWord(gens, [(0, 1)])
        for p in probes:
            assert (gamma_p * kappa).block_displacement(p, 1) == gamma_p.block_displacement(p, 1)
            assert (gamma_p * kappa).block_displacement(p, 0) == (
                kappa * gamma_p
            ).block_displacement(p, 0)
        # oscillation bounds on the bundled kernel elements
        rng = np.random.default_rng(4)
        for gamma in (oscillating_kernel_element(), unit_translation_1d()):
            spec = gamma.spec
            pts = [
                BlockPoint(tuple(rng.uniform(-5, 5, n) for n in spec.multiplicities))
                for _ in range(10_000)
            ]
            for i in range(spec.r):
                vals = np.asarray([gamma.perturbations[i](p.blocks) for p in pts])
                assert oscillation(vals) <= epsilon_bound(gamma, i) + 1e-12


def test_reciprocity_and_homomorphisms():
    with _Criterion("reciprocity-homs", 10.0):
        rng = np.random.default_rng(5)
        from solvrigid import AlmostTranslation
        from solvrigid.fixtures import SPEC_ROT

        for _ in range(1000):
            t1, t2 = rng.uniform(0.3, 3.0, 2)
            th1, th2 = rng.uniform(-3.0, 3.0, 2)
            r1 = np.array([[math.cos(th1), -math.sin(th1)], [math.sin(th1), math.cos(th1)]])
            r2 = np.array([[math.cos(th2), -math.sin(th2)], [math.sin(th2), math.cos(th2)]])
            g1 = ASimMap(SimMap(SPEC_ROT, t1, [r1, np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
            g2 = ASimMap(SimMap(SPEC_ROT, t2, [r2, np.eye(1)]), AlmostTranslation.identity(SPEC_ROT))
            comp = g1.compose(g2)
            assert abs(height_hom(comp) - height_hom(g1) - height_hom(g2)) <= 1e-9
            for got, want in zip(
                comp.sim.rotations,
                [a @ b for a, b in zip(g1.sim.rotations, g2.sim.rotations)],
            ):
                assert float(np.max(np.abs(got - want))) <= 1e-9
        v = stretch_hom(
            [SimMap(SPEC_NIL, 2.0), SimMap(SPEC_NIL, 8.0)],
            [[1.0, 0.0], [3.0, 0.0]],
        )
        assert abs(v[0] - math.log(2.0)) <= 1e-9


def test_cli_determinism(tmp_path):
    with _Criterion("cli-determinism", 120.0):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["all", "--seed", "11", "--out", str(d1)]) == 0
        assert cli.main(["all", "--seed", "11", "--out", str(d2)]) == 0
        (r1,) = sorted(d1.glob("*.json"))
        (r2,) = sorted(d2.glob("*.json"))
        assert r1.name == r2.name
        assert r1.read_bytes() == r2.read_bytes()
        assert json.loads(r1.read_text())["passed"]
