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
    act,
    approx_lth_root,
    boundary_of_height_isometry,
    chain_energy,
    check_reciprocity,
    circumcenter,
    conf_class,
    ddist,
    default_probes,
    dilate,
    displacement_bound,
    distance,
    epsilon_bound,
    height_hom,
    kdist,
    normalize_stretch,
    pair_to_point,
    random_row_blocks,
    root_power_word,
    rotation_hom,
    rotation_rigidity_witness,
    stretch_hom,
    sup_measure_1d,
    conjugator_1d,
    verify_conjugation,
)
from solvrigid.cli import main as cli_main
from solvrigid.fixtures import (
    SPEC_FIG1,
    SPEC_NIL,
    SPEC_R1,
    SPEC_R2,
    SPEC_R3,
    constant_rotation_map,
    exact_r1_fixture,
    exact_r2_fixture,
    matched_boundary_pair,
    mismatched_boundary_pair,
    normalized_dilation_sample,
    oscillating_kernel_element,
    piecewise_1d_sample,
    stretch_bump_sample,
    unit_translation_1d,
    varying_rotation_map,
)
from solvrigid.nilpotent import ExactWord

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
            a1 = spec.exponents[0]
            for block in random_row_blocks(spec, rng, 10_000, 3, 5.0):
                p, q, s = block[:, 0], block[:, 1], block[:, 2]
                # np.float_power is pow per element, as ``**`` on a float
                lhs = np.float_power(distance(spec, p, s), a1)
                rhs = (np.float_power(distance(spec, p, q), a1)
                       + np.float_power(distance(spec, q, s), a1))
                assert np.all(lhs <= rhs + 1e-12 * np.maximum(lhs, 1.0))
            for t in (0.5, 2.0):
                for block in random_row_blocks(spec, rng, 200, 2, 5.0):
                    p, q = block[:, 0], block[:, 1]
                    d = distance(spec, p, q)
                    keep = d != 0.0
                    d2 = distance(spec, dilate(spec, t, p[keep]), dilate(spec, t, q[keep]))
                    d = d[keep]
                    assert np.all(np.abs(d2 - t * d) <= 1e-12 * t * d)
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
        for block in random_row_blocks(SPEC_R2, rng, 10_000, 2, 5.0):
            p, q = block[:, 0], block[:, 1]
            d = distance(SPEC_R2, p, q)
            keep = d != 0.0
            t, d = pair_to_point(spec, p[keep], q[keep]), d[keep]
            assert np.all(np.abs(np.exp(t) - d) <= 1e-12 * d)
        after_pairs = rng.bit_generator.state
        for a in (-1.5, 0.0, 0.8):
            bd = boundary_of_height_isometry(spec, a)
            assert bd.stretch == math.exp(a)
            assert all(np.array_equal(r, np.eye(r.shape[0])) for r in bd.rotations)
            assert all(np.array_equal(b, np.zeros(b.shape)) for b in bd.translations)
        for _ in range(200):
            a, b = rng.uniform(-1.5, 1.5, 2)
            lhs = boundary_of_height_isometry(spec, a).compose(
                boundary_of_height_isometry(spec, b)
            )
            rhs = boundary_of_height_isometry(spec, a + b)
            x = reference.random_point(SPEC_R2, rng, 2.0)
            scale = max(1.0, float(np.max(np.abs(rhs(x).flat()))))
            assert float(np.max(np.abs(lhs(x).flat() - rhs(x).flat()))) <= 1e-12 * scale
    # the pairs are the draws of one point at a time
    assert after_pairs == _per_point_state(1, [(SPEC_R2, 2 * 10_000)])


def test_symmetric_space_suite():
    with _Criterion("symmetric-space", 60.0):
        rng = np.random.default_rng(2)

        def random_spd(n=3):
            qmat = np.linalg.qr(rng.normal(size=(n, n)))[0]
            return conf_class(qmat @ np.diag(np.exp(rng.uniform(-1.2, 1.2, n))) @ qmat.T)

        def random_gl(n=3):
            u, _ = np.linalg.qr(rng.normal(size=(n, n)))
            v, _ = np.linalg.qr(rng.normal(size=(n, n)))
            return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v

        for _ in range(1000):
            a, b, c = random_spd(), random_spd(), random_spd()
            assert kdist(a, a) <= 1e-10
            assert abs(kdist(a, b) - kdist(b, a)) <= 1e-10
            assert kdist(a, c) <= kdist(a, b) + kdist(b, c) + 1e-10
            x = random_gl()
            assert abs(kdist(act(x, a), act(x, b)) - kdist(a, b)) <= 1e-10
        for _ in range(100):
            pts = [random_spd() for _ in range(5)]
            x = random_gl()
            moved = circumcenter([act(x, p) for p in pts], max_iters=600)
            assert ddist(moved, act(x, circumcenter(pts, max_iters=600))) <= 1e-6
        for _ in range(20):
            a = random_spd()
            assert kdist(np.eye(3), circumcenter([a, np.linalg.inv(a)])) <= 1e-9


def test_one_dimensional_conjugation():
    with _Criterion("1d-conjugation", 120.0):
        sample = piecewise_1d_sample(word_len=12)
        h = 1e-3
        lo, hi = -3.0, 3.0
        pad = sample.word_len + 2
        xs = np.arange(lo - pad + 0.5 * h, hi + pad, h)
        sup_len = int(max(abs(lo - pad), abs(hi + pad))) + 2
        mu = sup_measure_1d(sample, xs, word_len=sup_len)
        conj = conjugator_1d(mu)
        report = verify_conjugation(
            sample, conj, np.linspace(lo, hi - 1.0, 7), probe_step=1.0, tol=1e-3
        )
        assert report.passed, f"max conjugation defect {report.max_defect}"


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
        for fixture in (exact_r1_fixture, exact_r2_fixture):
            gens, gamma_p, levels = fixture()
            probes = default_probes(gens[0].dims)
            cert = approx_lth_root(gamma_p, range(len(gens)), levels, 2)
            assert (cert.gamma_prime * cert.eta).equals(gamma_p, probes)
            assert (cert.gamma_prime ** 2).equals(root_power_word(cert, gens), probes)
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
        # oscillation and displacement bounds on the bundled kernel elements
        rng = np.random.default_rng(4)
        for gamma in (oscillating_kernel_element(), unit_translation_1d()):
            spec = gamma.spec
            pts = [
                BlockPoint(tuple(rng.uniform(-5, 5, n) for n in spec.multiplicities))
                for _ in range(10_000)
            ]
            for i in range(spec.r):
                vals = np.asarray([gamma.perturbations[i](p.blocks) for p in pts])
                osc = float(np.max(vals) - np.min(vals))
                assert osc <= epsilon_bound(gamma, i) + 1e-12
            bound = displacement_bound(gamma, [gamma])
            worst = max(float(np.linalg.norm(gamma(p).flat() - p.flat())) for p in pts[:1000])
            assert worst <= bound + 1e-12


def test_reciprocity_and_homomorphisms():
    with _Criterion("reciprocity-homs", 10.0):
        assert check_reciprocity(matched_boundary_pair()).passed
        verdict = check_reciprocity(mismatched_boundary_pair())
        assert not verdict.passed
        drift = np.asarray(verdict.drift)
        assert len(drift) > 0
        assert np.allclose(np.diff(np.log(drift)), math.log(2.0 / 3.0))

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
                rotation_hom(comp),
                [a @ b for a, b in zip(rotation_hom(g1), rotation_hom(g2))],
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
        assert cli_main(["all", "--seed", "11", "--out", str(d1)]) == 0
        assert cli_main(["all", "--seed", "11", "--out", str(d2)]) == 0
        (r1,) = sorted(d1.glob("*.json"))
        (r2,) = sorted(d2.glob("*.json"))
        assert r1.name == r2.name
        assert r1.read_bytes() == r2.read_bytes()
        assert json.loads(r1.read_text())["passed"]
