"""Command-line entry point: config ingestion, pipeline orchestration, and
deterministic JSON report emission.

Reports carry no timestamps and are serialized with sorted keys, so a fixed
seed yields byte-identical artifacts; files are named by content hash and
never rewritten.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fixtures
from .conformal import act, conf_class, ddist, kdist, solve_circumcenter
from .errors import InputError, SolvRigidError
from .mapalg import ASimMap, SimMap, classify, height_hom, stretch_hom
from .nilpotent import (
    approx_lth_root,
    default_probes,
    epsilon_bound,
    root_power_word,
)
from .quasimetric import ChainGrid, chain_energy, dilate_rows, distance, distance_rows
from .solvgroup import (
    SolvPoint,
    SolvSpec,
    boundary_of_height_isometry,
    identity_point,
    inverse,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
    pair_to_point_heights,
    VerticalGeodesic,
)
from .spectral import BlockPoint, SpectralData, random_pairs, random_point, random_row_blocks
from .tukia import conjugator_1d, sup_measure_1d, verify_conjugation


class ConfigError(SolvRigidError):
    """Config does not match the schema; message carries a JSON pointer."""


# key: (accepted JSON types, least allowed value or None, whether that value
# itself is excluded); every number must also be finite, since Python's json
# reads NaN and Infinity and a report must stay standard JSON
_SCHEMA = {
    "spec": (dict, None, False),
    "seed": (int, 0, False),
    "triples": (int, 1, False),
    "pairs": (int, 1, False),
    "beta": ((int, float), 0, True),
    "grid": (dict, None, False),
    "word_len": (int, 1, False),
    "tolerance": ((int, float), 0, True),
    "conjugation_tol": ((int, float), 0, True),
    "root_order": (int, 1, False),
    "probe_count": (int, 1, False),
}

_GRID_SCHEMA = {"lo": (int, float), "hi": (int, float), "resolution": (int, float)}

# Most grid points run_conjugate may build: about 80 MB per float array.
MAX_GRID_POINTS = 10**7


def _as_float(val) -> float:
    """A JSON number as a float; an int beyond float range reads inf."""
    try:
        return float(val)
    except OverflowError:
        return math.inf


def _conjugate_grid_range(lo: float, hi: float, word_len: int) -> tuple[int, int]:
    """Ends of the conjugation grid: [lo, hi] widened so it covers every word
    image of every probe (words drift by at most word_len + 1)."""
    return math.floor(lo) - word_len - 2, math.ceil(hi) + word_len + 2


@dataclass
class RunConfig:
    """Single-document run configuration with schema-checked JSON round trip."""

    spec: SpectralData = field(default_factory=lambda: SpectralData((2.0, 3.0), (1, 1)))
    seed: int = 0
    triples: int = 2000
    pairs: int = 2000
    beta: float = 3.0
    grid_lo: float = -3.0
    grid_hi: float = 3.0
    grid_resolution: float = 0.01
    word_len: int = 6
    tolerance: float = 1e-9
    conjugation_tol: float = 1e-3
    root_order: int = 2
    probe_count: int = 500

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("/: config must be a JSON object")
        for key, val in obj.items():
            if key not in _SCHEMA:
                raise ConfigError(f"/{key}: unknown config key")
            types, least, strict = _SCHEMA[key]
            if not isinstance(val, types) or isinstance(val, bool):
                raise ConfigError(f"/{key}: expected {types}, got {type(val).__name__}")
            if not isinstance(val, dict) and not math.isfinite(_as_float(val)):
                raise ConfigError(f"/{key}: must be finite, got {_as_float(val)}")
            if least is not None and (val <= least if strict else val < least):
                bound = "greater than" if strict else "at least"
                raise ConfigError(f"/{key}: must be {bound} {least}, got {val}")
        cfg = RunConfig()
        if "spec" in obj:
            try:
                cfg.spec = SpectralData.from_json(obj["spec"])
            except InputError as exc:
                raise ConfigError(f"/spec: {exc}") from exc
        if "grid" in obj:
            for key, val in obj["grid"].items():
                if key not in _GRID_SCHEMA:
                    raise ConfigError(f"/grid/{key}: unknown grid key")
                if not isinstance(val, _GRID_SCHEMA[key]) or isinstance(val, bool):
                    raise ConfigError(f"/grid/{key}: expected a number")
            cfg.grid_lo = _as_float(obj["grid"].get("lo", cfg.grid_lo))
            cfg.grid_hi = _as_float(obj["grid"].get("hi", cfg.grid_hi))
            cfg.grid_resolution = _as_float(obj["grid"].get("resolution", cfg.grid_resolution))
            if not (math.isfinite(cfg.grid_lo) and math.isfinite(cfg.grid_hi)
                    and math.isfinite(cfg.grid_resolution)
                    and cfg.grid_lo < cfg.grid_hi and cfg.grid_resolution > 0):
                raise ConfigError("/grid: requires finite lo < hi and finite resolution > 0")
        for key in obj.keys() - {"spec", "grid"}:
            setattr(cfg, key, obj[key] if _SCHEMA[key][0] is int else float(obj[key]))
        lo, hi = _conjugate_grid_range(cfg.grid_lo, cfg.grid_hi, cfg.word_len)
        try:
            points = (hi - lo) / cfg.grid_resolution
        except OverflowError:  # a span of ints beyond float range
            points = math.inf
        if not points <= MAX_GRID_POINTS:
            raise ConfigError(
                f"/grid/resolution: the conjugation grid would hold {points:.3g} points "
                f"(lo, hi and word_len {cfg.word_len} included), more than {MAX_GRID_POINTS}"
            )
        return cfg

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "seed": self.seed,
            "triples": self.triples,
            "pairs": self.pairs,
            "beta": self.beta,
            "grid": {"lo": self.grid_lo, "hi": self.grid_hi, "resolution": self.grid_resolution},
            "word_len": self.word_len,
            "tolerance": self.tolerance,
            "conjugation_tol": self.conjugation_tol,
            "root_order": self.root_order,
            "probe_count": self.probe_count,
        }


def _check(name: str, passed: bool, defect: float, **extra) -> dict:
    out = {"name": name, "passed": bool(passed), "defect": float(defect)}
    out.update(extra)
    return out


# -- subcommand suites -------------------------------------------------------


def run_metric(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    spec = cfg.spec
    a1 = spec.exponents[0]
    tri_worst = 0.0
    sym_worst = 0.0
    for block in random_row_blocks(spec, rng, cfg.triples, 3, 3.0):
        p, q, s = block[:, 0], block[:, 1], block[:, 2]
        dpq, dqs = distance_rows(spec, p, q), distance_rows(spec, q, s)
        dps = distance_rows(spec, p, s)
        slack = dps**a1 - (dpq**a1 + dqs**a1)
        tri_worst = max(tri_worst, float(np.max(slack / np.maximum(dps**a1, 1.0))))
        sym_worst = max(sym_worst, float(np.max(np.abs(dpq - distance_rows(spec, q, p)))))
    dil_worst = 0.0
    for t in (0.5, 2.0, 3.0):
        for block in random_row_blocks(spec, rng, 200, 2, 3.0):
            p, q = block[:, 0], block[:, 1]
            d = distance_rows(spec, p, q)
            keep = d != 0.0
            d2 = distance_rows(spec, dilate_rows(spec, t, p[keep]), dilate_rows(spec, t, q[keep]))
            td = t * d[keep]
            dil_worst = max(dil_worst, float(np.max(np.abs(d2 - td) / td, initial=0.0)))
    x0 = BlockPoint.zero(spec)
    x1 = BlockPoint(tuple(
        (np.ones(n) if i == 0 else np.zeros(n)) for i, n in enumerate(spec.multiplicities)
    ))
    est = chain_energy(spec, cfg.beta, x0, x1, ChainGrid(resolution=16, max_depth=12))
    return [
        _check("triangle-inequality", tri_worst <= 1e-12, tri_worst),
        _check("symmetry", sym_worst == 0.0, sym_worst),
        _check("dilation-similarity", dil_worst <= 1e-12, dil_worst),
        _check(
            "chain-energy-decreasing",
            est.last_decrement >= 0.0,
            -min(est.last_decrement, 0.0),
            value=est.value,
            rounds=est.rounds,
        ),
    ]


def run_geodesic(cfg: RunConfig, rng: np.random.Generator, out_dir: Path | None = None) -> list[dict]:
    spec = SolvSpec(lower=cfg.spec)
    worst_pair = 0.0
    for block in random_row_blocks(cfg.spec, rng, cfg.pairs, 2, 3.0):
        p, q = block[:, 0], block[:, 1]
        d = distance_rows(cfg.spec, p, q)
        keep = d != 0.0
        t, d = pair_to_point_heights(spec, p[keep], q[keep]), d[keep]
        worst_pair = max(worst_pair, float(np.max(np.abs(np.exp(t) - d) / d, initial=0.0)))
    worst_bisect = 0.0
    for p, q in random_pairs(cfg.spec, rng, 20, 3.0):
        d = distance(cfg.spec, p, q)
        if d == 0.0:
            continue
        t_closed = pair_to_point(spec, p, q).height
        worst_bisect = max(worst_bisect, abs(t_closed - pair_to_point_bisect(spec, p, q)))
    comp_worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(-1.5, 1.5, 2)
        lhs = boundary_of_height_isometry(spec, a).compose(boundary_of_height_isometry(spec, b))
        rhs = boundary_of_height_isometry(spec, a + b)
        p = random_point(cfg.spec, rng, 2.0)
        scale = max(1.0, float(np.max(np.abs(rhs(p).flat()))))
        comp_worst = max(
            comp_worst, float(np.max(np.abs(lhs(p).flat() - rhs(p).flat()))) / scale
        )
    ident = identity_point(spec)
    grp_worst = 0.0
    for _ in range(100):
        g = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        h = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        k = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        assoc = multiply(spec, multiply(spec, g, h), k)
        assoc2 = multiply(spec, g, multiply(spec, h, k))
        grp_worst = max(grp_worst, abs(assoc.height - assoc2.height))
        grp_worst = max(grp_worst, float(np.max(np.abs(assoc.x.flat() - assoc2.x.flat()))))
        inv = multiply(spec, g, inverse(spec, g))
        grp_worst = max(grp_worst, abs(inv.height - ident.height))
        grp_worst = max(grp_worst, float(np.max(np.abs(inv.x.flat()))))
    checks = [
        _check("pair-to-point-exp-height", worst_pair <= 1e-12, worst_pair),
        _check("pair-to-point-bisect-oracle", worst_bisect <= 1e-9, worst_bisect),
        _check("boundary-composition-law", comp_worst <= 1e-12, comp_worst),
        _check("group-law", grp_worst <= 1e-12, grp_worst),
    ]
    if out_dir is not None:
        geo = VerticalGeodesic(anchor=(random_point(cfg.spec, rng), None))
        rows = geo.sample_csv_rows(np.linspace(-2.0, 2.0, 41))
        text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in rows) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = out_dir / f"geodesic-samples-{digest}.csv"
        if not path.exists():
            path.write_text(text)
    return checks


def run_classify(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    spec = fixtures.SPEC_NIL
    samples = random_pairs(spec, rng, 300, 3.0)
    sim = SimMap.dilation(spec, 2.0)
    c_sim = classify(spec, sim, samples)
    asim = ASimMap(SimMap.dilation(spec, 1.5), fixtures.oscillating_kernel_element())
    c_asim = classify(spec, asim, samples)
    hom_worst = 0.0
    for _ in range(200):
        t1, t2 = rng.uniform(0.5, 2.0, 2)
        s1, s2 = SimMap.dilation(spec, float(t1)), SimMap.dilation(spec, float(t2))
        hom_worst = max(
            hom_worst, abs(height_hom(s1.compose(s2)) - height_hom(s1) - height_hom(s2))
        )
    v = stretch_hom([SimMap.dilation(spec, 2.0), SimMap.dilation(spec, 4.0)], [[1.0], [2.0]])
    stretch_res = abs(float(v[0]) - math.log(2.0))
    return [
        _check("similarity-classified", c_sim.kind == "Sim", 0.0 if c_sim.kind == "Sim" else 1.0,
               kind=c_sim.kind, stretch=c_sim.stretch),
        _check("almost-similarity-classified", c_asim.kind == "ASim",
               0.0 if c_asim.kind == "ASim" else 1.0, kind=c_asim.kind, K=c_asim.K),
        _check("height-hom-additive", hom_worst <= 1e-9, hom_worst),
        _check("stretch-hom-pairing", stretch_res <= 1e-9, stretch_res),
    ]


def run_conformal(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    def random_spd(n=3):
        # moderate log-eigenvalue spread keeps the eigensolver well inside
        # the 1e-10 invariance tolerance
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return conf_class(q @ np.diag(np.exp(rng.uniform(-1.2, 1.2, n))) @ q.T)

    def random_gl(n=3):
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ v

    tri_worst = 0.0
    inv_worst = 0.0
    for _ in range(200):
        a, b, c = random_spd(), random_spd(), random_spd()
        tri_worst = max(tri_worst, kdist(a, c) - kdist(a, b) - kdist(b, c))
        x = random_gl()
        inv_worst = max(inv_worst, abs(kdist(act(x, a), act(x, b)) - kdist(a, b)))

    def center_of(classes, gaps):
        # an uncertified center (gap above tolerance) fails its check
        # instead of ending the run
        res = solve_circumcenter(classes, tol=cfg.tolerance)
        gaps.append(res.gap)
        return res.center

    sym_gaps, eq_gaps = [], []
    a = random_spd()
    sym_defect = kdist(np.eye(3), center_of([a, np.linalg.inv(a)], sym_gaps))
    eq_worst = 0.0
    for _ in range(5):
        pts = [random_spd() for _ in range(5)]
        x = random_gl()
        moved = center_of([act(x, p) for p in pts], eq_gaps)
        eq_worst = max(eq_worst, ddist(moved, act(x, center_of(pts, eq_gaps))))
    sym_gap, eq_gap = max(sym_gaps), max(eq_gaps)
    return [
        _check("kdist-triangle", tri_worst <= 1e-10, tri_worst),
        _check("kdist-gl-invariance", inv_worst <= 1e-10, inv_worst),
        _check("circumcenter-symmetric-pair", sym_defect <= 1e-9 and sym_gap <= cfg.tolerance,
               sym_defect, certified_gap=sym_gap),
        _check("circumcenter-equivariance", eq_worst <= 1e-6 and eq_gap <= cfg.tolerance,
               eq_worst, certified_gap=eq_gap),
    ]


def run_conjugate(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    sample = fixtures.piecewise_1d_sample(word_len=cfg.word_len)
    # the grid is offset by half a cell so the sup measure's jump points land
    # mid-cell, where the trapezoid rule is exact
    h = cfg.grid_resolution
    lo, hi = _conjugate_grid_range(cfg.grid_lo, cfg.grid_hi, cfg.word_len)
    xs = np.arange(lo + 0.5 * h, hi, h)
    sup_len = int(max(abs(lo), abs(hi))) + 2
    mu = sup_measure_1d(sample, xs, word_len=sup_len)
    conj = conjugator_1d(mu)
    probes = np.linspace(cfg.grid_lo, cfg.grid_hi - 1.0, 7)
    report = verify_conjugation(sample, conj, probes, probe_step=1.0, tol=cfg.conjugation_tol)
    mono = float(np.min(np.diff(conj.values)))
    return [
        _check("conjugator-strictly-increasing", mono > 0.0, -min(mono, 0.0)),
        _check(
            "conjugated-words-similar",
            report.passed,
            report.max_defect,
            words=len(report.verdicts),
        ),
    ]


def run_roots(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    checks = []
    for name, fixture in (("r1", fixtures.exact_r1_fixture), ("r2", fixtures.exact_r2_fixture)):
        gens, gamma_p, levels = fixture()
        probes = default_probes(gens[0].dims)
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, cfg.root_order)
        power = cert.gamma_prime ** cfg.root_order
        target = root_power_word(cert, gens)
        exact_pow = power.equals(target, probes)
        recon = cert.gamma_prime * cert.eta
        exact_rec = recon.equals(gamma_p, probes)
        checks.append(_check(f"root-{name}-power-exact", exact_pow, 0.0 if exact_pow else 1.0,
                             coefficients={str(k): v for k, v in cert.coefficients.items()}))
        checks.append(_check(f"root-{name}-factorization-exact", exact_rec,
                             0.0 if exact_rec else 1.0))
    gamma = fixtures.oscillating_kernel_element()
    spec = gamma.spec
    worst_ratio = 0.0
    for i in range(spec.r):
        bound = epsilon_bound(gamma, i)
        if bound == 0.0:
            continue
        vals = np.array([gamma.perturbations[i](random_point(spec, rng, 4.0).blocks)
                         for _ in range(cfg.probe_count)])
        # pairwise distances, a block of rows at a time so memory stays linear
        rows = max(1, 2**12 // len(vals))
        osc = max(float(np.linalg.norm(vals[j:j + rows, None] - vals[None], axis=-1).max())
                  for j in range(0, len(vals), rows))
        worst_ratio = max(worst_ratio, osc / bound)
    checks.append(_check("epsilon-bound-dominates", worst_ratio <= 1.0, max(worst_ratio - 1.0, 0.0)))
    return checks


_SUITES = {
    "metric": run_metric,
    "geodesic": run_geodesic,
    "classify": run_classify,
    "conformal": run_conformal,
    "conjugate": run_conjugate,
    "roots": run_roots,
}


def run(subcommand: str, cfg: RunConfig, out_dir: Path, verbose: bool = False) -> int:
    """Execute a suite, write its content-addressed report, return exit status."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(_SUITES) if subcommand == "all" else [subcommand]
    checks = []
    for name in names:
        rng = np.random.default_rng(cfg.seed)
        suite = _SUITES[name]
        if name == "geodesic":
            results = suite(cfg, rng, out_dir=out_dir)
        else:
            results = suite(cfg, rng)
        for c in results:
            c["suite"] = name
        checks.extend(results)
    passed = all(c["passed"] for c in checks)
    report = {
        "subcommand": subcommand,
        "seed": cfg.seed,
        "config": cfg.to_json(),
        "checks": checks,
        "passed": passed,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    path = out_dir / f"{subcommand}-{digest}.json"
    if not path.exists():
        path.write_text(text)
    if verbose:
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            print(f"[{status}] {c['suite']}/{c['name']}: defect {c['defect']:.3e}")
    print(path)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="solvrigid", description=__doc__)
    parser.add_argument(
        "subcommand",
        choices=["metric", "geodesic", "classify", "conformal", "conjugate", "roots", "all"],
    )
    parser.add_argument("--config", type=Path, default=None, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("reports"), help="report directory")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            with open(args.config) as fh:
                cfg = RunConfig.from_json(json.load(fh))
        else:
            cfg = RunConfig()
        if args.seed is not None:
            cfg = RunConfig.from_json({**cfg.to_json(), "seed": args.seed})
    except (OSError, ValueError, ConfigError) as exc:  # ValueError: bad JSON, UTF-8 or digits
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg, args.out, verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
