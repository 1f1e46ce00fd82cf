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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import fixtures
from .conformal import CircumcenterResult, act, conf_class, ddist, kdist, solve_circumcenter
from .errors import InputError, SolvRigidError
from .mapalg import ASimMap, SimMap, classify, height_hom, stretch_hom
from .nilpotent import (
    approx_lth_root,
    default_probes,
    epsilon_bound,
    oscillation,
    root_power_word,
)
from .quasimetric import ChainGrid, chain_energy, dilate, distance, enumerate_chain_cost
from .solvgroup import (
    SolvPoint,
    SolvSpec,
    boundary_of_height_isometry,
    inverse,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
    VerticalGeodesic,
)
from .spectral import SpectralData, join_blocks, random_row_blocks, split_rows
from .tukia import conjugator_1d, sup_measure_1d, verify_conjugation


class ConfigError(SolvRigidError):
    """Config does not match the schema; message carries a JSON pointer."""


_NUMBER = (int, float)


def _as_float(val) -> float:
    """A JSON number as a float; an int beyond float range reads inf."""
    try:
        return float(val)
    except OverflowError:
        return math.inf


def _key(pointer: str, types, default, least=None, strict=False):
    """A config field: its JSON pointer, accepted JSON types, default, and least
    allowed value (None for no bound; ``strict`` excludes the value itself).
    Every number must also be finite, since Python's json reads NaN and
    Infinity and a report must stay standard JSON."""
    meta = {"pointer": pointer, "schema": (types, least, strict)}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """Single-document run configuration with schema-checked JSON round trip.

    Each field's metadata gives its JSON key (``grid`` fields sit in one
    object), accepted types and bound; it drives from_json and to_json.
    """

    spec: SpectralData = _key("spec", dict, lambda: SpectralData((2.0, 3.0), (1, 1)))
    seed: int = _key("seed", int, 0, least=0)
    triples: int = _key("triples", int, 2000, least=1)
    pairs: int = _key("pairs", int, 2000, least=1)
    beta: float = _key("beta", _NUMBER, 3.0, least=0, strict=True)
    grid_lo: float = _key("grid/lo", _NUMBER, -3.0)
    grid_hi: float = _key("grid/hi", _NUMBER, 3.0)
    word_len: int = _key("word_len", int, 6, least=1)
    tolerance: float = _key("tolerance", _NUMBER, 1e-9, least=0, strict=True)
    conjugation_tol: float = _key("conjugation_tol", _NUMBER, 1e-12, least=0, strict=True)
    root_order: int = _key("root_order", int, 2, least=1)
    probe_count: int = _key("probe_count", int, 500, least=1)

    @staticmethod
    def from_json(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("/: config must be a JSON object")
        # each key's path and value; a key with members, as grid, gives its members' paths
        given = {}
        for key, val in obj.items():
            if not any(len(path) > 1 and path[0] == key for path in _FIELDS):
                given[(key,)] = val
            elif isinstance(val, dict):
                given.update(((key, member), v) for member, v in val.items())
            else:
                raise ConfigError(f"/{key}: expected an object, got {type(val).__name__}")
        cfg = RunConfig()
        for path, val in given.items():
            # its JSON pointer (RFC 6901): in each key ~ reads ~0 and / reads ~1
            pointer = "".join("/" + str(key).replace("~", "~0").replace("/", "~1") for key in path)
            if path not in _FIELDS:
                raise ConfigError(f"{pointer}: unknown config key")
            types, least, strict = _FIELDS[path].metadata["schema"]
            if not isinstance(val, types) or isinstance(val, bool):
                raise ConfigError(f"{pointer}: expected {types}, got {type(val).__name__}")
            if types is dict:
                try:
                    val = SpectralData.from_json(val)
                except InputError as exc:
                    raise ConfigError(f"{pointer}: {exc}") from exc
            elif not math.isfinite(_as_float(val)):
                raise ConfigError(f"{pointer}: must be finite, got {_as_float(val)}")
            elif least is not None and (val <= least if strict else val < least):
                bound = "greater than" if strict else "at least"
                raise ConfigError(f"{pointer}: must be {bound} {least}, got {val}")
            setattr(cfg, _FIELDS[path].name, float(val) if types is _NUMBER else val)
        if not cfg.grid_lo < cfg.grid_hi:
            raise ConfigError(f"/grid: requires lo < hi, got {cfg.grid_lo} and {cfg.grid_hi}")
        return cfg

    def to_json(self) -> dict:
        out: dict = {}
        for path, f in _FIELDS.items():
            val = getattr(self, f.name)
            *outer, key = path
            target = out.setdefault(outer[0], {}) if outer else out
            target[key] = val.to_json() if isinstance(val, SpectralData) else val
        return out


# each field by its path of JSON keys, as ("grid", "lo")
_FIELDS = {tuple(f.metadata["pointer"].split("/")): f for f in fields(RunConfig)}


def _check(name: str, defect, tolerance: float, **extra) -> dict:
    """A check record, the one pass rule: the check passes when its defect is at most its
    tolerance. A number in it that is not finite reads null and fails the check, and so does a
    defect that is not a number (a bool, as a pass flag given in the defect's place)."""
    number = not isinstance(defect, (bool, np.bool_))
    # + 0.0 writes a zero defect as 0.0, never -0.0
    out = {"name": name, "defect": float(defect) + 0.0 if number else math.nan,
           "tolerance": float(tolerance), **extra}
    bad = [k for k, v in out.items() if isinstance(v, float) and not math.isfinite(v)]
    return {**out, **dict.fromkeys(bad), "passed": not bad and out["defect"] <= out["tolerance"]}


def _worst(values) -> float:
    """The largest of the values and 0, NaN if one is NaN: a NaN defect fails its check."""
    return float(np.max(values, initial=0.0))


# -- checks: each takes drawn samples and holds the one copy of its formula, reduction and
# tolerance; the suites below and the acceptance gate draw the samples at their own sizes --


def _metric_checks(spec: SpectralData, triples, scaled_pairs) -> list[dict]:
    """On (p, q, s) rows of (m, 3, D) blocks: triangle-inequality, (d(p, s)^a1 - d(p, q)^a1 -
    d(q, s)^a1) / max(d(p, s)^a1, 1) <= 1e-12. On (t, (m, 2, D) block) draws:
    dilation-similarity, |d(t.p, t.q) - t d(p, q)| / (t d(p, q)) <= 1e-12, d > 0."""
    a1 = spec.exponents[0]
    tri, dil = [], []
    for block in triples:
        p, q, s = block[:, 0], block[:, 1], block[:, 2]
        dpq, dqs, dps = distance(spec, p, q), distance(spec, q, s), distance(spec, p, s)
        with np.errstate(invalid="ignore"):
            tri.append(np.max((dps**a1 - (dpq**a1 + dqs**a1)) / np.maximum(dps**a1, 1.0)))
    for t, block in scaled_pairs:
        p, q = block[:, 0], block[:, 1]
        d = distance(spec, p, q)
        keep = d != 0.0
        d2 = distance(spec, dilate(spec, t, p[keep]), dilate(spec, t, q[keep]))
        td = t * d[keep]
        with np.errstate(invalid="ignore"):
            dil.append(np.max(np.abs(d2 - td) / td, initial=0.0))
    return [_check("triangle-inequality", _worst(tri), 1e-12),
            _check("dilation-similarity", _worst(dil), 1e-12)]


def _pair_to_point_check(spec: SolvSpec, pairs) -> dict:
    """pair-to-point-exp-height: |e^t - d(p, q)| / d(p, q) <= 1e-12 at the height t of the (p, q)
    rows of (m, 2, D) blocks, pairs at distance 0 left out."""
    worst = []
    for block in pairs:
        p, q = block[:, 0], block[:, 1]
        d = distance(spec.lower, p, q)
        keep = d != 0.0
        t, d = pair_to_point(spec, p[keep], q[keep]), d[keep]
        with np.errstate(invalid="ignore"):
            worst.append(np.max(np.abs(np.exp(t) - d) / d, initial=0.0))
    return _check("pair-to-point-exp-height", _worst(worst), 1e-12)


def _composition_check(spec: SolvSpec, draws: np.ndarray) -> dict:
    """boundary-composition-law: per (a, b, p) row of draws, |(a) o (b) - (a + b)| at p over
    max(1, |(a + b)(p)|), sup norms, <= 1e-12; (a) is the boundary map of height a."""
    a, b, p = draws[:, 0], draws[:, 1], split_rows(spec.lower, draws[:, 2:])
    lhs = boundary_of_height_isometry(spec, a).compose(boundary_of_height_isometry(spec, b))
    rhs = boundary_of_height_isometry(spec, a + b)
    want, got = (join_blocks(f.eval_blocks(p)) for f in (rhs, lhs))
    with np.errstate(invalid="ignore"):
        worst = _worst(np.abs(got - want).max(1) / np.maximum(1.0, np.abs(want).max(1)))
    return _check("boundary-composition-law", worst, 1e-12)


def _kdist_checks(abc: np.ndarray, x: np.ndarray) -> list[dict]:
    """kdist-triangle, kdist(a, c) - kdist(a, b) - kdist(b, c), and kdist-gl-invariance,
    |kdist(x.a, x.b) - kdist(a, b)|, each <= 1e-10, for (N, 3, 3, 3) classes and (N, 3, 3) x."""
    moved = act(x.repeat(2, axis=0), abc[:, :2].reshape(-1, 3, 3)).reshape(len(x), 2, 3, 3)
    # a, b, c, x.a, x.b per sample; one kdist stack of ac, ab, bc, (x.a, x.b)
    pts = np.concatenate([abc, moved], axis=1)
    ac, ab, bc, xab = kdist(pts[:, [0, 0, 1, 3]].reshape(-1, 3, 3),
                            pts[:, [2, 1, 2, 4]].reshape(-1, 3, 3)).reshape(-1, 4).T
    return [_check("kdist-triangle", _worst(ac - ab - bc), 1e-10),
            _check("kdist-gl-invariance", _worst(np.abs(xab - ab)), 1e-10)]


def _moved_and_drawn(sets: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Each (k, 3, 3) set moved by its action in xs, then as drawn: the equivariance batch."""
    moved = act(xs.repeat(sets.shape[1], axis=0), sets.reshape(-1, 3, 3)).reshape(sets.shape)
    return np.stack([moved, sets], axis=1).reshape(-1, *sets.shape[1:])


def _circumcenter_checks(sym: CircumcenterResult, eq: CircumcenterResult, xs, tol) -> list[dict]:
    """circumcenter-symmetric-pair: kdist(I, center) <= 1e-9 over the batch sym of sets {a, a^-1},
    whose center is I; circumcenter-equivariance: ddist(center of x.S, x.(center of S)) <= 1e-6
    over the batch eq of _moved_and_drawn(S, xs); circumcenter-certified: every certified gap of
    both batches <= tol, recording the worst center_bound, the most iterations and the count of
    each exit over both."""
    exits = np.append(sym.exit, eq.exit).tolist()
    return [_check("circumcenter-symmetric-pair", _worst(kdist(np.eye(3), sym.center)), 1e-9),
            _check("circumcenter-equivariance",
                   _worst(ddist(eq.center[0::2], act(xs, eq.center[1::2]))), 1e-6),
            _check("circumcenter-certified", _worst(np.append(sym.gap, eq.gap)), tol,
                   center_bound=_worst(np.append(sym.center_bound, eq.center_bound)),
                   iterations=int(max(sym.iterations.max(), eq.iterations.max())),
                   exits={e: exits.count(e) for e in sorted(set(exits))})]


def _root_checks(name: str, gens, gamma_p, cert, order: int) -> list[dict]:
    """root-<name>-power-exact: (gamma')^order is the certificate's word of generator powers;
    root-<name>-factorization-exact: gamma' eta is gamma_p. Exact, on the default probes."""
    probes = default_probes(gens[0].dims)
    power = (cert.gamma_prime ** order).equals(root_power_word(cert, gens), probes)
    factors = (cert.gamma_prime * cert.eta).equals(gamma_p, probes)
    return [_check(f"root-{name}-power-exact", float(not power), 0.0,
                   coefficients={str(k): v for k, v in cert.coefficients.items()}),
            _check(f"root-{name}-factorization-exact", float(not factors), 0.0)]


# -- subcommand suites -------------------------------------------------------


def run_metric(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    spec = cfg.spec
    checks = _metric_checks(spec, random_row_blocks(spec, rng, cfg.triples, 3, 3.0),
                            ((t, block) for t in (0.5, 2.0, 3.0)
                             for block in random_row_blocks(spec, rng, 200, 2, 3.0)))
    # from 0 to the point whose first block is all ones; the closed form takes each block's
    # cheapest subdivision k over the rounds run, and the chain of the first k is enumerated
    x0, x1 = np.zeros(spec.total_dim), np.repeat(np.eye(spec.r)[0], spec.multiplicities)
    grid = ChainGrid(resolution=16, max_depth=12)
    est = chain_energy(spec, cfg.beta, x0, x1, grid)
    ks = grid.resolution * 2.0 ** np.arange(est.rounds)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        closed = sum(np.min(ks * np.float_power(np.linalg.norm(x1[s]) / ks, cfg.beta / a))
                     for a, s in zip(spec.exponents, spec.block_slices()))
        enumerated = enumerate_chain_cost(spec, cfg.beta, x0, x1, grid.resolution)
        # |value - closed| / closed and (value - enumerated) / enumerated; equal values agree
        excess = np.array([abs(est.value - closed), est.value - enumerated])
        oracle = _worst(np.divide(excess, [closed, enumerated], out=np.zeros(2), where=excess != 0))
    return checks + [_check("chain-energy-oracle", oracle, 1e-12, value=est.value,
                            rounds=est.rounds, last_decrement=est.last_decrement, exit=est.exit)]


def run_geodesic(cfg: RunConfig, rng: np.random.Generator, out_dir: Path | None = None) -> list[dict]:
    spec = SolvSpec(lower=cfg.spec)
    checks = [_pair_to_point_check(spec, random_row_blocks(cfg.spec, rng, cfg.pairs, 2, 3.0))]
    # the closed form on one pair at a time (the one-point path of
    # pair_to_point and distance), against the oracle bisecting every pair at once
    rows = next(random_row_blocks(cfg.spec, rng, 20, 2, 3.0))
    rows = rows[distance(cfg.spec, rows[:, 0], rows[:, 1]) != 0.0]
    t_closed = np.array([pair_to_point(spec, p, q) for p, q in rows])
    t_bisect = pair_to_point_bisect(spec, rows[:, 0], rows[:, 1])
    with np.errstate(invalid="ignore"):
        worst_bisect = _worst(np.abs(t_closed - t_bisect))
    checks.append(_check("pair-to-point-bisect-oracle", worst_bisect, 1e-9))
    # the per-sample loop's 50 draws (a, b, p) at once; member j of each stack maps point j
    bound = np.repeat([1.5, 2.0], [2, cfg.spec.total_dim])
    checks.append(_composition_check(spec, rng.uniform(-bound, bound, (50, len(bound)))))
    # the 100 triples (g, h, k) in one draw, the numbers of the per-triple
    # loop: per point a height, then its coordinates
    g, h, k = (SolvPoint(height=d[:, 0], x=d[:, 1:])
               for d in rng.uniform(-1, 1, (100, 3, 1 + cfg.spec.total_dim)).swapaxes(0, 1))
    assoc = multiply(spec, multiply(spec, g, h), k)
    assoc2 = multiply(spec, g, multiply(spec, h, k))
    inv = multiply(spec, g, inverse(spec, g))
    grp_worst = _worst([np.max(np.abs(assoc.height - assoc2.height)),
                        np.max(np.abs(assoc.x - assoc2.x)),
                        np.max(np.abs(inv.height)), np.max(np.abs(inv.x))])
    checks.append(_check("group-law", grp_worst, 1e-12))
    if out_dir is not None:
        geo = VerticalGeodesic(anchor=(rng.uniform(-1, 1, cfg.spec.total_dim), None))
        rows = geo.sample_csv_rows(np.linspace(-2.0, 2.0, 41))
        text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in rows) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        path = out_dir / f"geodesic-samples-{digest}.csv"
        if not path.exists():
            path.write_text(text)
    return checks


def run_classify(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    spec = fixtures.SPEC_NIL
    samples = np.concatenate(list(random_row_blocks(spec, rng, 300, 2, 3.0)))
    sim = SimMap(spec, 2.0)
    c_sim = classify(spec, sim, samples)
    asim = ASimMap(SimMap(spec, 1.5), fixtures.oscillating_kernel_element())
    c_asim = classify(spec, asim, samples)
    # the 200 pairs in one draw, the numbers of 200 draws of 2
    s1, s2 = (SimMap(spec, t) for t in rng.uniform(0.5, 2.0, (200, 2)).T)
    hom_worst = float(np.max(np.abs(height_hom(s1.compose(s2)) - height_hom(s1) - height_hom(s2))))
    v = stretch_hom([SimMap(spec, 2.0), SimMap(spec, 4.0)], [[1.0], [2.0]])
    stretch_res = abs(float(v[0]) - math.log(2.0))
    return [
        _check("similarity-classified", float(c_sim.kind != "Sim"), 0.0, kind=c_sim.kind,
               stretch=c_sim.stretch),
        _check("almost-similarity-classified", float(c_asim.kind != "ASim"), 0.0, kind=c_asim.kind,
               K=c_asim.K),
        _check("height-hom-additive", hom_worst, 1e-9),
        _check("stretch-hom-pairing", stretch_res, 1e-9),
    ]


def _draw_stacks(rng: np.random.Generator, count: int, spd: int, gl: int):
    """``count`` samples of ``spd`` class draws (rng.normal(size=(3, 3)), then
    rng.uniform(-1.2, 1.2, 3)) followed by ``gl`` action draws (two
    rng.normal(size=(3, 3)), then rng.uniform(0.5, 2.0, 3)), as (count,
    spd + 2 gl, 3, 3) normals and (count, spd + gl, 3) uniforms. The generator
    writes the same stream in place, so both equal the per-call draws bit for
    bit: numpy's normal is 0.0 + z and its uniform lo + (hi - lo) u."""
    normals, uniforms = np.empty((count, spd + 2 * gl, 3, 3)), np.empty((count, spd + gl, 3))
    for i in range(count):
        for j in range(spd):
            rng.standard_normal(out=normals[i, j])
            rng.random(out=uniforms[i, j])
        for j in range(spd, spd + gl):
            rng.standard_normal(out=normals[i, 2 * j - spd:2 * j - spd + 2])
            rng.random(out=uniforms[i, j])
    lo, hi = np.repeat([[-1.2, 1.2], [0.5, 2.0]], [spd, gl], axis=0).T[..., None]
    return normals + 0.0, lo + (hi - lo) * uniforms


def _draw_classes(rng: np.random.Generator, count: int, spd: int, gl: int):
    """_draw_stacks' samples as (count, spd, 3, 3) classes and (count, gl, 3, 3) actions; the
    classes' moderate log-eigenvalue spread keeps eigh well inside the kdist tolerance, 1e-10."""
    normals, uniforms = _draw_stacks(rng, count, spd, gl)
    q = np.linalg.qr(normals[:, :spd])[0]
    classes = conf_class(((q * np.exp(uniforms[:, :spd])[..., None, :]) @ q.mT).reshape(-1, 3, 3))
    u, v = np.linalg.qr(normals[:, spd::2])[0], np.linalg.qr(normals[:, spd + 1::2])[0]
    return classes.reshape(q.shape), (u * uniforms[:, spd:, None, :]) @ v


def run_conformal(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    # per sample, in the generator's order: classes a, b, c, then an action x
    abc, x = _draw_classes(rng, 200, 3, 1)
    checks = _kdist_checks(abc, x[:, 0])
    # an uncertified center (gap above tolerance) fails its check instead of
    # ending the run
    a = _draw_classes(rng, 1, 1, 0)[0][:, 0]
    sym = solve_circumcenter(np.stack([a, np.linalg.inv(a)], axis=1), tol=cfg.tolerance)
    # per set, in the generator's order: 5 classes, then an action x; one
    # batch solves each set moved by x and as drawn
    sets, xs = _draw_classes(rng, 5, 5, 1)
    eq = solve_circumcenter(_moved_and_drawn(sets, xs[:, 0]), tol=cfg.tolerance)
    return checks + _circumcenter_checks(sym, eq, xs[:, 0], cfg.tolerance)


def run_conjugate(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    sample = fixtures.piecewise_1d_sample(word_len=cfg.word_len)
    # the measure is exact at x once its depth reaches the bump [0, 1) from x; the check reads
    # it on the window and on the window moved by words of word_len letters
    depth = math.ceil(max(-cfg.grid_lo, cfg.grid_hi)) + cfg.word_len + 1
    conj = conjugator_1d(sup_measure_1d(sample, depth))
    defects = verify_conjugation(sample, conj, cfg.grid_lo, cfg.grid_hi)
    # the slopes that are not positive, NaN among them
    flat = np.count_nonzero(~(conj.slopes() > 0.0))
    return [_check("conjugator-strictly-increasing", flat, 0.0),
            _check("conjugated-words-similar", _worst(list(defects.values())),
                   cfg.conjugation_tol, words=len(defects))]


def run_roots(cfg: RunConfig, rng: np.random.Generator) -> list[dict]:
    checks = []
    for name, fixture in (("r1", fixtures.exact_r1_fixture), ("r2", fixtures.exact_r2_fixture)):
        gens, gamma_p, levels = fixture()
        cert = approx_lth_root(gamma_p, range(len(gens)), levels, cfg.root_order)
        checks += _root_checks(name, gens, gamma_p, cert, cfg.root_order)
    gamma = fixtures.oscillating_kernel_element()
    spec = gamma.spec
    ratios = []
    for i in range(spec.r):
        bound = epsilon_bound(gamma, i)
        if bound == 0.0:
            continue
        probes = np.concatenate(list(random_row_blocks(spec, rng, cfg.probe_count, 1, 4.0)))[:, 0]
        vals = gamma.perturbations[i](split_rows(spec, probes))
        vals = np.broadcast_to(vals, (len(probes), spec.multiplicities[i]))
        ratios.append(oscillation(vals) / bound)
    checks.append(_check("epsilon-bound-dominates", _worst(ratios), 1.0))
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
        if name == "geodesic":
            results = run_geodesic(cfg, rng, out_dir=out_dir)
        else:
            results = _SUITES[name](cfg, rng)
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
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    path = out_dir / f"{subcommand}-{digest}.json"
    if not path.exists():
        path.write_text(text)
    if verbose:
        for c in checks:
            status = "pass" if c["passed"] else "FAIL"
            defect = "null" if c["defect"] is None else format(c["defect"], ".3e")
            print(f"[{status}] {c['suite']}/{c['name']}: defect {defect}")
    print(path)
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="solvrigid", description=__doc__)
    parser.add_argument("subcommand", choices=[*_SUITES, "all"])
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
