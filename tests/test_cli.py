"""Command-line interface: subcommand suites, schema handling, report
emission, and determinism."""

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from solvrigid import cli, conformal, fixtures, mapalg, nilpotent, quasimetric, solvgroup, spectral
from solvrigid.conformal import act, conf_class, kdist
from solvrigid.cli import ConfigError, RunConfig, main
from solvrigid.funcexpr import BlockVar, Const, Osc
from solvrigid.mapalg import ASimMap, SimMap
from solvrigid.nilpotent import AlmostTranslation, epsilon_bound
from solvrigid.quasimetric import distance
from solvrigid.solvgroup import (
    SolvPoint,
    SolvSpec,
    boundary_of_height_isometry,
    pair_to_point,
)
from solvrigid.spectral import ROW_BLOCK, SpectralData, random_row_blocks

import metric_reference as reference
from injected_faults import low_epsilon_bound, skewed_compose
from metric_reference import random_point


def _reports(out_dir):
    return sorted(out_dir.glob("*.json"))


class TestConfigSchema:
    def test_round_trip_is_identity(self):
        cfg = RunConfig()
        again = RunConfig.from_json(cfg.to_json())
        assert again.to_json() == cfg.to_json()

    def test_unknown_key_pointered(self):
        with pytest.raises(ConfigError, match="/frobnicate"):
            RunConfig.from_json({"frobnicate": 1})

    def test_bad_type_pointered(self):
        with pytest.raises(ConfigError, match="/triples"):
            RunConfig.from_json({"triples": "many"})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="/grid"):
            RunConfig.from_json({"grid": {"lo": 1.0, "hi": 0.0}})

    def test_bad_spec_pointered(self):
        with pytest.raises(ConfigError, match="/spec"):
            RunConfig.from_json({"spec": {"alphas": [2.0, 1.0], "mults": [1, 1]}})

    @pytest.mark.parametrize(
        "obj, args, pointer",
        [
            ({"root_order": 0}, [], "/root_order"),
            ({"seed": -1}, [], "/seed"),
            ({"seed": 1}, ["--seed", "-1"], "/seed"),
            ({"triples": 0}, [], "/triples"),
            ({"pairs": 0}, [], "/pairs"),
            ({"probe_count": 0}, [], "/probe_count"),
            ({"word_len": 0}, [], "/word_len"),
            ({"spec": {"alphas": 2.0, "mults": [1]}}, [], "/spec"),
            ({"spec": {"alphas": ["two", "three"], "mults": [1, 1]}}, [], "/spec"),
            ({"spec": {"alphas": [2.0], "mults": [1.5]}}, [], "/spec"),
            ({"grid": {"resolution": 1e-9}}, [], "/grid/resolution"),
            ({"grid": {"resolution": 0.01}}, [], "/grid/resolution"),
            ({"grid": {"lo": float("-inf")}}, [], "/grid/lo"),
            ({"grid": {"resolution": float("inf")}}, [], "/grid/resolution"),
            ({"beta": -1.0}, [], "/beta"),
            ({"beta": 0}, [], "/beta"),
            ({"beta": float("nan")}, [], "/beta"),
            ({"tolerance": 0.0}, [], "/tolerance"),
            ({"tolerance": float("inf")}, [], "/tolerance"),
            ({"conjugation_tol": float("nan")}, [], "/conjugation_tol"),
            ({"conjugation_tol": -1e-3}, [], "/conjugation_tol"),
            # the conjugate suite's depth grows with the window: at lo -3000 its rounding
            # alone failed the default conjugation_tol
            ({"grid": {"lo": -3000.0}}, [], "/grid/lo"),
            ({"grid": {"lo": -301}}, [], "/grid/lo"),
            ({"grid": {"hi": 300.5}}, [], "/grid/hi"),
            ({"grid": {"lo": 400, "hi": 500}}, [], "/grid/lo"),
            # the conjugate suite's depth grows with word_len too
            ({"word_len": 301}, [], "/word_len"),
        ],
    )
    def test_out_of_bounds_exits_2_pointered(self, obj, args, pointer, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert main(["roots", "--config", str(cfg), *args, "--out", str(out)]) == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()


    def test_the_window_bound_admits_its_ends(self):
        cfg = RunConfig.from_json({"grid": {"lo": -300, "hi": 300.0}})
        assert (cfg.grid_lo, cfg.grid_hi) == (-300.0, 300.0)
        with pytest.raises(ConfigError, match="/grid/lo: must be at least -300, got -300.5"):
            RunConfig.from_json({"grid": {"lo": -300.5}})
        with pytest.raises(ConfigError, match="/grid/hi: must be at most 300, got 301"):
            RunConfig.from_json({"grid": {"hi": 301}})

    def test_the_word_len_bound_admits_300(self):
        assert RunConfig.from_json({"word_len": 300}).word_len == 300
        with pytest.raises(ConfigError, match="/word_len: must be at most 300, got 301"):
            RunConfig.from_json({"word_len": 301})

    def test_doc_table_matches_the_field_metadata(self):
        text = (Path(__file__).resolve().parents[1] / "docs" / "report-schema.md").read_text()
        lines = text.split("## Configuration keys")[1].splitlines()
        rows = [[c.strip().strip("`") for c in line.split("|")[1:-1]]
                for line in lines if line.startswith("| `")]
        kinds = {int: "integer", cli._NUMBER: "number", dict: "object"}
        defaults = RunConfig().to_json()
        # each top-level key's JSON type; a key with members, as grid, is an object
        top = {path[0]: dict if len(path) > 1 else f.metadata["schema"][0]
               for path, f in cli._FIELDS.items()}
        assert [row[0] for row in rows] == list(top)
        for key, kind, _, default in rows:
            assert kind.split(":")[0] == kinds[top[key]], key
            assert json.loads(default) == defaults[key], key

    @pytest.mark.parametrize("obj, message", [
        # the conjugation has no grid: its old resolution key is unknown
        ({"grid": {"resolution": 0}}, "/grid/resolution: unknown config key"),
        ({"grid": {"hi": True}}, "/grid/hi: expected"),
        ({"grid": {"lo": "1"}}, "/grid/lo: expected"),
        ({"grid": {"step": 0.1}}, "/grid/step: unknown config key"),
        ({"grid": [0.1]}, "/grid: expected an object"),
        # RFC 6901: a key's / reads ~1 and its ~ reads ~0
        ({"grid/lo": 1.0}, "/grid~1lo: unknown config key"),
        ({"a~/b": 1.0}, "/a~0~1b: unknown config key"),
        ({"grid": {"lo": 2, "hi": 2}}, "/grid: requires lo < hi"),
    ], ids=lambda v: json.dumps(v)[:40] if isinstance(v, dict) else None)
    def test_grid_members_are_read_with_the_other_keys(self, obj, message):
        # each member is checked against its own field, with its own pointer
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_json(obj)


@pytest.mark.parametrize(
    "sub", ["metric", "geodesic", "classify", "conformal", "conjugate", "roots"]
)
def test_subcommands_pass_with_defaults(sub, tmp_path, capsys):
    assert main([sub, "--out", str(tmp_path)]) == 0
    reports = _reports(tmp_path)
    assert len(reports) == 1
    payload = json.loads(reports[0].read_text())
    assert payload["passed"]
    assert payload["subcommand"] == sub
    assert all(c["defect"] >= -0.0 for c in payload["checks"])


def test_all_runs_every_suite(tmp_path):
    assert main(["all", "--out", str(tmp_path)]) == 0
    payload = json.loads(_reports(tmp_path)[0].read_text())
    suites = {c["suite"] for c in payload["checks"]}
    assert suites == {"metric", "geodesic", "classify", "conformal", "conjugate", "roots"}


@pytest.mark.parametrize("sub", [*cli._SUITES, "all"])
def test_each_subcommand_writes_only_its_report(sub, tmp_path, capsys):
    assert main([sub, "--out", str(tmp_path)]) == 0
    (written,) = tmp_path.iterdir()
    assert written.name.startswith(f"{sub}-") and written.suffix == ".json"
    assert capsys.readouterr().out == f"{written}\n"


def test_report_named_by_content_hash_and_appended_once(tmp_path):
    main(["metric", "--out", str(tmp_path)])
    first = _reports(tmp_path)[0]
    stamp = first.stat().st_mtime_ns
    main(["metric", "--out", str(tmp_path)])
    assert _reports(tmp_path)[0].stat().st_mtime_ns == stamp  # not rewritten


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    main(["all", "--seed", "3", "--out", str(d1)])
    main(["all", "--seed", "3", "--out", str(d2)])
    (r1,), (r2,) = _reports(d1), _reports(d2)
    assert r1.name == r2.name
    assert r1.read_bytes() == r2.read_bytes()


# The file `solvrigid all --seed <n>` writes: its report, named by its content
# hash. A change that changes a digest updates this pin and records the old
# and new names.
PINNED_FILES = {
    0: ["all-636ce2b574a96ae1.json"],
    5: ["all-b2aa77ccef5eedc7.json"],
    11: ["all-fe41e3e93cf3051c.json"],
}


@pytest.mark.parametrize("seed", sorted(PINNED_FILES))
def test_report_digests_are_pinned(seed, tmp_path):
    assert main(["all", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == PINNED_FILES[seed]


# The files the `metric` and `geodesic` suites write on a spec whose first
# exponent is 1 (the default spec, (2, 3), has none), at the default counts.
UNIT_EXPONENT_SPEC = {"alphas": [1.0, 2.0, 3.5], "mults": [2, 1, 2]}
PINNED_UNIT_EXPONENT_FILES = {
    (0, "metric"): ["metric-df958ff6093b00a9.json"],
    (0, "geodesic"): ["geodesic-8b0572861dee1c56.json"],
    (5, "metric"): ["metric-cdec076b54293154.json"],
    (5, "geodesic"): ["geodesic-267841c89c973fcb.json"],
    (11, "metric"): ["metric-7b6044f3879b2995.json"],
    (11, "geodesic"): ["geodesic-dd073773d1723d6b.json"],
}


@pytest.mark.parametrize("seed, suite", sorted(PINNED_UNIT_EXPONENT_FILES))
def test_unit_exponent_digests_are_pinned(seed, suite, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": UNIT_EXPONENT_SPEC}))
    out = tmp_path / "out"
    assert main([suite, "--config", str(cfg), "--seed", str(seed), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == PINNED_UNIT_EXPONENT_FILES[seed, suite]


def test_pinned_digests_are_quoted_in_the_report_schema():
    schema = (Path(__file__).parents[1] / "docs" / "report-schema.md").read_text()
    names = [name for pins in (PINNED_FILES, PINNED_UNIT_EXPONENT_FILES)
             for files in pins.values() for name in files]
    assert names and [name for name in names if name not in schema] == []


def test_check_table_lists_the_checks_of_a_default_report(tmp_path):
    text = (Path(__file__).parents[1] / "docs" / "report-schema.md").read_text()
    lines = text.split("## Check objects")[1].split("\n## ")[0].splitlines()
    rows = [[c.strip().strip("`") for c in line.split("|")[1:4]]
            for line in lines if line.startswith("| ") and not line.startswith("| suite")]
    assert main(["all", "--out", str(tmp_path)]) == 0
    checks = json.loads(_reports(tmp_path)[0].read_text())["checks"]
    # the tolerance column opens with the number a default report records
    assert [[suite, name, float(tol.split()[0])] for suite, name, tol in rows] == [
        [c["suite"], c["name"], c["tolerance"]] for c in checks]


def test_config_file_and_seed_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"triples": 50, "pairs": 50, "seed": 1}))
    assert main(["metric", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "r")]) == 0
    payload = json.loads(_reports(tmp_path / "r")[0].read_text())
    assert payload["seed"] == 2
    assert payload["config"]["triples"] == 50


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": True}))
    out = tmp_path / "r"
    assert main(["metric", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists() or _reports(out) == []


@pytest.mark.parametrize("text", [
    b"\xff{}",  # not UTF-8: raised UnicodeDecodeError
    b'{"seed": ' + b"9" * 5000 + b"}",  # past int's digit limit: raised ValueError
], ids=["not-utf8", "5000-digit-int"])
def test_unreadable_config_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert main(["metric", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "config error" in capsys.readouterr().err


def test_invariant_failure_exits_1_with_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    # the float conjugation reads a rounding-level defect (about 3e-15 at the default
    # config, not 0), so a tolerance of 1e-300 makes the suite fail honestly; the report
    # must still be written
    cfg.write_text(json.dumps({"conjugation_tol": 1e-300}))
    out = tmp_path / "r"
    assert main(["conjugate", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads(_reports(out)[0].read_text())
    assert not payload["passed"]

def test_uncertified_circumcenter_fails_its_check(tmp_path):
    # no floating-point center certifies a gap of 1e-300; the check must
    # fail with its gap in the report, not end the run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 1e-300}))
    out = tmp_path / "r"
    assert main(["conformal", "--config", str(cfg), "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(_reports(out)[0].read_text())["checks"]}
    cert = checks["circumcenter-certified"]
    assert not cert["passed"] and cert["defect"] > cert["tolerance"] == 1e-300


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_defects_fail_and_read_null(tmp_path):
    # every distance drawn on this spec is 0 or inf, so these defects are NaN:
    # each such check must fail and read null, the report must stay strict
    # JSON, and the run must not warn (pyproject makes a warning an error)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"alphas": [1e-300, 1.0], "mults": [1, 1]},
                               "triples": 200, "pairs": 200}))
    failed = {}
    for suite in ("metric", "geodesic"):
        out = tmp_path / suite
        assert main([suite, "--config", str(cfg), "--out", str(out)]) == 1
        checks = _strict_json(_reports(out)[0].read_text())["checks"]
        failed.update({c["name"]: c["defect"] for c in checks if not c["passed"]})
    assert failed == dict.fromkeys(["triangle-inequality", "dilation-similarity",
                                    "pair-to-point-exp-height", "pair-to-point-bisect-oracle"])


def test_a_non_finite_number_in_a_check_reads_null_and_fails():
    check = cli._check("chain", 0.0, 1e-12, value=math.inf, rounds=3)
    assert check == {"name": "chain", "defect": 0.0, "tolerance": 1e-12, "value": None,
                     "rounds": 3, "passed": False}
    assert cli._check("nan", math.nan, 1.0) == {"name": "nan", "defect": None, "tolerance": 1.0,
                                                "passed": False}


def test_a_check_passes_when_its_defect_is_at_most_its_tolerance():
    assert cli._check("at", 1e-12, 1e-12)["passed"]
    assert not cli._check("above", 2e-12, 1e-12)["passed"]
    zero = cli._check("zero", -0.0, 0.0)
    assert zero["passed"] and math.copysign(1.0, zero["defect"]) == 1.0
    # a pass flag in the defect's place is not a number
    for flag in (True, False, np.True_):
        assert cli._check("flag", flag, 1.0) == {"name": "flag", "defect": None, "tolerance": 1.0,
                                                 "passed": False}


def test_every_record_of_a_default_report_obeys_the_one_pass_rule(tmp_path):
    assert main(["all", "--out", str(tmp_path)]) == 0
    checks = json.loads(_reports(tmp_path)[0].read_text())["checks"]
    for c in checks:
        assert c["passed"] == (c["defect"] is not None and c["defect"] <= c["tolerance"]), c
        assert math.copysign(1.0, c["defect"]) == 1.0, c  # no -0.0


def _recording_row_blocks(monkeypatch) -> list:
    drawn = []

    def recording(*args, **kwargs):
        for block in random_row_blocks(*args, **kwargs):
            drawn.append(block)
            yield block

    monkeypatch.setattr(cli, "random_row_blocks", recording)
    return drawn


def _per_point_loop(spec, rng, points) -> np.ndarray:
    return np.concatenate([random_point(spec, rng, 3.0).flat() for _ in range(points)])


def test_row_blocks_draw_the_per_point_samples(monkeypatch):
    # the row suites must see the samples of the old per-point loops: the
    # triples, then 3 x 200 dilation pairs; the geodesic pairs, then the 20
    # pairs of the bisection oracle
    drawn = _recording_row_blocks(monkeypatch)
    cfg = RunConfig.from_json({"triples": ROW_BLOCK + 5, "pairs": ROW_BLOCK + 3})
    assert all(c["passed"] for c in cli.run_metric(cfg, np.random.default_rng(2)))
    assert [b.shape[:2] for b in drawn] == [(ROW_BLOCK, 3), (5, 3)] + [(200, 2)] * 3
    want = _per_point_loop(cfg.spec, np.random.default_rng(2), 3 * cfg.triples + 3 * 400)
    assert np.array_equal(np.concatenate([b.ravel() for b in drawn]), want)

    drawn.clear()
    assert all(c["passed"] for c in cli.run_geodesic(cfg, np.random.default_rng(2)))
    assert [b.shape[:2] for b in drawn] == [(ROW_BLOCK, 2), (3, 2), (20, 2)]
    want = _per_point_loop(cfg.spec, np.random.default_rng(2), 2 * cfg.pairs + 2 * 20)
    assert np.array_equal(np.concatenate([b.ravel() for b in drawn]), want)


def test_metric_and_geodesic_use_the_row_kernels(count_calls):
    # every module that imported distance by name; at the old per-point
    # loops this was 31260 calls
    calls = count_calls(quasimetric, solvgroup, cli, name="distance")
    cfg = RunConfig.from_json({"triples": 5000, "pairs": 5000})
    checks = cli.run_metric(cfg, np.random.default_rng(0)) + cli.run_geodesic(cfg, np.random.default_rng(0))
    assert all(c["passed"] for c in checks)
    assert len(calls) < 500


def test_epsilon_check_compares_every_probe(monkeypatch):
    low_epsilon_bound(monkeypatch)
    checks = {c["name"]: c for c in cli.run_roots(RunConfig(), np.random.default_rng(0))}
    eps = checks["epsilon-bound-dominates"]
    assert not eps["passed"] and eps["defect"] > eps["tolerance"] == 1.0


def test_epsilon_check_reads_a_gap_whose_square_overflows(monkeypatch):
    # B_1 = 1e154 sin(x_2): the squares of its sampled gaps, near 2e154, leave float range,
    # so the pairwise maximum read inf (a null defect) and warned once per chunk
    wide = Osc(amp=[1e154], weights=[1.0], phase=0.0, child=BlockVar(1, 1))
    gamma = AlmostTranslation(fixtures.SPEC_NIL, [wide, Const([4.0])], K=2.0)
    monkeypatch.setattr(cli.fixtures, "oscillating_kernel_element", lambda: gamma)
    monkeypatch.setattr(cli, "epsilon_bound", lambda gamma, i: 1e155)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        checks = {c["name"]: c for c in cli.run_roots(RunConfig(), np.random.default_rng(0))}
    eps = checks["epsilon-bound-dominates"]
    assert eps["passed"] and 0.19 < eps["defect"] < 0.2


@pytest.mark.parametrize("probes, report", [(1000, "roots-d92d34e06c03f08d.json"),
                                            (20_000, "roots-e960103398443ad0.json")])
def test_roots_reports_pinned_and_linear_in_probe_count(probes, report, tmp_path):
    start = time.perf_counter()
    assert cli.run("roots", RunConfig(probe_count=probes), tmp_path) == 0
    # at 20 000 probes the pairwise maximum over 4e8 gaps took 2.6-3.7 s
    assert time.perf_counter() - start < 1.0
    assert [p.name for p in _reports(tmp_path)] == [report]


def _whole_array_draws(rng, count, spd, gl):
    """The two draws of cli._draw_classes: per sample, spd class and 2 gl action normal
    matrices, then spd class log-eigenvalues in [-1.2, 1.2) and gl action scales in
    [0.5, 2.0), three each."""
    normals = rng.standard_normal((count, spd + 2 * gl, 3, 3))
    uniforms = rng.random((count, spd + gl, 3))
    return normals, np.concatenate([-1.2 + 2.4 * uniforms[:, :spd],
                                    0.5 + 1.5 * uniforms[:, spd:]], axis=1)


def _per_sample_conformal(rng) -> tuple[float, float]:
    """The kdist-triangle and kdist-gl-invariance defects of the per-sample
    loop that the stacked pass of run_conformal replaced, on the same draws."""
    normals, uniforms = _whole_array_draws(rng, 200, 3, 1)

    def random_spd(i, j):
        q = np.linalg.qr(normals[i, j])[0]
        return conf_class(q @ np.diag(np.exp(uniforms[i, j])) @ q.T)

    def random_gl(i):
        u, _ = np.linalg.qr(normals[i, 3])
        v, _ = np.linalg.qr(normals[i, 4])
        return u @ np.diag(uniforms[i, 3]) @ v

    tri_worst = 0.0
    inv_worst = 0.0
    for i in range(200):
        a, b, c = random_spd(i, 0), random_spd(i, 1), random_spd(i, 2)
        tri_worst = max(tri_worst, kdist(a, c) - kdist(a, b) - kdist(b, c))
        x = random_gl(i)
        inv_worst = max(inv_worst, abs(kdist(act(x, a), act(x, b)) - kdist(a, b)))
    return tri_worst, inv_worst


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_stacked_conformal_defects_equal_the_per_sample_loop(seed):
    checks = {c["name"]: c["defect"] for c in cli.run_conformal(RunConfig(), np.random.default_rng(seed))}
    tri, inv = _per_sample_conformal(np.random.default_rng(seed))
    assert checks["kdist-triangle"] == tri
    assert checks["kdist-gl-invariance"] == inv


def test_conformal_suite_computes_kdist_on_stacks(count_calls):
    # the per-sample loop made 801 kdist calls, 4 per sample and the symmetric
    # pair's, and 405 act calls: one stack of the 4 sample distances and one
    # of (x.a, x.b), the symmetric pair's kdist, the 5 moved sets in one act
    # and their centers in another
    kdists = count_calls(conformal, cli, name="kdist")
    acts = count_calls(cli, name="act")
    checks = cli.run_conformal(RunConfig(), np.random.default_rng(0))
    assert all(c["passed"] for c in checks)
    assert len(kdists) <= 2
    assert len(acts) <= 3


class _CountingRng:
    """A generator that records the name of each method read off it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def test_conformal_suite_draws_each_layout_in_two_calls():
    # the per-block draws made 831 standard_normal and 831 random calls; each of
    # the three layouts is one normal and one uniform draw
    rng = _CountingRng(np.random.default_rng(0))
    assert all(c["passed"] for c in cli.run_conformal(RunConfig(), rng))
    assert sorted(rng.calls) == ["random"] * 3 + ["standard_normal"] * 3


def _per_solve_circumcenter_checks(cfg, rng) -> dict:
    """The three circumcenter checks of run_conformal as the loop that solved
    one class set per call (11 calls) computed them, on the same draws."""

    def random_spd(normals, logs):
        q = np.linalg.qr(normals)[0]
        return conf_class((q * np.exp(logs)[..., None, :]) @ q.mT)

    def random_gl(u_normals, v_normals, scales):
        u, v = np.linalg.qr(u_normals)[0], np.linalg.qr(v_normals)[0]
        return (u * scales[..., None, :]) @ v

    _whole_array_draws(rng, 200, 3, 1)  # the stacked kdist samples

    def center_of(classes, solved):
        res = conformal.solve_circumcenter(classes, tol=cfg.tolerance)
        solved.append(res)
        return res.center

    solved = []
    normals, logs = _whole_array_draws(rng, 1, 1, 0)
    a = random_spd(normals[0, 0], logs[0, 0])
    sym_defect = kdist(np.eye(3), center_of([a, np.linalg.inv(a)], solved))
    eq_worst = 0.0
    normals, uniforms = _whole_array_draws(rng, 5, 5, 1)
    for i in range(5):
        pts = random_spd(normals[i, :5], uniforms[i, :5])
        x = random_gl(normals[i, 5], normals[i, 6], uniforms[i, 5])
        moved = center_of(act(x, pts), solved)
        eq_worst = max(eq_worst, conformal.ddist(moved, act(x, center_of(pts, solved))))
    exits = [res.exit for res in solved]
    return {
        "circumcenter-symmetric-pair": cli._check("circumcenter-symmetric-pair", sym_defect, 1e-9),
        "circumcenter-equivariance": cli._check("circumcenter-equivariance", eq_worst, 1e-6),
        "circumcenter-certified": cli._check(
            "circumcenter-certified", max(res.gap for res in solved), cfg.tolerance,
            center_bound=max(res.center_bound for res in solved),
            iterations=max(res.iterations for res in solved),
            exits={e: exits.count(e) for e in sorted(set(exits))}),
    }


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_batched_circumcenters_equal_the_per_solve_loop(seed):
    cfg = RunConfig()
    checks = {c["name"]: c for c in cli.run_conformal(cfg, np.random.default_rng(seed))}
    want = _per_solve_circumcenter_checks(cfg, np.random.default_rng(seed))
    assert {name: checks[name] for name in want} == want


def test_conformal_suite_solves_its_sets_in_one_batch(count_calls):
    # the per-solve loop made 11 calls: the symmetric pair, then each of the
    # 5 equivariance sets moved and as drawn
    calls = count_calls(conformal, cli, name="solve_circumcenter")
    checks = cli.run_conformal(RunConfig(), np.random.default_rng(0))
    assert all(c["passed"] for c in checks)
    assert len(calls) <= 2
    assert max(np.ndim(args[0]) for args in calls) == 4


def test_default_conformal_pass_solves_few_tangent_balls(count_calls, monkeypatch):
    # a call count, not a time: the MEB step alone solved the tangent ball 7
    # times (1 + 1 for {a, a^-1}, 5 for the equivariance batch) and took 2
    # and [5 5 4 4 4 4 5 5 4 4] iterations; the Newton finish solves it only
    # where the carried weights go stale
    balls = count_calls(conformal, name="_meb_weights")
    solved = []
    solve = cli.solve_circumcenter

    def recorded(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(cli, "solve_circumcenter", recorded)
    assert all(c["passed"] for c in cli.run_conformal(RunConfig(), np.random.default_rng(0)))
    sym, eq = solved
    assert len(balls) <= 3
    assert sym.iterations.max() <= 2 and eq.iterations.max() <= 4
    assert set(np.append(sym.exit, eq.exit).tolist()) == {"certified"}


def test_circumcenter_certified_record_carries_the_solver_diagnostics():
    checks = {c["name"]: c for c in cli.run_conformal(RunConfig(), np.random.default_rng(0))}
    cert = checks["circumcenter-certified"]
    assert cert["exits"] == {"certified": 11}
    assert 0 < cert["iterations"] <= 4
    # the center bound sqrt(radius^2 - lower^2) is far above the gap it comes from
    assert cert["defect"] <= cert["center_bound"] <= 1e-6


def test_chain_energy_record_carries_its_exit():
    checks = {c["name"]: c for c in cli.run_metric(RunConfig(), np.random.default_rng(0))}
    assert checks["chain-energy-oracle"]["exit"] == "max_depth"


def _per_sample_asim_check(rng) -> dict:
    """The almost-similarity check of the per-sample loop that the row pass
    of run_classify replaced: one map and distance call per sample point."""
    spec = fixtures.SPEC_NIL
    asim = ASimMap(SimMap(spec, 1.5), fixtures.oscillating_kernel_element())
    ratios = []
    for pair in next(random_row_blocks(spec, rng, 300, 2, 3.0)):
        p, q = (reference.from_flat(spec, x) for x in pair)
        d = distance(spec, *pair)
        if d != 0.0:
            ratios.append(distance(spec, asim(p).flat(), asim(q).flat()) / d)
    logs = np.log(np.asarray(ratios))
    k = max(float(np.exp(np.abs(logs - logs.mean()).max())), 1.0)
    return cli._check("almost-similarity-classified", 0.0, 0.0, kind="ASim", K=k)


def _per_probe_epsilon_check(cfg, rng, bound_of) -> dict:
    """The epsilon-bound check of the per-probe loop that the row pass of
    run_roots replaced: one random_point draw and evaluation per probe."""
    gamma = fixtures.oscillating_kernel_element()
    spec = gamma.spec
    worst_ratio = 0.0
    for i in range(spec.r):
        bound = bound_of(gamma, i)
        if bound == 0.0:
            continue
        vals = np.array([gamma.perturbations[i](random_point(spec, rng, 4.0).blocks)
                         for _ in range(cfg.probe_count)])
        osc = float(np.linalg.norm(vals[:, None] - vals[None], axis=-1).max())
        worst_ratio = max(worst_ratio, osc / bound)
    return cli._check("epsilon-bound-dominates", worst_ratio, 1.0)


def _scalar_bisect(spec, p, q) -> float:
    """The one-pair bisection that pair_to_point_bisect replaced, on the
    bracket of pair_to_point's one-point height, as the row bisection's."""
    logd = pair_to_point(spec, p, q)
    lo, hi = logd - 1.0, logd + 1.0
    flo = reference.level_distance(spec, lo, (p, None), (q, None)) - 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = reference.level_distance(spec, mid, (p, None), (q, None)) - 1.0
        if abs(hi - lo) < 1e-13:
            break
        if (flo > 0) == (fmid > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisected_rows(cfg, rng):
    """The 20 pairs the geodesic suite draws for its bisection oracle, after its pair draws."""
    for _ in random_row_blocks(cfg.spec, rng, cfg.pairs, 2, 3.0):
        pass
    return next(random_row_blocks(cfg.spec, rng, 20, 2, 3.0))


def _per_pair_bisect_check(cfg, rng) -> dict:
    """The bisection-oracle check of the per-pair loop, after the suite's row draws."""
    spec = SolvSpec(lower=cfg.spec)
    worst = 0.0
    for p, q in _bisected_rows(cfg, rng):
        if distance(cfg.spec, p, q) != 0.0:
            worst = max(worst, abs(pair_to_point(spec, p, q) - _scalar_bisect(spec, p, q)))
    return cli._check("pair-to-point-bisect-oracle", worst, 1e-9)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_row_passes_equal_the_per_sample_loops(seed, monkeypatch):
    cfg = RunConfig()

    def checks(run):
        return {c["name"]: c for c in run(cfg, np.random.default_rng(seed))}

    assert checks(cli.run_classify)["almost-similarity-classified"] == _per_sample_asim_check(
        np.random.default_rng(seed))
    assert checks(cli.run_geodesic)["pair-to-point-bisect-oracle"] == _per_pair_bisect_check(
        cfg, np.random.default_rng(seed))
    # at the true bound and below the sampled oscillation, the defect is the
    # largest ratio of oscillation to bound, bit for bit
    for bound_of in (epsilon_bound, lambda gamma, i: 1.5):
        monkeypatch.setattr(cli, "epsilon_bound", bound_of)
        assert checks(cli.run_roots)["epsilon-bound-dominates"] == _per_probe_epsilon_check(
            cfg, np.random.default_rng(seed), bound_of)


def _bisection_rows():
    spec = SolvSpec(lower=SpectralData((0.5, 1.0, 3.5), (2, 1, 2)))
    pairs = next(random_row_blocks(spec.lower, np.random.default_rng(4), 50, 2, 3.0))
    pairs[1, 1] = pairs[1, 0] + 1e-9  # a pair whose bracket sits far below the others
    # at height 691 the bracket's ends are one ulp, 1.1e-13, apart at best:
    # this row halves 200 times while the others stop after about 45
    pairs[2, 1, :2] = pairs[2, 0, :2] + 1e150
    return spec, pairs


def _far_bisection_rows():
    """Rows of _bisection_rows' spec with one or two blocks apart, the others coincident:
    gaps of 1e+-150, gaps near underflow, and brackets where a factor e^(-t alpha_i) of
    the largest term leaves the normal float range (overflows, or nears 2^-1022). A
    coincident block whose factor overflows makes a NaN term; in the last two rows only
    the largest term's factor overflows, so numpy's product reads inf there."""
    spec, _ = _bisection_rows()
    gaps = [([1e150, 0.0], 0.0, 0.0), ([1e-150, 0.0], 0.0, 0.0), (0.0, 1e150, 0.0),
            (0.0, 1e-150, 0.0), (0.0, 1e-320, 0.0), (0.0, 5e-324, 0.0), ([1e-160, 1e-161], 0.0, 0.0),
            (0.0, 1e308, 0.0), (0.0, 1.7e308, 0.0), (0.0, 0.0, [1e300, 1.0]),
            (0.0, 0.0, [1e-300, 0.0]), ([1e150, 0.0], 0.0, [3.0, 1.0]), (0.0, 1e-320, [1e-300, 0.0]),
            (0.0, 0.0, [1e-315, 0.0]), (0.0, 0.0, [5e-324, 0.0])]
    P = np.array([np.concatenate([np.broadcast_to(g, n) for g, n in zip(row, (2, 1, 2))])
                  for row in gaps])
    return spec, np.stack([P, np.zeros_like(P)], axis=1)


def test_bisection_rows_equal_the_per_pair_bisection():
    spec, pairs = _bisection_rows()
    got = solvgroup.pair_to_point_bisect(spec, pairs[:, 0], pairs[:, 1])
    want = [_scalar_bisect(spec, *pair) for pair in pairs]
    assert np.array_equal(got, want)


def test_far_range_bisection_rows_equal_the_per_pair_bisection():
    spec, pairs = _far_bisection_rows()
    got = solvgroup.pair_to_point_bisect(spec, pairs[:, 0], pairs[:, 1])
    want = [_scalar_bisect(spec, *pair) for pair in pairs]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_bisection_takes_libm_signs_only_near_the_root(seed, monkeypatch):
    # numpy's exp settles a sign only away from 1: the first midpoint is log D
    # itself, where the level distance is 1 up to rounding, and the last
    # halvings close in on the root; every other row-halving is settled
    cfg = RunConfig()
    spec, rows = SolvSpec(lower=cfg.spec), _bisected_rows(cfg, np.random.default_rng(seed))
    rows = rows[distance(cfg.spec, rows[:, 0], rows[:, 1]) != 0.0]
    want = [_scalar_bisect(spec, *pair) for pair in rows]
    evaluations, fallbacks = [], []
    above, level = solvgroup._above_unit, solvgroup._level_distance

    def counted_above(t, *args):
        evaluations.append(len(t))
        return above(t, *args)

    def counted_level(t, *args):
        fallbacks.append((len(evaluations) - 1, len(t)))
        return level(t, *args)

    monkeypatch.setattr(solvgroup, "_above_unit", counted_above)
    monkeypatch.setattr(solvgroup, "_level_distance", counted_level)
    got = solvgroup.pair_to_point_bisect(spec, rows[:, 0], rows[:, 1])
    assert np.array_equal(got, want)
    # evaluation 0 is the bracket's lower end, evaluation i the i-th halving
    assert len(rows) == 20 and len(evaluations) == 46
    fell = sum(n for _, n in fallbacks)
    assert 1 <= fell <= 0.15 * sum(evaluations)
    assert {i for i, _ in fallbacks} - {1} <= set(range(len(evaluations) - 8, len(evaluations)))
    assert sum(n for i, n in fallbacks if i > 1) >= len(rows)


def test_bisection_computes_the_block_gaps_once(count_calls):
    # the bisection used to recompute every block gap at each of its halvings:
    # 603 _block_norm calls on the rows that halve 200 times, 138 on those
    # that stop after 45
    spec, pairs = _bisection_rows()
    for rows in (pairs, pairs[3:]):
        calls = count_calls(solvgroup, name="_block_norm")
        solvgroup.pair_to_point_bisect(spec, rows[:, 0], rows[:, 1])
        assert len(calls) == spec.lower.r


def _per_triple_geodesic_checks(cfg, rng) -> dict:
    """The composition-law and group-law checks of the per-sample loops that
    the row pass of run_geodesic replaced, after the suite's earlier draws:
    one random_point draw per sample, and one-point products of the group
    law's per-point reference copy."""
    spec = SolvSpec(lower=cfg.spec)
    _bisected_rows(cfg, rng)
    comp_worst = 0.0
    for _ in range(50):
        a, b = rng.uniform(-1.5, 1.5, 2)
        lhs = boundary_of_height_isometry(spec, a).compose(boundary_of_height_isometry(spec, b))
        rhs = boundary_of_height_isometry(spec, a + b)
        p = random_point(cfg.spec, rng, 2.0)
        scale = max(1.0, float(np.max(np.abs(rhs(p).flat()))))
        comp_worst = max(comp_worst, float(np.max(np.abs(lhs(p).flat() - rhs(p).flat()))) / scale)
    grp_worst = 0.0
    for _ in range(100):
        g = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        h = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        k = SolvPoint(height=float(rng.uniform(-1, 1)), x=random_point(cfg.spec, rng))
        assoc = reference.multiply(spec, reference.multiply(spec, g, h), k)
        assoc2 = reference.multiply(spec, g, reference.multiply(spec, h, k))
        grp_worst = max(grp_worst, abs(assoc.height - assoc2.height))
        grp_worst = max(grp_worst, float(np.max(np.abs(assoc.x.flat() - assoc2.x.flat()))))
        inv = reference.multiply(spec, g, reference.inverse(spec, g))
        grp_worst = max(grp_worst, abs(inv.height))
        grp_worst = max(grp_worst, float(np.max(np.abs(inv.x.flat()))))
    return {
        "boundary-composition-law": cli._check("boundary-composition-law", comp_worst, 1e-12),
        "group-law": cli._check("group-law", grp_worst, 1e-12),
    }


_BOUNDARY_BATCH = {"spec": {"alphas": [1.0, 2.0, 3.5], "mults": [2, 1, 2]}, "pairs": 20000}


@pytest.mark.parametrize("config, seed", [({}, 0), ({}, 5), ({}, 11), (_BOUNDARY_BATCH, 1)])
def test_group_law_rows_equal_the_per_triple_loop(config, seed):
    cfg = RunConfig.from_json(config)
    checks = {c["name"]: c for c in cli.run_geodesic(cfg, np.random.default_rng(seed))}
    want = _per_triple_geodesic_checks(cfg, np.random.default_rng(seed))
    assert {name: checks[name] for name in want} == want


def _per_sample_classify_checks(cfg, rng) -> dict:
    """The height-hom-additive check of the per-sample loop that the stacked
    dilations of run_classify replaced, after the suite's earlier draws: two
    one-similarity dilations and a composition per sample, with height_hom's
    one-similarity body, libm's log of the stretch."""
    spec = fixtures.SPEC_NIL
    for _ in random_row_blocks(spec, rng, 300, 2, 3.0):
        pass
    hom_worst = 0.0
    for _ in range(200):
        t1, t2 = rng.uniform(0.5, 2.0, 2)
        s1, s2 = SimMap(spec, float(t1)), SimMap(spec, float(t2))
        hom_worst = max(hom_worst, abs(math.log(s1.compose(s2).stretch) - math.log(s1.stretch)
                                       - math.log(s2.stretch)))
    return {"height-hom-additive": cli._check("height-hom-additive", hom_worst, 1e-9)}


@pytest.mark.parametrize("config, seed", [({}, 0), ({}, 5), ({}, 11), (_BOUNDARY_BATCH, 1)])
def test_stacked_dilations_equal_the_per_sample_loop(config, seed):
    cfg = RunConfig.from_json(config)
    checks = {c["name"]: c for c in cli.run_classify(cfg, np.random.default_rng(seed))}
    want = _per_sample_classify_checks(cfg, np.random.default_rng(seed))
    assert {name: checks[name] for name in want} == want


def _count_similarities(monkeypatch) -> list:
    """Record every SimMap built, through the constructor or from checked parts."""
    built = []
    init, from_parts = SimMap.__init__, SimMap._from_parts

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_from_parts(*args):
        built.append(args)
        return from_parts(*args)

    monkeypatch.setattr(SimMap, "__init__", counted_init)
    monkeypatch.setattr(SimMap, "_from_parts", staticmethod(counted_from_parts))
    return built


@pytest.mark.parametrize("suite", ["geodesic", "classify"])
def test_suites_build_no_similarity_per_sample(suite, monkeypatch):
    # the per-sample loops built 150 (geodesic) and 400 (classify) dilations;
    # the stacks are a few similarities
    built = _count_similarities(monkeypatch)
    run = {"geodesic": cli.run_geodesic, "classify": cli.run_classify}[suite]
    assert all(c["passed"] for c in run(RunConfig(), np.random.default_rng(0)))
    assert len(built) <= 8


def test_composition_checks_fail_on_a_wrong_stacked_product(monkeypatch):
    # every check must be able to fail: a product stretch off by 1e-8 relative
    # clears both tolerances with margin, not by the logs' rounding
    skewed_compose(monkeypatch)
    tolerances = {"boundary-composition-law": 1e-12, "height-hom-additive": 1e-9}
    for seed in (0, 5, 11):
        checks = {c["name"]: c for run in (cli.run_geodesic, cli.run_classify)
                  for c in run(RunConfig(), np.random.default_rng(seed))}
        for name, tol in tolerances.items():
            assert not checks[name]["passed"], (seed, name)
            assert checks[name]["defect"] > 5 * tol, (seed, name, checks[name]["defect"])


def test_geodesic_checks_the_group_law_in_one_row_pass(count_calls):
    # the per-triple loop made 500 multiply and 100 inverse calls
    products = count_calls(solvgroup, cli, name="multiply")
    inverses = count_calls(solvgroup, cli, name="inverse")
    assert all(c["passed"] for c in cli.run_geodesic(RunConfig(), np.random.default_rng(0)))
    assert len(products) <= 5 and len(inverses) <= 1


def test_classify_and_roots_draw_and_measure_on_rows(count_calls):
    # the per-sample loops made 1200 one-point distance calls; what is left
    # are calls on rows
    distances = count_calls(quasimetric, mapalg, nilpotent, solvgroup, cli, name="distance")
    checks = cli.run_classify(RunConfig(), np.random.default_rng(0))
    checks += cli.run_roots(RunConfig(), np.random.default_rng(0))
    assert all(c["passed"] for c in checks)
    assert all(np.ndim(args[1]) == 2 for args in distances)
