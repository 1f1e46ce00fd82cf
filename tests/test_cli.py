"""Command-line interface: subcommand suites, schema handling, report
emission, and determinism."""

import json

import numpy as np
import pytest

from solvrigid import cli, quasimetric, solvgroup
from solvrigid.cli import MAX_GRID_POINTS, ConfigError, RunConfig, main
from solvrigid.spectral import ROW_BLOCK, random_point, random_row_blocks


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
            ({"word_len": 10**9}, [], "/grid/resolution"),
            ({"grid": {"lo": float("-inf")}}, [], "/grid"),
            ({"grid": {"resolution": float("inf")}}, [], "/grid"),
            ({"beta": -1.0}, [], "/beta"),
            ({"beta": 0}, [], "/beta"),
            ({"beta": float("nan")}, [], "/beta"),
            ({"tolerance": 0.0}, [], "/tolerance"),
            ({"tolerance": float("inf")}, [], "/tolerance"),
            ({"conjugation_tol": float("nan")}, [], "/conjugation_tol"),
            ({"conjugation_tol": -1e-3}, [], "/conjugation_tol"),
        ],
    )
    def test_out_of_bounds_exits_2_pointered(self, obj, args, pointer, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert main(["roots", "--config", str(cfg), *args, "--out", str(out)]) == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()


    def test_grid_point_cap_is_inclusive(self):
        # default lo, hi and word_len: the grid spans [-3 - 8, 3 + 8], 22 units
        cell = 22.0 / MAX_GRID_POINTS
        RunConfig.from_json({"grid": {"resolution": cell * 1.001}})
        with pytest.raises(ConfigError, match="/grid/resolution"):
            RunConfig.from_json({"grid": {"resolution": cell * 0.999}})


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
    # a tolerance below the discretization floor makes the conjugation
    # suite fail honestly; the report must still be written
    cfg.write_text(json.dumps({"conjugation_tol": 1e-15}))
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
    eq = checks["circumcenter-equivariance"]
    assert not eq["passed"] and eq["certified_gap"] > 1e-300


def test_geodesic_emits_csv(tmp_path):
    main(["geodesic", "--out", str(tmp_path)])
    csvs = sorted(tmp_path.glob("geodesic-samples-*.csv"))
    assert len(csvs) == 1
    rows = csvs[0].read_text().strip().splitlines()
    assert len(rows) == 41
    assert len(rows[0].split(",")) == 3  # height plus two lower coordinates


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
    # triples, then 3 x 200 dilation pairs; the geodesic pairs come first
    drawn = _recording_row_blocks(monkeypatch)
    cfg = RunConfig.from_json({"triples": ROW_BLOCK + 5, "pairs": ROW_BLOCK + 3})
    assert all(c["passed"] for c in cli.run_metric(cfg, np.random.default_rng(2)))
    assert [b.shape[:2] for b in drawn] == [(ROW_BLOCK, 3), (5, 3)] + [(200, 2)] * 3
    want = _per_point_loop(cfg.spec, np.random.default_rng(2), 3 * cfg.triples + 3 * 400)
    assert np.array_equal(np.concatenate([b.ravel() for b in drawn]), want)

    drawn.clear()
    assert all(c["passed"] for c in cli.run_geodesic(cfg, np.random.default_rng(2)))
    assert [b.shape[:2] for b in drawn] == [(ROW_BLOCK, 2), (3, 2)]
    want = _per_point_loop(cfg.spec, np.random.default_rng(2), 2 * cfg.pairs)
    assert np.array_equal(np.concatenate([b.ravel() for b in drawn]), want)


def test_metric_and_geodesic_use_the_row_kernels(count_calls):
    # every module that imported the scalar distance by name; at the old
    # per-point loops this was 31260 calls
    calls = count_calls(quasimetric, solvgroup, cli, name="distance")
    cfg = RunConfig.from_json({"triples": 5000, "pairs": 5000})
    checks = cli.run_metric(cfg, np.random.default_rng(0)) + cli.run_geodesic(cfg, np.random.default_rng(0))
    assert all(c["passed"] for c in checks)
    assert len(calls) < 500


def test_epsilon_check_compares_every_probe(monkeypatch):
    # at seed 0 the first 50 of the 500 draws of sin span 1.9797 and all of
    # them 2.0000: a bound between the two fails only when every draw counts
    monkeypatch.setattr(cli, "epsilon_bound", lambda gamma, i: 1.99)
    checks = {c["name"]: c for c in cli.run_roots(RunConfig(), np.random.default_rng(0))}
    eps = checks["epsilon-bound-dominates"]
    assert not eps["passed"] and eps["defect"] > 0
