"""Command-line interface: subcommand suites, schema handling, report
emission, and determinism."""

import json

import pytest

from solvrigid.cli import ConfigError, RunConfig, main


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
        ],
    )
    def test_out_of_bounds_exits_2_pointered(self, obj, args, pointer, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        out = tmp_path / "r"
        assert main(["roots", "--config", str(cfg), *args, "--out", str(out)]) == 2
        assert f"config error: {pointer}:" in capsys.readouterr().err
        assert not out.exists()


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


def test_invariant_failure_exits_1_with_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a tolerance below the discretization floor makes the conjugation
    # suite fail honestly; the report must still be written
    cfg.write_text(json.dumps({"conjugation_tol": 1e-15}))
    out = tmp_path / "r"
    assert main(["conjugate", "--config", str(cfg), "--out", str(out)]) == 1
    payload = json.loads(_reports(out)[0].read_text())
    assert not payload["passed"]

def test_geodesic_emits_csv(tmp_path):
    main(["geodesic", "--out", str(tmp_path)])
    csvs = sorted(tmp_path.glob("geodesic-samples-*.csv"))
    assert len(csvs) == 1
    rows = csvs[0].read_text().strip().splitlines()
    assert len(rows) == 41
    assert len(rows[0].split(",")) == 3  # height plus two lower coordinates
