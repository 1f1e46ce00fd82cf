"""Tests of the benchmark's own logic.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def work(seconds):
        clock.now += seconds

    leaf = tracer.span("m.leaf", lambda: work(1.0))

    def mid_body():
        work(2.0)
        leaf()

    mid = tracer.span("m.mid", mid_body)

    def top_body():
        work(0.5)
        mid()
        leaf()
        work(0.25)

    top = tracer.span("m.top", top_body)
    top()
    top()

    # top: 0.5 + (mid: 2 + leaf 1) + leaf 1 + 0.25 = 4.75 s per call
    assert tracer.stats["m.top"].calls == 2
    assert tracer.stats["m.top"].self_s == pytest.approx(2 * 0.75)
    assert tracer.stats["m.mid"].self_s == pytest.approx(2 * 2.0)
    assert tracer.stats["m.leaf"].calls == 4
    assert tracer.stats["m.leaf"].self_s == pytest.approx(4 * 1.0)
    paths = {p["path"]: (p["calls"], p["self_s"]) for p in tracer.top_paths(10)}
    assert paths["m.top > m.mid > m.leaf"] == (2, pytest.approx(2.0))
    assert paths["m.top > m.leaf"] == (2, pytest.approx(2.0))
    assert tracer.stats["m.top"].percentile(0.5) == pytest.approx(4.75, rel=0.03)


def test_span_closes_when_the_callable_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError

    inner = tracer.span("m.boom", boom)

    def outer_body():
        with pytest.raises(ValueError):
            inner()
        clock.now += 1.0

    tracer.span("m.outer", outer_body)()
    assert tracer.stats["m.outer"].self_s == pytest.approx(1.0)
    assert tracer.stats["m.boom"].self_s == pytest.approx(1.0)


def test_instrument_patches_reexports():
    # patching is global to the process, so it runs in a fresh interpreter
    code = (
        "import tracing, solvrigid, solvrigid.cli as cli\n"
        "import numpy as np\n"
        "t = tracing.Tracer(); tracing.instrument(t)\n"
        "assert cli.distance is solvrigid.distance is solvrigid.quasimetric.distance\n"
        "cfg = cli.RunConfig(triples=5, pairs=5)\n"
        "cli._SUITES['geodesic'](cfg, np.random.default_rng(0))\n"
        "print(t.calls('quasimetric.distance'), t.calls('cli.run_geodesic'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    distance_calls, suite_calls = map(int, out)
    assert suite_calls == 1
    assert distance_calls > 20  # through cli.distance and solvgroup.distance


def test_gamma_power_closed_form_matches_library():
    from solvrigid import fixtures
    from solvrigid.spectral import BlockPoint

    gamma = fixtures.oscillating_kernel_element(c=workloads.KERNEL_C)
    x1, x2 = 0.3, -1.7
    p = BlockPoint((np.array([x1]), np.array([x2])))
    for n in range(-4, 5):
        want = workloads.gamma_power_closed_form(x1, x2, n)
        assert workloads.close(gamma.power(n)(p).flat(), want), n
    step = p
    for _ in range(3):
        step = gamma(step)
    assert workloads.close(step.flat(), workloads.gamma_power_closed_form(x1, x2, 3))
    assert not workloads.close([x1, x2 + 3 * workloads.KERNEL_C],
                               workloads.gamma_power_closed_form(x1, x2, 3))


def _write_report(out: Path, subcommand: str, checks: list[dict]) -> Path:
    text = json.dumps({"checks": checks}, sort_keys=True)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{subcommand}-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
    path.write_text(text)
    return path


def test_tally_counts_failed_checks_exits_and_digest_changes(tmp_path):
    good = [{"suite": "roots", "name": "a", "passed": True},
            {"suite": "roots", "name": "b", "passed": True}]
    bad = [dict(good[0]), dict(good[1], passed=False)]

    tally = workloads.Tally()
    first = workloads.tally_report(tally, "roots", _write_report(tmp_path, "roots", good), 0,
                                   ("roots",), None)
    assert (tally.attempted, tally.failed) == (3, 0)

    # a failing check also exits 1 and changes the digest at the same seed
    workloads.tally_report(tally, "roots", _write_report(tmp_path, "roots", bad), 1,
                           ("roots",), first)
    assert (tally.attempted, tally.failed) == (6, 2)

    renamed = tmp_path / "roots-0000000000000000.json"
    renamed.write_text(json.dumps({"checks": good}, sort_keys=True))
    workloads.tally_report(tally, "roots", renamed, 0, ("roots",), None)
    assert (tally.attempted, tally.failed) == (9, 3)


def test_injected_failing_check_reaches_fail_ratio(tmp_path, monkeypatch):
    from solvrigid import cli

    workload = workloads.CliWorkload([("roots", ("roots",))])
    state = workload.prepare(0, tmp_path)

    tally = workloads.Tally()
    workload.run_pass(state, tally, lambda: 0)
    assert tally.failed == 0 and tally.attempted > 1

    def injected(cfg, rng):
        return [cli._check("injected", False, 1.0)]

    monkeypatch.setitem(cli._SUITES, "roots", injected)
    tally = workloads.Tally()
    workload.run_pass(state, tally, lambda: 0)
    # the check itself, and the run: exit 1 and a changed digest
    assert (tally.attempted, tally.failed) == (2, 2)

    def raises(cfg, rng):
        raise RuntimeError("injected")

    monkeypatch.setitem(cli._SUITES, "roots", raises)
    tally = workloads.Tally()
    workload.run_pass(state, tally, lambda: 0)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.declared()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_norm_s", "setup_s", "peak_rss_mb"}


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   solvrigid.errors\n"
        "import time:       680 |     115845 | solvrigid\n"
        "some other line\n"
    )
    assert tracing.parse_importtime(text) == {
        "solvrigid.errors": (120e-6, 120e-6),
        "solvrigid": (680e-6, 115845e-6),
    }
