"""One benchmark worker: set up a workload, run timed passes, report as JSON.

Started by run.py in a fresh single-threaded interpreter. It prints
``ready`` once solvrigid is imported and the inputs exist, then, unless
``--setup-only``, runs passes one after another and prints one JSON line.
With ``--trace 1`` it first runs untraced passes for a quarter of the time
(at least one), then patches the layer modules and runs traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import solvrigid  # first, so its import time covers numpy as a user's import does

import numpy as np
import layers
import tracing
from workloads import WORKLOADS, Tally

HERE = Path(__file__).resolve().parent

MIN_PASSES = 3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# Machine speed on a shared host drifts by up to 1.8x over minutes, for
# interpreter and numpy code alike, so all passes of one run share whatever
# period the run lands in. Timing this fixed piece of benchmark code, a mix of
# interpreter work and small numpy calls like the workloads', before and after
# every pass measures that speed; wall_norm_s rescales each pass to the speed
# at which the reference takes REFERENCE_S seconds.
REFERENCE_S = 0.1


def reference() -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(25000):
        a = rng.uniform(-1.0, 1.0, 3)
        acc += float(np.linalg.norm(a)) ** 0.5 + math.sin(acc)
        table[i % 101] = table.get(i % 101, 0.0) + acc
    m = np.outer(a, a) + np.eye(3)
    for _ in range(500):
        acc += float(np.linalg.eigvalsh(m)[-1])
    return acc


def reference_time() -> float:
    gc.collect()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Pass(NamedTuple):
    wall: float
    tally: Tally
    reference: float  # mean reference time just before and just after the pass

    @property
    def wall_norm(self) -> float:
        return self.wall * REFERENCE_S / self.reference


def run_passes(workload, state, budget: float, minimum: int, node_evals=lambda: 0) -> list[Pass]:
    """Passes one after another until the next would overrun ``budget`` seconds."""
    passes: list[Pass] = []
    begin = time.perf_counter()
    before = reference_time()
    while True:
        tally = Tally()
        gc.collect()
        start = time.perf_counter()
        try:
            workload.run_pass(state, tally, node_evals)
        except Exception as exc:  # counted as a failure; the run goes on
            tally.check(False, f"pass raised {exc!r}")
        wall = time.perf_counter() - start
        after = reference_time()
        passes.append(Pass(wall, tally, 0.5 * (before + after)))
        before = after
        elapsed = time.perf_counter() - begin
        if len(passes) >= minimum and elapsed + statistics.median(p.wall for p in passes) > budget:
            return passes


def layer_metrics(tracer: tracing.Tracer, traced: list[Pass], untraced: list[Pass]) -> dict:
    n = len(traced)
    counts = tracer.counts
    out = layers.span_metrics(tracer.stats, n)
    size = counts["conformal.circumcenter.input_size"]
    calls = tracer.calls("conformal.circumcenter")
    letters = sum(p.tally.letter_points for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    out.update({
        "conformal.circumcenter.iters_mean":
            counts["conformal.circumcenter.inner_ddist"] / size if size else 0.0,
        "conformal.circumcenter.maxed_ratio":
            counts["conformal.circumcenter.maxed"] / calls if calls else 0.0,
        "funcexpr.evals": counts["funcexpr.evals"] / n,
        "funcexpr.Precompose.evals": counts["funcexpr.Precompose.evals"] / n,
        "funcexpr.evals_per_letter":
            sum(p.tally.node_evals for p in traced) / letters if letters else 0.0,
        "trace.untraced.wall_s": untraced_wall,
        "trace.overhead.wall_s": statistics.median(p.wall for p in traced) - untraced_wall,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not Path(solvrigid.__file__).resolve().is_relative_to(src):
        print(f"solvrigid imported from {solvrigid.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    state = workload.prepare(args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        untraced = run_passes(workload, state, args.seconds / 4, 1)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        remaining = args.seconds - sum(p.wall for p in untraced)
        traced = run_passes(workload, state, remaining, 1, lambda: tracer.counts["funcexpr.evals"])
        result["layers"] = layer_metrics(tracer, traced, untraced)
        result["top_paths"] = tracer.top_paths(12)
        timed, passes = untraced, untraced + traced
    else:
        timed = passes = run_passes(workload, state, args.seconds, MIN_PASSES)

    result.update({
        "wall_s": [p.wall for p in timed],
        "wall_norm_s": [p.wall_norm for p in timed],
        "reference_s": [p.reference for p in timed],
        "attempted": sum(p.tally.attempted for p in passes),
        "failed": sum(p.tally.failed for p in passes),
        "failures": [f for p in passes for f in p.tally.failures][:5],
        "digests": [p.tally.digests for p in passes if p.tally.digests],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "solvrigid": solvrigid.__version__,
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
