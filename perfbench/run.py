"""solvrigid benchmark: time to a checked verdict, set-up time and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite_all --seed 0 --seconds 20 --trace 0

Each run starts fresh single-threaded worker processes (worker.py), one after
another, with solvrigid imported from the checkout's src/. With ``--trace 0``
it reports the end-to-end metrics of BENCHMARK.json: ``wall_norm_s`` (median
over passes of the time from the first call to a checked verdict, rescaled by
a speed reference timed around each pass; see worker.py), ``setup_s`` (median
over several worker start-ups of the time from process start to ready) and
``peak_rss_mb``. With ``--trace 1`` it reports the per-layer metrics of
layers.py from one traced worker. The last line of standard output is the
result as JSON; the line before it holds the samples (raw pass times too), the
machine and the check counts.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("suite_all", "boundary_batch", "kernel_words")
SETUP_SAMPLES = 7  # worker start-ups per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run cannot produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:  # one thread, at or below the CPU count
        env[var] = "1"
    return env


def launch(args, workdir: Path, setup_only: bool, deadline: float) -> tuple[float, dict | None, str]:
    """Start one worker; return its set-up seconds, its result and its stderr."""
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    workdir.mkdir(parents=True)
    err_path = workdir / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                                env=worker_env(), cwd=ROOT, text=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    raise BenchError("worker did not get ready in time")
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker did not finish in time") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    stderr = err_path.read_text()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{stderr[-2000:]}")
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return setup_s, result, stderr


def import_metrics(stderr: str) -> dict[str, float]:
    times = tracing.parse_importtime(stderr)
    out = {f"{m}.import.self_s": times.get(f"solvrigid.{m}", (0.0, 0.0))[0] for m in layers.IMPORTED}
    out["solvrigid.import.cum_s"] = times.get("solvrigid", (0.0, 0.0))[1]
    return out


def bench(args, work: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(launch(args, work / f"setup-{i}", True, deadline)[0])
    setup_s, result, stderr = launch(args, work / "main", False, deadline)
    setups.append(setup_s)
    sys.stderr.write("".join(line for line in stderr.splitlines(keepends=True)
                             if not line.startswith("import time:")))

    attempted, failed = result["attempted"], result["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": result["env"], "wall_s_samples": result["wall_s"],
        "wall_norm_s_samples": result["wall_norm_s"], "reference_s_samples": result["reference_s"],
        "setup_s_samples": setups,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": result["failures"], "digests": result["digests"],
    }
    if args.trace:
        metrics = dict(result["layers"], **import_metrics(stderr))
        detail["top_paths"] = result["top_paths"]
        units = dict(layers.declared())
        metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "wall_norm_s": {"value": statistics.median(result["wall_norm_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    final = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return detail, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "solvrigid" / "__init__.py").is_file():
        print(f"perfbench: no solvrigid sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        detail, final = bench(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
