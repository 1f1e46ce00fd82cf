"""The per-layer metrics of the traced run, and what each one should move.

Every entry names the end-to-end metric and the workload on which a change
to that layer should show, and where the prediction is no change. A later
change that claims a gain states its prediction against this table.
BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

# stats of a span-traced callable; percentiles need at least 1000 calls so
# that 10 samples lie beyond p99
TIMED = ("calls", "self_s")
HOT = ("calls", "self_s", "p50_us", "p99_us")

_BOUNDARY = "wall_norm_s and peak_rss_mb on boundary_batch; no change on kernel_words"
_CONFORMAL = "wall_norm_s on suite_all; no change on the other workloads"
_TUKIA = "wall_norm_s on suite_all, through its conjugate suite; no change on the other workloads"
_WORDS = "wall_norm_s on kernel_words; no other workload spends more than a few ms here"
_CLI = "wall_norm_s on suite_all"

# callable -> (stats, prediction)
SPANS = {
    "spectral.random_point": (HOT, _BOUNDARY),
    "quasimetric.distance": (HOT, _BOUNDARY),
    "quasimetric.dilate": (HOT, _BOUNDARY),
    "solvgroup.pair_to_point": (HOT, _BOUNDARY),
    "solvgroup.multiply": (TIMED, _BOUNDARY),
    "solvgroup.inverse": (TIMED, _BOUNDARY),
    "mapalg.SimMap.__call__": (TIMED, _BOUNDARY),
    "conformal.kdist": (HOT, _CONFORMAL),
    "conformal.ddist": (HOT, _CONFORMAL),
    "conformal.act": (TIMED, _CONFORMAL),
    "conformal.circumcenter": (TIMED, _CONFORMAL),
    "tukia.sup_measure_1d": (TIMED, _TUKIA),
    "tukia.reduced_words": (TIMED, _TUKIA),
    "tukia.word_derivative_1d": (HOT, _TUKIA),
    "tukia.conjugator_1d": (TIMED, _TUKIA),
    "tukia.verify_conjugation": (TIMED, _TUKIA),
    "nilpotent.AlmostTranslation.compose": (TIMED, _WORDS),
    "nilpotent.AlmostTranslation.__call__": (TIMED, _WORDS),
    # word evaluation recurses through eval_blocks, not __call__
    "nilpotent.AlmostTranslation.eval_blocks": (TIMED, _WORDS),
    "nilpotent.AlmostTranslation.inverse": (TIMED, _WORDS),
    "mapalg.ASimMap.compose": (TIMED, _WORDS),
    "mapalg.ASimMap.__call__": (TIMED, _WORDS),
    "nilpotent.orbit_growth": (TIMED, _WORDS),
    "nilpotent.approx_lth_root": (TIMED, _WORDS),
    "cli.run_metric": (TIMED, _CLI),
    "cli.run_geodesic": (TIMED, _CLI),
    "cli.run_classify": (TIMED, _CLI),
    "cli.run_conformal": (TIMED, _CLI),
    "cli.run_conjugate": (TIMED, _CLI),
    "cli.run_roots": (TIMED, _CLI),
    # self time of cli.run is report serialization and writing
    "cli.run": (TIMED, _CLI),
}

IMPORTED = ("spectral", "quasimetric", "solvgroup", "mapalg", "funcexpr", "nilpotent",
            "conformal", "tukia", "cli")

# metric -> (unit, prediction) for counts, ratios and times not tied to one span
DERIVED = {
    "conformal.circumcenter.iters_mean": ("count", _CONFORMAL),
    "conformal.circumcenter.maxed_ratio": ("ratio", _CONFORMAL),
    "funcexpr.evals": ("count", _WORDS),
    "funcexpr.Precompose.evals": ("count", _WORDS),
    "funcexpr.evals_per_letter": ("ratio", _WORDS),
    **{f"{m}.import.self_s": ("s", "setup_s on every workload") for m in IMPORTED},
    "solvrigid.import.cum_s": ("s", "setup_s on every workload"),
    "trace.untraced.wall_s": ("s", "the base of trace.overhead.wall_s"),
    "trace.overhead.wall_s": ("s", "nothing: traced minus untraced pass time"),
}

_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}


def declared() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{c}.{stat}", _UNITS[stat]) for c, (stats, _) in SPANS.items() for stat in stats]
    out.extend((name, unit) for name, (unit, _) in DERIVED.items())
    return out


def span_metrics(stats: dict, passes: int) -> dict[str, float]:
    """Per-pass calls and self time, and percentiles where 1000 calls allow a p99.

    ``stats`` maps a span name to a tracing.CallStats; a callable the
    workload never reached reports 0.
    """
    out = {}
    for name, (wanted, _) in SPANS.items():
        s = stats.get(name)
        calls = s.calls if s else 0
        values = {
            "calls": calls / passes,
            "self_s": (s.self_s if s else 0.0) / passes,
            "p50_us": s.percentile(0.50) * 1e6 if calls else 0.0,
            "p99_us": s.percentile(0.99) * 1e6 if calls >= 1000 else 0.0,
        }
        out.update({f"{name}.{stat}": values[stat] for stat in wanted})
    return out
