"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

A workload is prepared once per worker (``prepare``) and then run pass after
pass (``run_pass``). Every pass judges its own results into a Tally; a
failed check, an oracle mismatch, a non-zero exit and an exception each
count as one failure. Library calls go through module attributes
(``nilpotent.orbit_growth``, not a name imported once), so the traced run
sees them after it patches the modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from functools import reduce
from pathlib import Path

import numpy as np

# Float oracles allow this error relative to max(1, |expected|); fixed before
# any run. Word evaluations agree with their oracles to about 1e-15.
TOL = 1e-9

# suite_all runs the CLI at this seed whatever the benchmark seed is: the
# conformal suite's cost ranges from 1.3 s to 5.7 s over CLI seeds 0-11 (how
# often circumcenter reaches max_iters), which would make runs at different
# benchmark seeds incomparable.
SUITE_ALL_CLI_SEED = 0

_ALL_SUITES = ("metric", "geodesic", "classify", "conformal", "conjugate", "roots")


class Tally:
    """Checks attempted and failed in one pass, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        # FuncExpr node evaluations and word letters x points, over word evaluations
        self.node_evals = 0
        self.letter_points = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)


def close(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return got.shape == want.shape and float(np.max(np.abs(got - want))) <= TOL * scale


# -- CLI workloads ------------------------------------------------------------


def tally_report(tally: Tally, subcommand: str, path: Path, code: int,
                 suites: tuple[str, ...], digest_before: str | None) -> str:
    """Judge one written CLI report; returns its digest.

    Each report check counts as one check. One more check covers the run
    itself: exit status 0, a file named by the hash of its content, every
    expected suite present, and the same digest as the previous pass at the
    same seed, since reports are byte-deterministic.
    """
    text = path.read_text()
    report = json.loads(text)
    for c in report["checks"]:
        tally.check(c.get("passed") is True, f"{subcommand}: {c.get('suite')}/{c.get('name')}")
    digest = path.stem.rpartition("-")[2]
    problems = []
    if code != 0:
        problems.append(f"exit {code}")
    if path.stem != f"{subcommand}-{hashlib.sha256(text.encode()).hexdigest()[:16]}":
        problems.append(f"file name {path.name} is not the content hash")
    if {c.get("suite") for c in report["checks"]} != set(suites):
        problems.append("suites missing from the report")
    if digest_before is not None and digest != digest_before:
        problems.append(f"digest {digest} differs from {digest_before} at the same seed")
    tally.check(not problems, f"{subcommand}: {', '.join(problems)}")
    return digest


class CliWorkload:
    """Runs CLI subcommands in order; a pass ends when every report is judged."""

    def __init__(self, steps, config=None, fixed_cli_seed=None):
        self.steps = steps  # (subcommand, suites it runs)
        self.config = config
        self.fixed_cli_seed = fixed_cli_seed

    def prepare(self, seed: int, workdir: Path) -> dict:
        from solvrigid import cli

        args = ["--seed", str(seed if self.fixed_cli_seed is None else self.fixed_cli_seed)]
        if self.config is not None:
            config = workdir / "config.json"
            config.write_text(json.dumps(dict(self.config, seed=seed)))
            args += ["--config", str(config)]
        return {"cli": cli, "args": args, "workdir": workdir, "digests": {}, "pass": 0}

    def run_pass(self, state: dict, tally: Tally, node_evals) -> None:
        state["pass"] += 1
        out = state["workdir"] / f"pass-{state['pass']}"
        try:
            for subcommand, suites in self.steps:
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = state["cli"].main([subcommand, *state["args"], "--out", str(out)])
                    path = Path(buf.getvalue().strip().splitlines()[-1])
                    digest = tally_report(tally, subcommand, path, code, suites,
                                          state["digests"].get(subcommand))
                except Exception as exc:  # the pass goes on; the failure is counted
                    tally.check(False, f"{subcommand} raised {exc!r}")
                    continue
                state["digests"][subcommand] = tally.digests[subcommand] = digest
        finally:
            shutil.rmtree(out, ignore_errors=True)


# -- kernel_words ------------------------------------------------------------

KERNEL_C = 4.0  # top-block translation of the oscillating kernel element
POWER_N = 9
POWER_POINTS = 2
WORD_LEN = 10
WORDS = 2
WORD_POINTS = 2
ALPHABET = 4
ORBIT_CAP = 7
ROOT_ORDER = 2


def gamma_power_closed_form(x1: float, x2: float, n: int, c: float = KERNEL_C) -> tuple[float, float]:
    """gamma^n for gamma(x1, x2) = (x1 + sin x2, x2 + c), any integer n."""
    if n >= 0:
        return x1 + sum(math.sin(x2 + k * c) for k in range(n)), x2 + n * c
    m = -n
    return x1 - sum(math.sin(x2 - k * c) for k in range(1, m + 1)), x2 - m * c


def random_asim_letter(rng: np.random.Generator, spec):
    """A similarity (rotation, stretch, translation) after an oscillating almost translation.

    ``spec`` has a 2-dimensional first block and a 1-dimensional second block.
    """
    from solvrigid import funcexpr, mapalg, nilpotent

    theta = rng.uniform(-math.pi, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    sim = mapalg.SimMap(spec, rng.uniform(0.8, 1.25), [rot, np.array([[1.0]])],
                        [rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)])
    bump = funcexpr.Osc(amp=rng.uniform(-0.5, 0.5, 2), weights=[rng.uniform(0.5, 2.0)],
                        phase=rng.uniform(0.0, 2 * math.pi), child=funcexpr.BlockVar(1, 1))
    almost = nilpotent.AlmostTranslation(spec, [bump, funcexpr.Const(rng.uniform(-1, 1, 1))])
    return mapalg.ASimMap(sim, almost)


def orbit_expectation(x1: float, x2: float, cap: int, rng: np.random.Generator):
    """Radius, count and saturation that orbit_growth must report for gamma.

    The distinct elements within ``cap`` letters are gamma^k, |k| <= cap.
    The radius is drawn between two neighbouring distinct distances, so no
    distance lies within rounding error of it.
    """
    dist = {k: max(abs(d1 - x1), abs(d2 - x2) ** 0.5)  # SPEC_NIL: exponents 1 and 2
            for k in range(-cap, cap + 1)
            for d1, d2 in [gamma_power_closed_form(x1, x2, k)]}
    levels = []
    for d in sorted(dist.values()):
        if not levels or d - levels[-1] > 1e-6:
            levels.append(d)
    i = int(rng.integers(1, len(levels) - 1))
    radius = 0.5 * (levels[i] + levels[i + 1])
    count = sum(d <= radius for d in dist.values())
    saturated = dist[cap] <= radius or dist[-cap] <= radius
    return radius, count, saturated


class KernelWords:
    """Compose (build) and evaluate (read) boundary-map words, checked by oracles."""

    def prepare(self, seed: int, workdir: Path) -> dict:
        from solvrigid import fixtures

        rng = np.random.default_rng(seed)
        gamma = fixtures.oscillating_kernel_element(c=KERNEL_C)
        power_points = [rng.uniform(-3, 3, 2) for _ in range(POWER_POINTS)]
        alphabet = [random_asim_letter(rng, fixtures.SPEC_ROT) for _ in range(ALPHABET)]
        words = [[alphabet[i] for i in rng.integers(0, ALPHABET, WORD_LEN)] for _ in range(WORDS)]
        word_points = [(rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 1)) for _ in range(WORD_POINTS)]
        base = rng.uniform(-1, 1, 2)
        radius, count, saturated = orbit_expectation(base[0], base[1], ORBIT_CAP, rng)
        return {
            "gamma": gamma, "power_points": power_points, "words": words,
            "word_points": word_points, "orbit": (base, radius, count, saturated),
            "roots": [fixtures.exact_r1_fixture(), fixtures.exact_r2_fixture()],
        }

    def run_pass(self, state: dict, tally: Tally, node_evals) -> None:
        """``node_evals`` reads the FuncExpr evaluation count (0 when untraced)."""
        from solvrigid import nilpotent
        from solvrigid.spectral import BlockPoint

        def evaluate(word, p, letters):
            before = node_evals()
            image = word(p)
            tally.node_evals += node_evals() - before
            tally.letter_points += letters
            return image

        for n in (POWER_N, -POWER_N):
            power = state["gamma"].power(n)
            for x in state["power_points"]:
                got = evaluate(power, BlockPoint((x[:1], x[1:])), abs(n)).flat()
                tally.check(close(got, gamma_power_closed_form(x[0], x[1], n)), f"gamma^{n} at {x}")

        for letters in state["words"]:
            left = reduce(lambda acc, a: acc.compose(a), letters)
            right = reduce(lambda acc, a: a.compose(acc), reversed(letters))
            for blocks in state["word_points"]:
                p = BlockPoint(blocks)
                want = p
                for a in reversed(letters):
                    want = a(want)
                for fold, word in (("left", left), ("right", right)):
                    got = evaluate(word, p, len(letters))
                    tally.check(close(got.flat(), want.flat()), f"{fold}-folded word at {blocks}")

        base, radius, count, saturated = state["orbit"]
        orbit = nilpotent.orbit_growth([state["gamma"]], BlockPoint((base[:1], base[1:])),
                                       radius, ORBIT_CAP)
        tally.check(orbit.count == count and orbit.saturated == saturated,
                    f"orbit_growth {orbit} != ({count}, {saturated})")

        for gens, gamma_p, levels in state["roots"]:
            probes = nilpotent.default_probes(gens[0].dims)
            cert = nilpotent.approx_lth_root(gamma_p, range(len(gens)), levels, ROOT_ORDER)
            target = nilpotent.root_power_word(cert, gens)
            tally.check((cert.gamma_prime ** ROOT_ORDER).equals(target, probes), "root power")
            tally.check((cert.gamma_prime * cert.eta).equals(gamma_p, probes), "root factorization")


_SPEC_BATCH = {"alphas": [1.0, 2.0, 3.5], "mults": [2, 1, 2]}

WORKLOADS = {
    "suite_all": CliWorkload([("all", _ALL_SUITES)], fixed_cli_seed=SUITE_ALL_CLI_SEED),
    "boundary_batch": CliWorkload(
        [("metric", ("metric",)), ("geodesic", ("geodesic",))],
        config={"spec": _SPEC_BATCH, "triples": 20000, "pairs": 20000},
    ),
    "kernel_words": KernelWords(),
}
