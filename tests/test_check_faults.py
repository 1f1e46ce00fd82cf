"""Every check of the CLI suites can fail: one injected fault per check makes
it fail, and a check with no fault is listed with the reason it cannot fail."""

import dataclasses
import json

import numpy as np
import pytest

from solvrigid import cli
from solvrigid.cli import RunConfig
from solvrigid.conformal import conf_class
from solvrigid.mapalg import SimMap
from solvrigid.nilpotent import ExactWord
from solvrigid.tukia import PLHomeo

from injected_faults import low_epsilon_bound, skewed_compose


def _wrap(monkeypatch, name, change):
    """Replace cli's ``name`` by ``change(original, *args)``."""
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: change(original(*args, **kwargs), *args))


def _moved_centers(monkeypatch):
    # every center moved by 1e-5 along a traceless direction
    _wrap(monkeypatch, "solve_circumcenter", lambda res, *_: dataclasses.replace(
        res, center=conf_class(res.center + 1e-5 * np.diag([1.0, 0.0, -1.0]))))


def _squeezed_similarities(monkeypatch):
    # every similarity's first image block squeezed by 0.9: the distance ratio then depends on
    # which block dominates a pair, so the map is no similarity
    apply = SimMap._apply
    monkeypatch.setattr(SimMap, "_apply", lambda self, blocks: [
        0.9 * b if i == 0 else b for i, b in enumerate(apply(self, blocks))])


class _FlatSlopes(PLHomeo):
    """A PLHomeo that reports one flat piece: a real one rejects a zero slope when it is
    built, so the fault changes what the conjugator reports."""

    def slopes(self):
        s = super().slopes().copy()
        s[len(s) // 2] = 0.0
        return s


def _flat_conjugator(monkeypatch):
    def flat(conj, *_):
        conj.__class__ = _FlatSlopes
        return conj

    _wrap(monkeypatch, "conjugator_1d", flat)


def _moved_break(monkeypatch):
    # the measure's break at 0, where it jumps from 1 to 3/2, moved right by 2^-20
    def moved(mu, *_):
        xs = mu.xs.copy()
        xs[np.searchsorted(xs, 0.0)] += 2.0**-20
        return dataclasses.replace(mu, xs=xs)

    _wrap(monkeypatch, "sup_measure_1d", moved)


# (suite, check) -> a fault that must make the check fail
FAULTS = {
    # the squared distance breaks the a1-triangle inequality on near-collinear triples
    ("metric", "triangle-inequality"): lambda mp: _wrap(mp, "distance", lambda d, *_: d * d),
    ("metric", "dilation-similarity"): lambda mp: mp.setattr(
        cli, "dilate", lambda spec, t, p, dilate=cli.dilate: dilate(spec, t * (1 + 1e-9), p)),
    ("metric", "chain-energy-oracle"): lambda mp: _wrap(
        mp, "chain_energy", lambda est, *_: dataclasses.replace(est, value=est.value * (1 + 1e-9))),
    ("geodesic", "pair-to-point-exp-height"): lambda mp: _wrap(
        mp, "pair_to_point", lambda t, *_: t + 1e-9),
    ("geodesic", "pair-to-point-bisect-oracle"): lambda mp: _wrap(
        mp, "pair_to_point_bisect", lambda t, *_: t + 1e-8),
    ("geodesic", "boundary-composition-law"): skewed_compose,
    ("geodesic", "group-law"): lambda mp: _wrap(
        mp, "inverse", lambda g, *_: dataclasses.replace(g, height=g.height + 1e-9)),
    ("classify", "similarity-classified"): _squeezed_similarities,
    ("classify", "height-hom-additive"): lambda mp: _wrap(mp, "height_hom", lambda h, *_: h + 1e-8),
    ("classify", "stretch-hom-pairing"): lambda mp: _wrap(mp, "stretch_hom", lambda v, *_: v + 1e-8),
    # the squared distance breaks the triangle inequality where the angle at b is obtuse
    ("conformal", "kdist-triangle"): lambda mp: _wrap(mp, "kdist", lambda d, *_: d * d),
    # a distance that reads the first class's (0, 0) entry is not GL-invariant
    ("conformal", "kdist-gl-invariance"): lambda mp: _wrap(
        mp, "kdist", lambda d, a, b: d + 1e-9 * np.asarray(a)[..., 0, 0]),
    ("conformal", "circumcenter-symmetric-pair"): _moved_centers,
    ("conformal", "circumcenter-equivariance"): _moved_centers,
    # every proven lower bound on the radius dropped to 0: the gap is the whole radius
    ("conformal", "circumcenter-certified"): lambda mp: _wrap(
        mp, "solve_circumcenter", lambda res, *_: dataclasses.replace(
            res, lower=np.zeros_like(res.lower))),
    ("conjugate", "conjugator-strictly-increasing"): _flat_conjugator,
    ("conjugate", "conjugated-words-similar"): _moved_break,
    **{("roots", f"root-{name}-power-exact"): lambda mp: _wrap(
        mp, "root_power_word", lambda word, cert, gens: word * ExactWord(gens, [(0, 1)]))
       for name in ("r1", "r2")},
    **{("roots", f"root-{name}-factorization-exact"): lambda mp: _wrap(
        mp, "approx_lth_root", lambda cert, *_: dataclasses.replace(
            cert, eta=cert.eta * ExactWord(cert.eta.gens, [(0, 1)])))
       for name in ("r1", "r2")},
    ("roots", "epsilon-bound-dominates"): low_epsilon_bound,
}

# checks that pass by construction, to be replaced by checks that can fail
BY_CONSTRUCTION = {
    # classify reads every ASimMap as ASim, by isinstance
    ("classify", "almost-similarity-classified"): "ROADMAP item 2",
}


@pytest.mark.parametrize("suite, name", sorted(FAULTS))
def test_each_fault_fails_its_check(suite, name, monkeypatch):
    FAULTS[suite, name](monkeypatch)
    checks = {c["name"]: c for c in cli._SUITES[suite](RunConfig(), np.random.default_rng(0))}
    assert not checks[name]["passed"], checks[name]


def test_every_check_has_a_fault_or_a_reason(tmp_path):
    assert cli.main(["all", "--out", str(tmp_path)]) == 0
    (report,) = tmp_path.glob("all-*.json")
    names = {(c["suite"], c["name"]) for c in json.loads(report.read_text())["checks"]}
    assert sorted(names - FAULTS.keys() - BY_CONSTRUCTION.keys()) == []
    assert sorted((FAULTS.keys() | BY_CONSTRUCTION.keys()) - names) == []
