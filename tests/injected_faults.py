"""Faults that the tests inject into the CLI checks, written once for every
test module that shows a check can fail."""

import numpy as np

from solvrigid import cli
from solvrigid.mapalg import SimMap


def skewed_compose(monkeypatch):
    """A product of a stack of similarities off by 1e-8 relative in its stretch;
    a product of one similarity is left exact."""
    compose = SimMap.compose

    def skewed(self, other):
        out = compose(self, other)
        if np.ndim(out.stretch) == 0:
            return out
        return SimMap(out.spec, out.stretch * (1 + 1e-8), out.rotations, out.translations)

    monkeypatch.setattr(SimMap, "compose", skewed)


def low_epsilon_bound(monkeypatch):
    """Every block's epsilon_bound read as 1.99: at seed 0 the first 50 of the roots
    suite's 500 draws of sin span 1.9797 and all of them 2.0000, so the bound fails
    only when every draw counts."""
    monkeypatch.setattr(cli, "epsilon_bound", lambda gamma, i: 1.99)
