import numpy as np
import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Install one recorder of the calls to an attribute of one or more owners.

    By default the attribute is ``__call__`` (evaluations of nodes of a
    FuncExpr class); a module-level function is counted by patching it in
    every module that imported it by name.
    """

    def install(*owners, name="__call__") -> list:
        calls = []

        def recorder(original):
            def counted(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)

            return counted

        for owner in owners:
            monkeypatch.setattr(owner, name, recorder(getattr(owner, name)))
        return calls

    return install


@pytest.fixture
def within_ulps():
    """Whether two float arrays agree elementwise to within ``ulps`` units in the last place."""

    def check(got, want, ulps=4) -> bool:
        got, want = np.asarray(got), np.asarray(want)
        scale = np.maximum(np.abs(got), np.abs(want))
        return bool(np.all(np.abs(got - want) <= ulps * np.spacing(scale)))

    return check


@pytest.fixture
def row_pairs():
    """10k pairs of point rows of a spec at mixed scales.

    Every 7th pair is equal (rows 0, 7, ...); rows 1, 8, ... agree on the
    first block; rows 2, 9, ... are 1e-160 apart, so their sums of squares
    underflow.
    """

    def make(spec, rng, rows=10_000):
        shape = (rows, spec.total_dim)
        P = rng.uniform(-5, 5, shape) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        Q = rng.uniform(-5, 5, shape) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
        Q[::7] = P[::7]
        first = spec.block_slices()[0]
        Q[1::7, first] = P[1::7, first]
        P[2::7] = 1e-160 * rng.uniform(-1, 1, P[2::7].shape)
        Q[2::7] = 0.0
        return P, Q

    return make
