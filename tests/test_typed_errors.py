"""Malformed input to the parsers, validators and row kernels raises only
the package's own errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from solvrigid import (
    BlockPoint,
    InputError,
    SolvRigidError,
    SpectralData,
    conf_class,
    ddist,
    dilate,
    dilate_rows,
    distance,
    distance_rows,
    kdist,
    pair_to_point_heights,
)
from solvrigid.cli import RunConfig
from solvrigid.funcexpr import expr_from_json
from solvrigid.solvgroup import SolvSpec

numbers = st.integers() | st.floats() | st.just(-(10**400))  # an int beyond float range
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
# numbers, flat or nested lists of them (ragged ones too), or any JSON value
arrays = numbers | st.lists(numbers | st.lists(numbers, max_size=3), max_size=3) | json_values

_TAGS = ["const", "block", "lin", "sum", "scale", "abspow", "min", "max", "clamp", "pwl", "osc", "?"]
_FIELDS = ["value", "index", "dim", "matrix", "factor", "exponent", "lo", "hi", "xs", "ys",
           "amp", "weights", "phase"]


def _node(children):
    optional = {f: arrays for f in _FIELDS}
    optional.update(child=children, children=st.lists(children, max_size=3) | children)
    return st.fixed_dictionaries({"node": st.sampled_from(_TAGS)}, optional=optional)


expr_nodes = st.recursive(json_values, _node, max_leaves=8)
spec_json = st.fixed_dictionaries(
    {}, optional={"alphas": st.lists(numbers, max_size=3) | json_values,
                  "mults": st.lists(st.integers(), max_size=3) | json_values},
) | json_values | st.text(max_size=8)
config_json = st.fixed_dictionaries({}, optional={
    **{k: numbers | json_values for k in ("seed", "triples", "pairs", "beta", "word_len",
                                           "tolerance", "conjugation_tol", "root_order",
                                           "probe_count")},
    "spec": spec_json,
    "grid": st.fixed_dictionaries(
        {}, optional={k: numbers | json_values for k in ("lo", "hi", "resolution")}
    ) | json_values,
}) | json_values


def _symmetrized(a):
    with np.errstate(over="ignore", invalid="ignore"):
        return a + a.mT


def _scaled_gram(args):
    # a @ a^T scaled by 2^e: positive semidefinite members at any scale
    a, e = args
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return np.ldexp(a @ a.mT, e)


matrices = (
    hnp.arrays(float, st.tuples(st.integers(0, 4), st.integers(0, 4)))
    | hnp.arrays(float, st.integers(0, 4).map(lambda n: (n, n))).map(_symmetrized)
    | arrays
)
square_stacks = st.tuples(st.integers(0, 3), st.integers(0, 4)).map(lambda s: (s[0], s[1], s[1]))
# (N, n, n) stacks: any shape, symmetric, Gram members from 2^-1100 to 2^1100
# in size, and lists of matrices, ragged ones too
stacks = (
    hnp.arrays(float, st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 4)))
    | hnp.arrays(float, square_stacks).map(_symmetrized)
    | st.tuples(hnp.arrays(float, square_stacks, elements=st.floats(-10, 10)),
                st.integers(-1100, 1100)).map(_scaled_gram)
    | st.lists(matrices, max_size=3)
)
# two classes, stacks or malformed inputs, for the distances
class_pairs = st.tuples(matrices | stacks, matrices | stacks)


@st.composite
def specs(draw):
    exps = sorted(set(draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3))))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(exps), max_size=len(exps)))
    return SpectralData(tuple(exps), tuple(mults))


@st.composite
def row_pairs(draw):
    spec = draw(specs())
    shape = (draw(st.integers(0, 4)), spec.total_dim)
    rows = hnp.arrays(float, shape) | hnp.arrays(float, hnp.array_shapes(max_dims=3)) | arrays
    return spec, draw(rows), draw(rows)


@st.composite
def point_pairs(draw):
    """A spec and two points: conforming blocks of any floats, or malformed blocks."""
    spec = draw(specs())
    blocks = st.tuples(*(hnp.arrays(float, n) for n in spec.multiplicities)) | st.lists(
        arrays, max_size=3).map(tuple)
    return spec, draw(blocks), draw(blocks)


@st.composite
def dilations(draw):
    spec, p, _ = draw(point_pairs())
    return spec, draw(st.floats()), p


def _distance(spec, p, q):
    return distance(spec, BlockPoint(p), BlockPoint(q))


def _dilate(spec, t, p):
    return dilate(spec, t, BlockPoint(p))


def _pair_to_point(spec, P, Q):
    return pair_to_point_heights(SolvSpec(lower=spec), P, Q)


# target -> (strategy of argument tuples, callable)
TARGETS = {
    "expr_from_json": (st.tuples(expr_nodes), expr_from_json),
    "conf_class": (st.tuples(matrices), conf_class),
    "conf_class_stack": (st.tuples(stacks), conf_class),
    "kdist": (class_pairs, kdist),
    "ddist": (class_pairs, ddist),
    "SpectralData.from_json": (st.tuples(spec_json), SpectralData.from_json),
    "RunConfig.from_json": (st.tuples(config_json), RunConfig.from_json),
    "BlockPoint": (st.tuples(st.lists(arrays, max_size=3).map(tuple) | arrays), BlockPoint),
    "distance_rows": (row_pairs(), distance_rows),
    "dilate_rows": (st.tuples(specs(), st.floats(), arrays | hnp.arrays(
        float, st.tuples(st.integers(0, 3), st.integers(1, 4)))), dilate_rows),
    "pair_to_point_heights": (row_pairs(), _pair_to_point),
    "distance": (point_pairs(), _distance),
    "dilate": (dilations(), _dilate),
}


@pytest.mark.parametrize("target", list(TARGETS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_only_package_errors_escape(target, data):
    strategy, fn = TARGETS[target]
    args = data.draw(strategy)
    try:
        fn(*args)
    except SolvRigidError:
        pass


def test_non_numeric_points_and_rows():
    spec = SpectralData((1.0,), (1,))
    with pytest.raises(InputError):
        BlockPoint((np.array(["a"]),))
    with pytest.raises(InputError):
        distance_rows(spec, [["a"]], [["b"]])
