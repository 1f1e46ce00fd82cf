"""Expression-tree nodes: evaluation, certificates, and JSON round trips."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from solvrigid import (
    AbsPow,
    FuncExpr,
    AlmostTranslation,
    BlockVar,
    Clamp,
    Const,
    InputError,
    Lin,
    Osc,
    PMax,
    PMin,
    Pwl,
    Scale,
    SpectralData,
    Sum,
    expr_from_json,
    probe_lipschitz,
)
from solvrigid import funcexpr
from solvrigid.fixtures import SPEC_NIL

SPEC = SpectralData((1.0, 2.0), (2, 1))
BLOCKS = [np.array([0.5, -1.0]), np.array([2.0])]


def test_const_and_blockvar():
    assert np.allclose(Const([1.0, 2.0])(BLOCKS), [1.0, 2.0])
    assert np.allclose(BlockVar(1, 1)(BLOCKS), [2.0])
    assert BlockVar(0, 2).deps() == frozenset({0})
    assert Const([3.0]).deps() == frozenset()


def test_lin_sum_scale():
    e = Sum((Scale(2.0, BlockVar(1, 1)), Const([1.0])))
    assert np.allclose(e(BLOCKS), [5.0])
    m = Lin([[1.0, 1.0]], BlockVar(0, 2))
    assert np.allclose(m(BLOCKS), [-0.5])
    assert m.lipschitz == pytest.approx(math.sqrt(2.0))


def test_abspow():
    e = AbsPow(2.0, Clamp(-3.0, 3.0, BlockVar(1, 1)))
    assert np.allclose(e(BLOCKS), [4.0])
    assert e.sup_bound == pytest.approx(9.0)
    with pytest.raises(InputError):
        AbsPow(0.0, Const([1.0]))


def test_abspow_certificates_beyond_float_range_read_inf():
    # 2.0 ** 1e10 raised builtins OverflowError from both certificates
    e = AbsPow(1e10, Const([2.0]))
    assert e.sup_bound == e.lipschitz == math.inf
    assert expr_from_json(e.to_json()).sup_bound == math.inf
    # a map that needs a finite sup certificate rejects the node
    with pytest.raises(InputError):
        AlmostTranslation(SpectralData((1.0, 2.0), (1, 1)), [e, Const([0.0])])


def test_norm_certificates_beyond_float_range_are_silent():
    # np.linalg.norm warned "overflow encountered in dot" from numpy's own
    # module, which the filter for warnings raised in solvrigid does not catch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Const([1e200, 1e200]).sup_bound == math.inf
        osc = Osc([1e200, 1e200], [1e200, 1e200], 0.0, BlockVar(0, 2))
        assert osc.sup_bound == osc.lipschitz == math.inf


def _word_lipschitz(word):
    return [b.lipschitz for b in word.perturbations]


ROOT_LIKE = Clamp(-1.0, 1.0, AbsPow(0.5, BlockVar(1, 1)))  # bounded, Lipschitz certificate inf


# a zero factor beside an infinite one, where the plain product 0 * inf is NaN
@pytest.mark.parametrize("certificates, want", [
    (lambda: [Osc([1e200, 1e200], [0.0, 0.0], 0.0, BlockVar(0, 2)).lipschitz], [0.0]),
    (lambda: [Pwl([0.0, 1.0], [1.0, 1.0], AbsPow(0.5, BlockVar(1, 1))).lipschitz], [0.0]),
    (lambda: [Osc([0.0], [1.0], 0.0, AbsPow(0.5, BlockVar(1, 1))).lipschitz], [0.0]),
    (lambda: _word_lipschitz(
        AlmostTranslation(SPEC_NIL, [Const([0.5]), Const([1.0])]).compose(
            AlmostTranslation(SPEC_NIL, [ROOT_LIKE, Const([1.0])]))), [math.inf, 0.0]),
    (lambda: _word_lipschitz(AlmostTranslation(
        SpectralData((1.0, 2.0, 3.0), (2, 1, 1)),
        [Const([0.5, 0.5]), Clamp(-1.0, 1.0, AbsPow(0.5, BlockVar(2, 1))), Const([1.0])],
    ).inverse()), [0.0, math.inf, 0.0]),
], ids=["osc-gain", "pwl", "osc-child", "word-compose", "word-inverse"])
def test_a_zero_factor_keeps_a_certificate_zero(certificates, want):
    assert certificates() == want


@pytest.mark.parametrize("build", [
    lambda: Scale("x", BlockVar(0, 1)),
    lambda: Scale([1.0, 2.0], BlockVar(0, 1)),
    lambda: Scale(math.nan, BlockVar(0, 1)),
    lambda: AbsPow("x", BlockVar(0, 1)),
    lambda: AbsPow(math.inf, BlockVar(0, 1)),
    lambda: Clamp("a", "b", BlockVar(0, 1)),
    lambda: Clamp(-math.inf, 0.0, BlockVar(0, 1)),
    lambda: AlmostTranslation(SpectralData((1.0,), (1,)), [Const([0.0])], K="x"),
    lambda: AlmostTranslation(SpectralData((1.0,), (1,)), [Const([0.0])], K=[1.0, 2.0]),
])
def test_scalar_parameters_are_one_finite_number(build):
    # these raised builtins ValueError or TypeError, or were accepted
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize("node", [Lin(np.zeros((1, 1)), BlockVar(1, 1)),
                                  Scale(0.0, BlockVar(1, 1)), Scale(-0.0, BlockVar(1, 1))])
def test_zero_factor_certificates_are_zero(node):
    # 0 * inf read NaN over the unbounded block variable
    assert node.sup_bound == node.lipschitz == 0.0
    # an identically zero perturbation was rejected for its NaN sup certificate
    a = AlmostTranslation(SpectralData((1.0, 2.0), (1, 1)), [node, Const([0.0])])
    assert a.b_max(0) == 0.0
    assert np.array_equal(a.eval_blocks([np.array([3.0]), np.array([2.0])])[0], [3.0])


def test_pointwise_min_max():
    lo = Const([0.0])
    hi = BlockVar(1, 1)
    assert np.allclose(PMin((lo, hi))(BLOCKS), [0.0])
    assert np.allclose(PMax((lo, hi))(BLOCKS), [2.0])


def test_pwl_interpolation_and_bounds():
    e = Pwl([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], BlockVar(1, 1))
    assert np.allclose(e([np.zeros(2), np.array([0.5])]), [0.5])
    assert e([np.zeros(2), np.array([7.0])]) == pytest.approx(0.0)
    assert e.sup_bound == pytest.approx(1.0)
    assert e.lipschitz == pytest.approx(1.0)


def test_osc_certificates():
    e = Osc(amp=[2.0], weights=[3.0], phase=0.1, child=BlockVar(1, 1))
    assert e.sup_bound == pytest.approx(2.0)
    assert e.lipschitz == pytest.approx(6.0)
    assert np.allclose(e(BLOCKS), [2.0 * math.sin(6.1)])


def test_certificates_dominate_probed_slopes():
    rng = np.random.default_rng(0)
    exprs = [
        Sum((Scale(1.5, BlockVar(1, 1)), Osc([1.0], [2.0], 0.0, BlockVar(1, 1)))),
        Lin([[0.3, -0.4]], BlockVar(0, 2)),
        Pwl([-1.0, 1.0], [0.0, 3.0], BlockVar(1, 1)),
    ]
    for e in exprs:
        probed = probe_lipschitz(e, SPEC, rng, probes=300)
        assert probed <= e.lipschitz * (1.0 + 1e-6)


def test_json_round_trip():
    e = Sum((
        Lin([[2.0]], AbsPow(1.5, Clamp(-1.0, 1.0, BlockVar(1, 1)))),
        Osc([0.5], [1.0], 0.25, BlockVar(1, 1)),
        Scale(-1.0, Const([4.0])),
    ))
    payload = json.loads(json.dumps(e.to_json()))
    again = expr_from_json(payload)
    for v in (-2.0, 0.0, 0.7, 5.0):
        blocks = [np.zeros(2), np.array([v])]
        assert np.allclose(e(blocks), again(blocks))


def test_json_rejects_unknown_tag():
    with pytest.raises(InputError):
        expr_from_json({"node": "spline"})


NAN, INF = float("nan"), float("inf")
X1 = {"node": "block", "index": 1, "dim": 1}


@pytest.mark.parametrize("payload", [
    [X1],  # not an object
    "const",
    {"node": "lin", "child": X1},  # a missing field
    {"node": "osc", "amp": [1.0], "weights": [1.0], "child": X1},
    {"node": "const", "value": "abc"},  # not numeric
    {"node": "const", "value": [1.0, "x"]},
    {"node": "scale", "factor": [2.0], "child": X1},
    {"node": "const", "value": [NAN]},  # not finite
    {"node": "scale", "factor": NAN, "child": X1},
    {"node": "osc", "amp": [1.0], "weights": [INF], "phase": 0.0, "child": X1},
    {"node": "lin", "matrix": [[NAN]], "child": X1},
    {"node": "pwl", "xs": [0.0, 1.0], "ys": [0.0, INF], "child": X1},
    {"node": "clamp", "lo": -INF, "hi": 0.0, "child": X1},
    {"node": "block", "index": -1, "dim": 1},  # negative or fractional index
    {"node": "block", "index": 1.5, "dim": 1},
    {"node": "sum", "children": 5},
    {"node": "block", "index": 5, "dim": 1},  # past the blocks: caught at evaluation
    {"node": "const", "value": ["2.5"]},  # strings and booleans are not JSON numbers
    {"node": "scale", "factor": True, "child": {"node": "block", "index": "1", "dim": True}},
    {"node": "scale", "factor": 2.0, "child": {"node": "block", "index": "1", "dim": 1}},
    {"node": "block", "index": 1, "dim": True},
    {"node": "clamp", "lo": "-1", "hi": 0.0, "child": X1},
    {"node": "lin", "matrix": [[1.0], [False]], "child": X1},
    {"node": "osc", "amp": [1.0], "weights": [1.0], "phase": "0", "child": X1},
], ids=lambda p: json.dumps(p)[:60])
def test_json_rejects_malformed_nodes(payload):
    with pytest.raises(InputError):
        expr_from_json(payload)(BLOCKS)


@pytest.mark.parametrize("weights, phase", [([1.0], math.nan), ([math.nan], 0.0),
                                           ([math.inf], 0.0), ([1.0], -math.inf)])
def test_a_python_built_oscillation_takes_only_finite_weights_and_phase(weights, phase):
    # a NaN phase built an almost translation with b_max(0) 1.0 that maps (1, 2) to (nan, 2)
    with pytest.raises(InputError, match="oscillation"):
        AlmostTranslation(SpectralData((1.0, 2.0), (1, 1)),
                          [Osc([1.0], weights, phase, BlockVar(1, 1)), Const([0.0])])


@pytest.mark.parametrize("xs, ys", [([0.0, math.inf], [0.0, math.inf]),
                                    ([0.0, 1.0], [0.0, math.nan]), ([-math.inf, 0.0], [1.0, 0.0])])
def test_a_python_built_table_takes_only_finite_knots_and_values(xs, ys):
    # knots and values of inf gave an inf / inf slope, and numpy's RuntimeWarning
    with pytest.raises(InputError, match="piecewise-linear"):
        Pwl(xs, ys, BlockVar(1, 1))


def _displacement():
    """Block 0's Displacement node of a three-letter word."""
    a = AlmostTranslation(SPEC, [Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)), Const([1.5])])
    return a.compose(a.inverse()).compose(a).perturbations[0]


# one node of each type, on blocks of dims 2 and 1
NODES = {
    "const": Const([1.0, -2.0]),
    "block": BlockVar(0, 2),
    "lin": Lin([[1.0, 2.0], [0.5, -1.0], [3.0, 0.1]], BlockVar(0, 2)),
    "sum": Sum((BlockVar(1, 1), Const([0.5]), Scale(2.0, BlockVar(1, 1)))),
    "scale": Scale(-1.5, BlockVar(0, 2)),
    "abspow": AbsPow(1.7, BlockVar(0, 2)),
    "min": PMin((BlockVar(1, 1), Const([0.2]), Lin([[1.0, -1.0]], BlockVar(0, 2)))),
    "max": PMax((Const([0.2]), BlockVar(1, 1), Lin([[1.0, -1.0]], BlockVar(0, 2)))),
    "clamp": Clamp(-1.0, 0.5, BlockVar(0, 2)),
    "pwl": Pwl([-1.0, 0.0, 2.0], [0.0, 1.0, -1.0], BlockVar(1, 1)),
    "osc": Osc([2.0, -1.0], [0.7, -1.3], 0.4, BlockVar(0, 2)),
    "displacement": _displacement(),
}


@pytest.mark.parametrize("name", list(NODES))
def test_rows_equal_the_per_point_loop(name):
    e = NODES[name]
    rows = np.random.default_rng(5).uniform(-3, 3, (40, SPEC.total_dim))
    blocks = [rows[:, s] for s in SPEC.block_slices()]
    got = e(blocks)
    want = np.array([e([b[j] for b in blocks]) for j in range(len(rows))])
    # a const node keeps one value for all rows; its consumer broadcasts it
    assert got.shape == ((e.dim,) if name == "const" else (len(rows), e.dim))
    assert np.array_equal(np.broadcast_to(got, want.shape), want)


@pytest.mark.parametrize("block", [np.zeros((4, 3)), np.zeros((2, 4, 2)), np.zeros(()), np.zeros(3)],
                         ids=["rows-of-3", "3-d", "0-d", "point-of-3"])
def test_misshaped_row_block_rejected(block):
    with pytest.raises(InputError):
        BlockVar(0, 2)([block, np.zeros(1)])


def _node_rows():
    rows = np.random.default_rng(5).uniform(-3, 3, (40, SPEC.total_dim))
    return [rows[:, s] for s in SPEC.block_slices()]


@pytest.mark.parametrize("name", [n for n in NODES if n != "displacement"])
def test_json_round_trip_of_every_node_kind(name):
    e = NODES[name]
    payload = json.loads(json.dumps(e.to_json()))
    again = expr_from_json(payload)
    assert payload["node"] == name and type(again) is type(e)
    assert again.to_json() == payload
    blocks = _node_rows()
    assert np.array_equal(again(blocks), e(blocks))
    assert np.array_equal(again(BLOCKS), e(BLOCKS))
    assert (again.sup_bound, again.lipschitz, again.deps()) == (e.sup_bound, e.lipschitz, e.deps())


def test_displacement_has_no_json_encoding():
    with pytest.raises(NotImplementedError):
        NODES["displacement"].to_json()


def test_doc_node_table_matches_the_layout_table():
    text = (Path(__file__).resolve().parents[1] / "docs" / "funcexpr-schema.md").read_text()
    lines = text.split("## Node types")[1].split("\n## ")[0].splitlines()
    kinds = {"[float]": "array", "[[float]]": "array", "float": "scalar", "float > 0": "scalar",
             "int >= 0": "count", "": "child", "[node]": "children"}
    rows = []
    for line in (line for line in lines if line.startswith("| `")):
        tag, fields = line.split("|")[1:3]
        rows.append((tag.strip().strip("`"), tuple(
            (name, kinds[kind]) for name, kind in re.findall(r"`(\w+)(?::\s*([^`]*))?`", fields))))
    assert rows == [(tag, fields) for tag, (_, fields) in funcexpr._NODES.items()]


def test_every_node_class_has_a_layout():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {cls for cls in subclasses(FuncExpr)
               if cls.__module__ == funcexpr.__name__ and not cls.__name__.startswith("_")}
    laid_out = {cls for cls, _ in funcexpr._NODES.values()}
    assert sorted(c.__name__ for c in classes - laid_out - {funcexpr.Displacement}) == []


X01 = BlockVar(0, 1)


@pytest.mark.parametrize("e, points", [
    (PMax((Const([1.0, 0.0]), Const([0.0, 1.0]))), [[0.0]]),
    (PMin((Const([-1.0, 0.0]), Const([0.0, -1.0]))), [[0.0]]),
    (PMax((Lin([[1.0], [0.0]], X01), Lin([[0.0], [1.0]], X01))), [[0.0], [1.0]]),
    (PMin((Lin([[-1.0], [0.0]], X01), Lin([[0.0], [-1.0]], X01))), [[0.0], [1.0]]),
    (AbsPow(0.5, Const([2**-0.5, 2**-0.5])), [[0.0]]),
], ids=["max-sup", "min-sup", "max-lipschitz", "min-lipschitz", "abspow-sup"])
def test_vector_certificates_dominate_the_values(e, points):
    # each read 1.0 where the value's norm, or its move between x = 0 and x = 1, is sqrt(2)
    # (1.189 for abspow)
    values = [e([np.array(p)]) for p in points]
    if len(values) == 1:
        assert e.sup_bound >= np.linalg.norm(values[0]) * (1 - 1e-15) > 1.1
    else:
        assert e.lipschitz >= np.linalg.norm(values[1] - values[0]) * (1 - 1e-15) > 1.1


def test_scalar_min_max_certificates_stay_the_largest_child_bound():
    e = PMax((Const([1.0]), Scale(-3.0, Clamp(-1.0, 1.0, X01))))
    assert (e.sup_bound, e.lipschitz) == (3.0, 3.0)
