"""Expression-tree nodes: evaluation, certificates, and dependencies."""

import math
import warnings

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


def _probed_slope(e, rng, probes):
    """The largest finite-difference slope of e over random pairs 1e-4 apart in one
    block it reads, at points drawn uniformly from [-5, 5] in every coordinate."""
    js = sorted(e.deps())
    worst = 0.0
    for _ in range(probes):
        a = [rng.uniform(-5.0, 5.0, n) for n in SPEC.multiplicities]
        j = js[rng.integers(len(js))]
        step = rng.normal(size=SPEC.multiplicities[j]) * 1e-4
        b = [x + step if i == j else x for i, x in enumerate(a)]
        worst = max(worst, float(np.linalg.norm(e(a) - e(b)) / np.linalg.norm(step)))
    return worst


def test_certificates_dominate_probed_slopes():
    rng = np.random.default_rng(0)
    exprs = [
        Sum((Scale(1.5, BlockVar(1, 1)), Osc([1.0], [2.0], 0.0, BlockVar(1, 1)))),
        Lin([[0.3, -0.4]], BlockVar(0, 2)),
        Pwl([-1.0, 1.0], [0.0, 3.0], BlockVar(1, 1)),
    ]
    for e in exprs:
        probed = _probed_slope(e, rng, probes=300)
        assert probed <= e.lipschitz * (1.0 + 1e-6)


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


@pytest.mark.parametrize("build", [
    lambda: Const(["abc"]), lambda: Const([1.0, "x"]), lambda: Scale([2.0], BlockVar(1, 1)),
    lambda: Scale(math.nan, BlockVar(1, 1)), lambda: Lin([[math.nan]], BlockVar(1, 1)),
    lambda: Clamp(-math.inf, 0.0, BlockVar(1, 1)), lambda: BlockVar(5, 1)(BLOCKS),
], ids=["const-text", "const-mixed", "scale-list", "scale-nan", "lin-nan", "clamp-inf",
        "block-past-the-blocks"])
def test_a_python_built_node_rejects_parameters_it_cannot_use(build):
    with pytest.raises(InputError):
        build()


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


def test_every_node_class_names_its_children_or_reads_its_own_deps():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {cls for cls in subclasses(FuncExpr)
               if cls.__module__ == funcexpr.__name__ and not cls.__name__.startswith("_")}
    own = {cls for cls in classes if cls.deps is not FuncExpr.deps}
    assert own == {BlockVar, funcexpr.Displacement}
    assert sorted(c.__name__ for c in classes - funcexpr._CHILDREN.keys() - own) == []
    assert {type(e) for e in NODES.values()} == classes


DEPS = {"const": set(), "block": {0}, "lin": {0}, "sum": {1}, "scale": {0}, "abspow": {0},
        "min": {0, 1}, "max": {0, 1}, "clamp": {0}, "pwl": {1}, "osc": {0}, "displacement": {1}}


@pytest.mark.parametrize("name", list(NODES))
def test_deps_are_the_blocks_a_node_reads(name):
    # moving the blocks outside deps leaves the value as it is, up to the rounding of
    # a displacement's x + d - x
    e = NODES[name]
    assert e.deps() == DEPS[name]
    rows = _node_rows()
    moved = [b if i in DEPS[name] else b + 1.5 for i, b in enumerate(rows)]
    assert np.allclose(e(moved), e(rows), rtol=0, atol=1e-12)


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
