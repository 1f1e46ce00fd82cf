"""Malformed input to the parsers, validators, metric and boundary maps raises
only the package's own errors, read at one boundary."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from solvrigid import (
    ASimMap,
    AlmostTranslation,
    BlockPoint,
    BlockVar,
    ChainGrid,
    Const,
    FirstBlockAffineMap,
    InputError,
    Osc,
    PLHomeo,
    Scale,
    SimMap,
    SolvRigidError,
    SpectralData,
    Sum,
    chain_energy,
    conf_class,
    ddist,
    dilatation,
    dilate,
    distance,
    invariant_structure,
    inverse,
    kdist,
    multiply,
    pair_to_point,
    pair_to_point_bisect,
    solve_circumcenter,
    spectral,
)
from solvrigid.cli import RunConfig
from solvrigid.fixtures import (
    SPEC_RADIAL,
    SPEC_ROT,
    constant_rotation_map,
    radial_escape_words,
    radial_generator,
    varying_rotation_map,
)
from solvrigid.solvgroup import SolvPoint, SolvSpec, _level_gaps, boundary_of_height_isometry
from solvrigid.spectral import BoundaryMap

numbers = st.integers() | st.floats() | st.just(-(10**400))  # an int beyond float range
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
# numbers, flat or nested lists of them (ragged ones too), or any JSON value
arrays = numbers | st.lists(numbers | st.lists(numbers, max_size=3), max_size=3) | json_values

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
    """A spec and two points of any floats or malformed: the blocks of a
    BlockPoint as a tuple, or one point or rows as an array or list."""
    spec = draw(specs())
    blocks = st.tuples(*(hnp.arrays(float, n) for n in spec.multiplicities)) | st.lists(
        arrays, max_size=3).map(tuple)
    shape = st.just((spec.total_dim,)) | st.tuples(st.integers(0, 4), st.just(spec.total_dim))
    flat = hnp.arrays(float, shape) | hnp.arrays(float, hnp.array_shapes(max_dims=3)) | arrays
    return spec, draw(blocks | flat), draw(blocks | flat)


@st.composite
def dilations(draw):
    spec, p, _ = draw(point_pairs())
    return spec, draw(numbers), p


def _point(x):
    """A BlockPoint of the blocks that point_pairs draws as a tuple; other draws as they are."""
    return BlockPoint(x) if isinstance(x, tuple) else x


def _reads_points(fn, *points):
    """fn(*points) for points that point_pairs draws. A BlockPoint is not a point of the
    metric: it is read before anything else can be rejected, so it ends in InputError."""
    points = [_point(x) for x in points]
    if not any(isinstance(x, BlockPoint) for x in points):
        return fn(*points)
    with pytest.raises(InputError):
        fn(*points)


def _reads_solv_points(fn):
    """fn(spec, *points) for solv_points draws: a BlockPoint among the x coordinates, the
    first read, ends in InputError."""
    def call(spec, *points):
        if not any(isinstance(p.x, BlockPoint) for p in points):
            return fn(spec, *points)
        with pytest.raises(InputError):
            fn(spec, *points)

    return call


def _boundary_maps():
    """A rotation similarity, an almost-translation word, their composite and a shear of
    block 0 that sends block 1 to a constant block."""
    s = SimMap(SPEC_ROT, 1.3, [[[0.6, -0.8], [0.8, 0.6]], [[-1.0]]], [[0.4, -0.2], [0.3]])
    a = AlmostTranslation(SPEC_ROT, [Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)), Const([0.7])])
    word = a.compose(a.inverse())
    shear = FirstBlockAffineMap(SPEC_ROT, 1.0, lambda y: [np.ones(1)],
                                A_of=lambda y: np.array([[1.0, 2.0], [0.0, 1.0]]))
    return [s, word, ASimMap(s, word), shear]


# any finite coordinate, and non-finite ones: an image beyond float range reads inf
coordinates = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [math.nan, math.inf, -math.inf])


@st.composite
def solv_points(draw, count):
    """A solvable spec and ``count`` points of it: one point or rows of one
    count, with heights up to +-1e3 and non-finite ones, or malformed."""
    upper = draw(st.none() | specs())
    lower = draw(specs() if upper is None else st.none() | specs())
    n = draw(st.none() | st.integers(0, 4))  # None: one point
    lead = () if n is None else (n,)
    height = st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf])
    heights = (height if n is None else hnp.arrays(float, lead, elements=height)) | arrays

    def coords(data):
        if data is None:
            return st.none() | arrays
        return (
            hnp.arrays(float, lead + (data.total_dim,), elements=coordinates)
            | st.tuples(*(hnp.arrays(float, k, elements=coordinates)
                          for k in data.multiplicities)).map(BlockPoint)
            | hnp.arrays(float, hnp.array_shapes(max_dims=3)) | arrays | st.none()
        )

    points = [SolvPoint(draw(heights), draw(coords(lower)), draw(coords(upper)))
              for _ in range(count)]
    return (SolvSpec(lower, upper), *points)


def _blocks_for(maps, dims):
    """A map of ``maps`` and blocks for it: rows or one point of block dims ``dims``, or
    malformed blocks."""
    return st.tuples(
        st.sampled_from(maps),
        st.integers(0, 4).flatmap(lambda n: st.tuples(
            *(hnp.arrays(float, (n, d), elements=coordinates) for d in dims)))
        | st.tuples(*(hnp.arrays(float, d, elements=coordinates) for d in dims))
        | st.lists(hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                      max_side=3), elements=coordinates)
                   | arrays, max_size=3),
    )


map_blocks = _blocks_for(_boundary_maps(), SPEC_ROT.multiplicities)
affine_blocks = _blocks_for(
    [constant_rotation_map(), varying_rotation_map(),
     varying_rotation_map().compose(constant_rotation_map())], SPEC_ROT.multiplicities,
) | _blocks_for([radial_generator(), radial_escape_words(3)[-1]], SPEC_RADIAL.multiplicities)


def _eval_blocks(F, blocks):
    return F.eval_blocks(blocks)


def _distance(spec, p, q):
    return _reads_points(lambda p, q: distance(spec, p, q), p, q)


def _dilate(spec, t, p):
    dilate(spec, t, np.zeros(spec.total_dim))  # the parameter is read first
    return _reads_points(lambda p: dilate(spec, t, p), p)


def _pair_to_point(spec, p, q):
    return _reads_points(lambda p, q: pair_to_point(SolvSpec(lower=spec), p, q), p, q)


def _pair_to_point_bisect(spec, p, q):
    return _reads_points(lambda p, q: pair_to_point_bisect(SolvSpec(lower=spec), p, q), p, q)


@st.composite
def stretch_stacks(draw):
    """(B,) stretches in range with one member drawn from any float, B >= 1."""
    stretch = draw(hnp.arrays(float, st.integers(1, 4), elements=st.floats(0.1, 10.0)))
    stretch[draw(st.integers(0, len(stretch) - 1))] = draw(st.floats())
    return (stretch,)


def _stack_maps(stretch):
    """A stack of similarities, its product with itself, inverse, Lipschitz bounds and images."""
    s = SimMap(SPEC_ROT, stretch, [[[0.6, -0.8], [0.8, 0.6]], [[-1.0]]], [[0.4, -0.2], [0.3]])
    s.compose(s), s.inverse(), s.lip_bound()
    rows = np.size(s.stretch)
    return s.eval_blocks([np.ones((rows, 2)), np.ones((rows, 1))])


def _boundary_of_height_isometry(a):
    return boundary_of_height_isometry(SolvSpec(lower=SPEC_ROT), a)


def _certified(node_type, *child):
    """A node of drawn parameters over ``child``, with its certificates."""

    def build(*params):
        node = node_type(*params, *child)
        return node.sup_bound, node.lipschitz

    return build


@st.composite
def pl_parts(draw):
    """Knots and values of one length, each strictly increasing from anywhere in float
    range, and end slopes in (1e-300, 1e300)."""
    knots = hnp.arrays(float, draw(st.integers(1, 4)), unique=True,
                       elements=st.floats(allow_nan=False, allow_infinity=False)).map(np.sort)
    return draw(knots), draw(knots), *draw(st.lists(st.floats(1e-300, 1e300), min_size=2,
                                                    max_size=2))


def _pl_homeo(xs, ys, left, right):
    """A PL homeomorphism of drawn parts, composed with itself and its inverse, evaluated."""
    f = PLHomeo(xs, ys, left, right)
    return f.compose(f)(np.linspace(-2.0, 2.0, 5)), f.compose(f.inverse()).slopes()


def _almost_translation(K):
    """An almost translation of the drawn constant ``K``, evaluated."""
    a = AlmostTranslation(SpectralData((1.0,), (1,)), [Const([0.5])], K)
    return a.eval_blocks([np.ones(1)])


# a quarter turn: orthogonal, so that the drawn translations are reached too
_QUARTER = [[0.0, -1.0], [1.0, 0.0]]
# rotations and translations per block of SPEC_ROT: orthogonal or any floats,
# then any lists of the file's arrays, or one of them
rotations = st.none() | st.tuples(
    st.just(_QUARTER) | hnp.arrays(float, (2, 2), elements=coordinates),
    st.just([[-1.0]]) | hnp.arrays(float, (1, 1), elements=coordinates),
) | st.lists(matrices, max_size=3) | arrays
translations = st.none() | st.tuples(
    hnp.arrays(float, 2, elements=coordinates), hnp.arrays(float, 1, elements=coordinates),
) | st.lists(arrays, max_size=3) | arrays


def _sim_map(stretch, rotations, translations):
    """A similarity of drawn parts, composed, inverted, bounded and evaluated."""
    s = SimMap(SPEC_ROT, stretch, rotations, translations)
    s.compose(s), s.inverse(), s.lip_bound()
    return s.eval_blocks([np.ones(2), np.ones(1)])


def _invariant_structure(grid):
    return invariant_structure([constant_rotation_map()], grid, 1)


def _circumcenter(classes, tol):
    return solve_circumcenter(classes, tol, max_iters=50)


grids = hnp.arrays(float, st.tuples(st.integers(0, 4), st.just(3)), elements=coordinates) | arrays


# target -> (strategy of argument tuples, callable)
TARGETS = {
    "conf_class": (st.tuples(matrices), conf_class),
    "conf_class_stack": (st.tuples(stacks), conf_class),
    "dilatation": (st.tuples(matrices | stacks), dilatation),
    "kdist": (class_pairs, kdist),
    "ddist": (class_pairs, ddist),
    "SpectralData.from_json": (st.tuples(spec_json), SpectralData.from_json),
    "RunConfig.from_json": (st.tuples(config_json), RunConfig.from_json),
    "BlockPoint": (st.tuples(st.lists(arrays, max_size=3).map(tuple) | arrays), BlockPoint),
    "distance_rows": (row_pairs(), distance),
    "dilate_rows": (st.tuples(specs(), numbers, arrays | hnp.arrays(
        float, st.tuples(st.integers(0, 3), st.integers(1, 4)))), dilate),
    "distance": (point_pairs(), _distance),
    "dilate": (dilations(), _dilate),
    "pair_to_point": (point_pairs(), _pair_to_point),
    "pair_to_point_bisect": (point_pairs(), _pair_to_point_bisect),
    "multiply": (solv_points(2), _reads_solv_points(multiply)),
    "inverse": (solv_points(1), _reads_solv_points(inverse)),
    "eval_blocks": (map_blocks, _eval_blocks),
    "FirstBlockAffineMap.eval_blocks": (affine_blocks, _eval_blocks),
    "SimMap_stack": (stretch_stacks() | st.tuples(arrays), _stack_maps),
    "boundary_of_height_isometry": (st.tuples(numbers | st.integers(-800, 800)),
                                    _boundary_of_height_isometry),
    "boundary_of_height_isometry_stack": (st.tuples(
        arrays | hnp.arrays(float, st.integers(0, 4))), _boundary_of_height_isometry),
    "Const": (st.tuples(arrays), _certified(Const)),
    "Osc": (st.tuples(arrays, arrays, arrays), _certified(Osc, BlockVar(1, 1))),
    "Sum": (st.tuples(arrays | st.lists(st.just(BlockVar(1, 1)) | numbers, max_size=3)),
            _certified(Sum)),
    "Scale": (st.tuples(numbers | arrays), _certified(Scale, BlockVar(0, 1))),
    "AlmostTranslation_K": (st.tuples(numbers | arrays), _almost_translation),
    "PLHomeo": (pl_parts() | st.tuples(*[arrays | hnp.arrays(float, st.integers(0, 4))] * 2,
                                       *[numbers | arrays] * 2), _pl_homeo),
    "SimMap": (st.tuples(st.floats(0.1, 10.0) | numbers | arrays, rotations, translations),
               _sim_map),
    "invariant_structure": (st.tuples(grids), _invariant_structure),
    "solve_circumcenter": (st.tuples(stacks | st.lists(stacks, max_size=2), st.just(1e-9)),
                           _circumcenter),
    "solve_circumcenter_tol": (st.tuples(st.just([np.eye(2), np.diag([2.0, 0.5])]),
                                         numbers | arrays), _circumcenter),
}


# constructor arguments a node cannot use; each raises InputError when the node is built
BAD_NODES = {
    "const-nan": lambda: Const([math.nan]),
    "const-inf": lambda: Const([1.0, -math.inf]),
    "osc-amp-nan": lambda: Osc([math.nan], [1.0], 0.0, BlockVar(1, 1)),
    "sum-number": lambda: Sum(5),
    "sum-of-numbers": lambda: Sum([1.0, 2.0]),
    "sum-with-a-number": lambda: Sum([BlockVar(1, 1), 2.0]),
}


@pytest.mark.parametrize("name", list(BAD_NODES))
def test_nodes_reject_arguments_they_cannot_use(name):
    # Const([nan]) and Osc's NaN amplitudes built, with a NaN sup_bound; Sum(5) raised TypeError
    with pytest.raises(InputError):
        BAD_NODES[name]()


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


@pytest.mark.parametrize("call", [
    lambda p: distance(SPEC_ROT, p, np.zeros(3)),
    lambda p: multiply(SolvSpec(lower=SPEC_ROT), SolvPoint(0.0, p), SolvPoint(0.0, np.zeros(3))),
    lambda p: _level_gaps(SolvSpec(lower=SPEC_ROT), np.zeros(()), (p, None), (np.zeros(3), None)),
    lambda p: chain_energy(SPEC_ROT, 2.0, p, np.zeros(3), ChainGrid()),
], ids=["distance", "multiply", "level_distance", "chain_energy"])
def test_a_block_point_is_not_a_point_of_the_metric(call):
    # these flattened a BlockPoint: points are arrays below the boundary maps' one-point call
    with pytest.raises(InputError):
        call(BlockPoint((np.zeros(2), np.zeros(1))))


def test_non_numeric_points_and_rows():
    spec = SpectralData((1.0,), (1,))
    with pytest.raises(InputError):
        BlockPoint((np.array(["a"]),))
    with pytest.raises(InputError):
        distance(spec, [["a"]], [["b"]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_affine_maps_reject_non_finite_points(bad):
    p = BlockPoint((np.array([0.5, bad]), np.array([1.0])))
    for g in (constant_rotation_map(), varying_rotation_map()):
        with pytest.raises(InputError):
            g(p)
        with pytest.raises(InputError):
            g.first_block_derivative(p.blocks)


@pytest.mark.parametrize("fn", [kdist, ddist])
def test_a_class_without_eigendecomposition_rejected(fn):
    # LAPACK's eigh does not converge here; numpy's LinAlgError must not escape
    a = np.full((4, 4), 2.0)
    a[0, 0], a[0, 1], a[1, 0] = 0.0, 3.54111313e227, 3.54111313e227
    with pytest.raises(InputError):
        fn(a, np.zeros((4, 4)))


def test_images_beyond_float_range_read_inf():
    big = [np.full((2, 2), 1e308), np.full((2, 1), 1e308)]
    s = SimMap(SPEC_ROT, 2.0)
    affine = FirstBlockAffineMap(SPEC_ROT, 2.0, lambda y: [np.ones(1)])
    for F in (s, ASimMap(s, AlmostTranslation.identity(SPEC_ROT)), affine):
        image = F.eval_blocks(big)
        assert np.isinf(image[0]).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, "x"])
def test_direct_node_calls_check_their_blocks(bad):
    osc = Osc([1.0], [1.0], 0.0, BlockVar(0, 1))
    with pytest.raises(InputError):
        osc([np.array([bad], dtype=object)])
    word = AlmostTranslation(SPEC_ROT, [Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)), Const([0.7])])
    with pytest.raises(InputError):
        word.compose(word).perturbations[0]([np.zeros(2), np.array([bad], dtype=object)])


def test_nodes_inside_maps_are_not_checked_again(monkeypatch):
    from solvrigid import funcexpr

    checks = []
    monkeypatch.setattr(funcexpr, "finite_blocks", lambda b: checks.append(b) or b)
    monkeypatch.setattr(funcexpr, "require_blocks", lambda spec, b: checks.append(b) or b)
    a = AlmostTranslation(SPEC_ROT, [Osc([0.3, -0.2], [1.0], 0.1, BlockVar(1, 1)), Const([0.7])])
    word = a.compose(a.inverse())
    for F in (word, ASimMap(SimMap(SPEC_ROT, 1.3), word)):
        F.eval_blocks([np.zeros((3, 2)), np.ones((3, 1))])
    assert checks == []
    a.perturbations[0]([np.zeros(2), np.ones(1)])
    assert len(checks) == 1


SRC = Path(spectral.__file__).parent
FLOAT_ERRORS = {"TypeError", "ValueError", "OverflowError"}


def _owners(test):
    """'module.function' of each node of src/solvrigid for which ``test`` holds, named
    by the innermost function that holds it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in filter(test, ast.walk(tree)):
            owner = min((f for f in defs if f.lineno <= node.lineno <= f.end_lineno),
                        key=lambda f: f.end_lineno - f.lineno, default=None)
            found.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    return found


def _catches_float_errors(node):
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return FLOAT_ERRORS <= {getattr(e, "id", None) for e in caught}


def _converts_to_float(node):
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("asarray", "array")
            and any(k.arg == "dtype" and getattr(k.value, "id", None) == "float"
                    for k in node.keywords))


def test_one_reader_of_outside_numbers():
    # a second copy of the reader, or a conversion that skips it, fails here
    assert _owners(_catches_float_errors) == ["spectral.floats"]
    assert _owners(_converts_to_float) == ["spectral.floats"]


@pytest.mark.parametrize("cls", [AlmostTranslation, ASimMap, FirstBlockAffineMap, SimMap])
def test_maps_take_the_one_checked_entry(cls):
    assert issubclass(cls, BoundaryMap)
    assert cls.eval_blocks is BoundaryMap.eval_blocks
    # a stack of similarities maps one point to B images: its call takes one similarity
    assert cls.__call__ is BoundaryMap.__call__ or cls is SimMap


def test_each_evaluation_checks_its_blocks_once(count_calls):
    from solvrigid import conformal, funcexpr, mapalg, nilpotent

    calls = count_calls(spectral, conformal, funcexpr, mapalg, nilpotent, name="require_blocks")
    stack = SimMap(SPEC_ROT, [1.3, 0.7], [[[0.6, -0.8], [0.8, 0.6]], [[-1.0]]],
                   [[[0.4, -0.2], [0.1, 0.0]], [0.3]])
    maps = [*_boundary_maps(), stack, constant_rotation_map()]
    for F in maps:
        for blocks in ([np.zeros(2), np.ones(1)], [np.zeros((2, 2)), np.ones((2, 1))]):
            calls.clear()
            F.eval_blocks(blocks)
            assert len(calls) == 1, type(F).__name__
    calls.clear()
    maps[0](BlockPoint((np.zeros(2), np.ones(1))))
    assert len(calls) == 1


@pytest.mark.parametrize("bad", [0, None, 1.5])
def test_blocks_that_are_not_a_sequence_rejected(bad):
    with pytest.raises(InputError):
        BlockPoint(bad)
    with pytest.raises(InputError):
        spectral.finite_blocks(bad)
