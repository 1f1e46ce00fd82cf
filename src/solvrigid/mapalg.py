"""Block-triangular boundary maps: similarities, almost similarities, and
the classification / homomorphism machinery built on top of them."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, InputError, NotInUniformSubgroup
from .funcexpr import BlockVar, Const, FuncExpr, Lin, Sum
from .nilpotent import AlmostTranslation, Letter
from .quasimetric import distance, estimate_qsim_constants
from .spectral import BlockPoint, SpectralData


class BlockMap:
    """A map of R^n whose i-th component depends only on blocks i..r.

    With an ``inner`` map (anything with ``eval_blocks``, ``deps_of`` and
    ``lip_bound``) the components read the inner image, which is evaluated
    once per point.
    """

    def __init__(self, spec: SpectralData, components: Sequence[FuncExpr], inner=None):
        components = tuple(components)
        if len(components) != spec.r:
            raise InputError("one component per block required")
        self.spec = spec
        self.components = components
        self.inner = inner
        for i, (f, n) in enumerate(zip(components, spec.multiplicities)):
            if f.dim != n:
                raise InputError(f"component {i} has dim {f.dim}, block needs {n}")
            if any(j < i for j in self.deps_of(i)):
                raise InputError(f"component {i} may only depend on blocks >= {i}")

    @staticmethod
    def identity(spec: SpectralData) -> "BlockMap":
        return BlockMap(spec, [BlockVar(i, n) for i, n in enumerate(spec.multiplicities)])

    def eval_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if self.inner is not None:
            blocks = self.inner.eval_blocks(blocks)
        return [f(blocks) for f in self.components]

    def __call__(self, p: BlockPoint) -> BlockPoint:
        p.require_conforms(self.spec)
        return BlockPoint(tuple(self.eval_blocks(p.blocks)))

    def deps_of(self, j: int) -> frozenset[int]:
        deps = self.components[j].deps()
        if self.inner is None:
            return deps
        return frozenset().union(*(self.inner.deps_of(k) for k in deps))

    def lip_bound(self) -> float:
        lip = 1.0 if self.inner is None else self.inner.lip_bound()
        return sum(f.lipschitz * lip for f in self.components)


class SimMap:
    """Standard dilation composed with blockwise rotation and translation.

    Block i maps to t^alpha_i * A_i (x_i + B_i).
    """

    def __init__(self, spec: SpectralData, stretch: float, rotations=None, translations=None):
        if not stretch > 0:
            raise DomainError(f"stretch must be positive, got {stretch}")
        self.spec = spec
        self.stretch = float(stretch)
        if rotations is None:
            rotations = [np.eye(n) for n in spec.multiplicities]
        if translations is None:
            translations = [np.zeros(n) for n in spec.multiplicities]
        self.rotations = tuple(np.asarray(a, dtype=float) for a in rotations)
        self.translations = tuple(np.asarray(b, dtype=float).reshape(-1) for b in translations)
        for i, (a, b, n) in enumerate(zip(self.rotations, self.translations, spec.multiplicities)):
            if a.shape != (n, n) or b.shape != (n,):
                raise InputError(f"rotation/translation {i} does not match block dim {n}")
            if np.max(np.abs(a.T @ a - np.eye(n))) > 1e-12:
                raise InputError(f"rotation {i} is not orthogonal to 1e-12")

    @staticmethod
    def dilation(spec: SpectralData, t: float) -> "SimMap":
        return SimMap(spec, t)

    @staticmethod
    def identity(spec: SpectralData) -> "SimMap":
        return SimMap(spec, 1.0)

    def eval_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [
            self.stretch**a * rot @ (np.asarray(x, dtype=float) + b)
            for a, x, rot, b in zip(self.spec.exponents, blocks, self.rotations, self.translations)
        ]

    def __call__(self, p: BlockPoint) -> BlockPoint:
        p.require_conforms(self.spec)
        return BlockPoint(tuple(self.eval_blocks(p.blocks)))

    def deps_of(self, j: int) -> frozenset[int]:
        return frozenset({j})

    def lip_bound(self) -> float:
        return max(self.stretch**a for a in self.spec.exponents)

    def compose(self, other: "SimMap") -> "SimMap":
        """self after other, renormalized to Sim form."""
        if self.spec != other.spec:
            raise InputError("spec mismatch in similarity composition")
        rots = [a1 @ a2 for a1, a2 in zip(self.rotations, other.rotations)]
        trans = [
            b2 + other.stretch ** (-a) * a2.T @ b1
            for a, a2, b1, b2 in zip(
                self.spec.exponents, other.rotations, self.translations, other.translations
            )
        ]
        return SimMap(self.spec, self.stretch * other.stretch, rots, trans)

    def inverse(self) -> "SimMap":
        rots = [a.T for a in self.rotations]
        trans = [
            -(self.stretch**e) * a @ b
            for e, a, b in zip(self.spec.exponents, self.rotations, self.translations)
        ]
        return SimMap(self.spec, 1.0 / self.stretch, rots, trans)

    def as_block_map(self) -> BlockMap:
        comps = [
            Lin(
                self.stretch**e * a,
                Sum((BlockVar(i, n), Const(b))),
            )
            for i, (e, n, a, b) in enumerate(
                zip(self.spec.exponents, self.spec.multiplicities, self.rotations, self.translations)
            )
        ]
        return BlockMap(self.spec, comps)


def _inverse_linear_parts(s: SimMap) -> list[np.ndarray]:
    """Per block, the linear part t^-alpha_i A_i^T of s^-1."""
    return [s.stretch ** (-e) * rot.T for e, rot in zip(s.spec.exponents, s.rotations)]


def conjugate_almost_by_sim(s: SimMap, a: AlmostTranslation) -> AlmostTranslation:
    """s^-1 after a after s, which is again an almost translation.

    Each letter is conjugated; a letter conjugated before is conjugated once
    by the composed similarity, so conjugations do not stack.
    """
    if s.spec != a.spec:
        raise InputError("spec mismatch")
    mats = _inverse_linear_parts(s)
    lip = s.lip_bound()
    certificates = []
    for m, b in zip(mats, a.perturbations):
        opnorm = float(np.linalg.norm(m, 2))
        certificates.append((opnorm * b.sup_bound, opnorm * (b.lipschitz * lip), b.deps()))
    letters = []
    for letter in a.letters:
        sim = s if letter.sim is None else letter.sim.compose(s)
        letters.append(Letter(letter.base, letter.sign, sim, _inverse_linear_parts(sim)))
    return AlmostTranslation.from_letters(s.spec, letters, certificates, a.K)


class ASimMap:
    """Similarity composed with an almost translation (translation acts first)."""

    def __init__(self, sim: SimMap, almost: AlmostTranslation):
        if sim.spec != almost.spec:
            raise InputError("spec mismatch between similarity and almost parts")
        self.spec = sim.spec
        self.sim = sim
        self.almost = almost

    @property
    def stretch(self) -> float:
        return self.sim.stretch

    @staticmethod
    def identity(spec: SpectralData) -> "ASimMap":
        return ASimMap(SimMap.identity(spec), AlmostTranslation.identity(spec))

    def eval_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        return self.sim.eval_blocks(self.almost.eval_blocks(blocks))

    def __call__(self, p: BlockPoint) -> BlockPoint:
        p.require_conforms(self.spec)
        return BlockPoint(tuple(self.eval_blocks(p.blocks)))

    def deps_of(self, j: int) -> frozenset[int]:
        return self.almost.deps_of(j)

    def lip_bound(self) -> float:
        return self.sim.lip_bound() * self.almost.lip_bound()

    def compose(self, other: "ASimMap") -> "ASimMap":
        """self after other, renormalized to sim-then-almost form."""
        sim = self.sim.compose(other.sim)
        almost = conjugate_almost_by_sim(other.sim, self.almost).compose(other.almost)
        return ASimMap(sim, almost)

    def inverse(self) -> "ASimMap":
        sim_inv = self.sim.inverse()
        return ASimMap(sim_inv, conjugate_almost_by_sim(sim_inv, self.almost.inverse()))


def compose(F, G):
    """F after G, staying in the tightest common normal form."""
    if isinstance(F, SimMap) and isinstance(G, SimMap):
        return F.compose(G)
    if isinstance(F, AlmostTranslation) and isinstance(G, AlmostTranslation):
        return F.compose(G)
    fa = _as_asim(F)
    ga = _as_asim(G)
    if fa is not None and ga is not None:
        return fa.compose(ga)
    fb = _as_block_map(F)
    gb = _as_block_map(G)
    if fb.spec != gb.spec:
        raise InputError("spec mismatch in composition")
    inner = gb if fb.inner is None else compose(fb.inner, gb)
    return BlockMap(fb.spec, fb.components, inner)


def invert(F):
    if isinstance(F, (SimMap, ASimMap, AlmostTranslation)):
        return F.inverse()
    raise InputError(f"no inversion rule for {type(F).__name__}")


def _as_asim(F) -> Optional[ASimMap]:
    if isinstance(F, ASimMap):
        return F
    if isinstance(F, SimMap):
        return ASimMap(F, AlmostTranslation.identity(F.spec))
    if isinstance(F, AlmostTranslation):
        return ASimMap(SimMap.identity(F.spec), F)
    return None


def _as_block_map(F) -> BlockMap:
    if isinstance(F, BlockMap):
        return F
    if isinstance(F, SimMap):
        return F.as_block_map()
    if isinstance(F, AlmostTranslation):
        comps = [
            Sum((BlockVar(i, n), b))
            for i, (n, b) in enumerate(zip(F.spec.multiplicities, F.perturbations))
        ]
        return BlockMap(F.spec, comps)
    if isinstance(F, ASimMap):
        return BlockMap(F.spec, F.sim.as_block_map().components, _as_block_map(F.almost))
    raise InputError(f"cannot view {type(F).__name__} as a block map")


@dataclass(frozen=True)
class TriangularityVerdict:
    passed: bool
    worst_pair: Optional[tuple[int, int]]
    worst_response: float


def check_triangularity(
    F: Callable[[BlockPoint], BlockPoint],
    spec: SpectralData,
    probes: int = 100,
    rng: Optional[np.random.Generator] = None,
    step: float = 1e-3,
    tol: float = 1e-7,
) -> TriangularityVerdict:
    """Probe whether component i ignores perturbations of earlier blocks."""
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    worst_pair = None
    for _ in range(probes):
        base = BlockPoint(tuple(rng.uniform(-2, 2, n) for n in spec.multiplicities))
        try:
            image = F(base)
        except Exception as exc:
            raise InputError(f"map not evaluable at probe point: {exc}") from exc
        for j in range(spec.r - 1):
            bumped = [b.copy() for b in base.blocks]
            bumped[j] = bumped[j] + step * rng.normal(size=spec.multiplicities[j])
            image2 = F(BlockPoint(tuple(bumped)))
            for i in range(j + 1, spec.r):
                resp = float(np.linalg.norm(image2.blocks[i] - image.blocks[i]))
                if resp > worst:
                    worst = resp
                    worst_pair = (i, j)
    return TriangularityVerdict(passed=worst <= tol, worst_pair=worst_pair, worst_response=worst)


@dataclass(frozen=True)
class Classification:
    kind: str  # "Sim" | "ASim" | "Bilip" | "QSim"
    stretch: Optional[float]
    N: float
    K: float


def classify(spec: SpectralData, F, samples) -> Classification:
    """Strongest verified class of a map on the given sample pairs."""
    if isinstance(F, SimMap):
        return Classification("Sim", F.stretch, F.stretch, 1.0)
    if isinstance(F, ASimMap):
        n, k = estimate_qsim_constants(spec, F, samples)
        return Classification("ASim", F.stretch, F.stretch, k)
    ratios = []
    for p, q in samples:
        d = distance(spec, p, q)
        if d > 0:
            ratios.append(distance(spec, F(p), F(q)) / d)
    if not ratios:
        raise InputError("no non-degenerate sample pairs")
    logs = np.log(np.asarray(ratios))
    n = float(np.exp(logs.mean()))
    k = max(float(np.exp(np.abs(logs - logs.mean()).max())), 1.0)
    if k <= 1.0 + 1e-9:
        return Classification("Sim", n, n, 1.0)
    if n / k <= 1.0 <= n * k:
        bilip = max(float(np.exp(logs.max())), float(np.exp(-logs.min())))
        return Classification("Bilip", None, 1.0, bilip)
    return Classification("QSim", None, n, k)


def stretch_hom(elements: Sequence, spanning: Sequence[np.ndarray]) -> np.ndarray:
    """Recover the common pairing vector v with <v_i, v> = log t_i.

    ``elements`` holds one Sim/ASim map per factor, ``spanning`` the pairing
    vectors v_i. Raises NotInUniformSubgroup if no single v fits to 1e-9.
    """
    if len(elements) != len(spanning):
        raise InputError("one spanning vector per factor required")
    vs = np.asarray([np.asarray(v, dtype=float).reshape(-1) for v in spanning])
    logs = np.asarray([math.log(e.stretch) for e in elements])
    v, *_ = np.linalg.lstsq(vs, logs, rcond=None)
    residual = float(np.linalg.norm(vs @ v - logs))
    if residual > 1e-9:
        raise NotInUniformSubgroup(
            f"log-stretches are inconsistent with a single pairing vector (residual {residual:.3e})"
        )
    return v


def rotation_hom(G: ASimMap) -> tuple[np.ndarray, ...]:
    """The tuple of orthogonal parts; multiplicative under composition."""
    return tuple(a.copy() for a in G.sim.rotations)


def height_hom(G) -> float:
    """log of the stretch; additive under composition."""
    return math.log(G.stretch)


@dataclass(frozen=True)
class ReciprocityVerdict:
    passed: bool
    log_defect: float
    drift: tuple[float, ...] = ()


@dataclass(frozen=True)
class BoundaryPair:
    """Lower/upper boundary maps of a height-respecting quasi-isometry."""

    lower: object
    upper: object


def check_reciprocity(pair: BoundaryPair, tol: float = 1e-9, drift_terms: int = 10) -> ReciprocityVerdict:
    tl, tu = pair.lower.stretch, pair.upper.stretch
    defect = abs(math.log(tl) + math.log(tu))
    if defect <= tol:
        return ReciprocityVerdict(passed=True, log_defect=defect)
    drift = tuple((tl * tu) ** k for k in range(1, drift_terms + 1))
    return ReciprocityVerdict(passed=False, log_defect=defect, drift=drift)


@dataclass
class FirstBlockAffineMap:
    """G(x, y) = (lam(y) * A(y) (x + B(y)), g(y)) with g a quotient similarity.

    ``spec`` covers all blocks; block 0 carries the affine action and the
    remaining blocks form the quotient, on which ``quotient`` acts as a
    similarity with constant ``stretch`` for the quotient metric.
    """

    spec: SpectralData
    stretch: float
    quotient: Callable[[tuple], tuple]
    lam_of: Optional[Callable[[tuple], float]] = None
    A_of: Optional[Callable[[tuple], np.ndarray]] = None
    B_of: Optional[Callable[[tuple], np.ndarray]] = None
    inverse_map: Optional[Callable[[BlockPoint], BlockPoint]] = None
    label: str = ""

    def __post_init__(self):
        n1 = self.spec.multiplicities[0]
        a1 = self.spec.exponents[0]
        if self.lam_of is None:
            t = self.stretch
            self.lam_of = lambda y, _t=t, _a=a1: _t**_a
        if self.A_of is None:
            self.A_of = lambda y, _n=n1: np.eye(_n)
        if self.B_of is None:
            self.B_of = lambda y, _n=n1: np.zeros(_n)

    def rest_spec(self) -> SpectralData:
        return SpectralData(self.spec.exponents[1:], self.spec.multiplicities[1:])

    def __call__(self, p: BlockPoint) -> BlockPoint:
        p.require_conforms(self.spec)
        y = tuple(p.blocks[1:])
        x = p.blocks[0]
        x2 = self.lam_of(y) * self.A_of(y) @ (x + self.B_of(y))
        return BlockPoint((x2,) + tuple(self.quotient(y)))

    def first_block_derivative(self, p: BlockPoint) -> np.ndarray:
        y = tuple(p.blocks[1:])
        return self.lam_of(y) * self.A_of(y)

    def invert_point(self, p: BlockPoint) -> BlockPoint:
        if self.inverse_map is None:
            raise InputError("map was built without an inverse")
        return self.inverse_map(p)

    def compose(self, other: "FirstBlockAffineMap") -> "FirstBlockAffineMap":
        """self after other; the lam cocycle multiplies along the quotient."""
        if self.spec != other.spec:
            raise InputError("spec mismatch")
        f, g = self, other

        def lam(y):
            return g.lam_of(y) * f.lam_of(tuple(g.quotient(y)))

        def a_of(y):
            return f.A_of(tuple(g.quotient(y))) @ g.A_of(y)

        def b_of(y):
            gy = tuple(g.quotient(y))
            return g.B_of(y) + (1.0 / g.lam_of(y)) * np.linalg.inv(g.A_of(y)) @ f.B_of(gy)

        def quot(y):
            return f.quotient(tuple(g.quotient(y)))

        return FirstBlockAffineMap(
            spec=self.spec,
            stretch=f.stretch * g.stretch,
            quotient=quot,
            lam_of=lam,
            A_of=a_of,
            B_of=b_of,
            label=f"{f.label}*{g.label}",
        )


def affine_inverse(
    g: FirstBlockAffineMap, quotient_inverse: Callable[[tuple], tuple]
) -> FirstBlockAffineMap:
    """Inverse of a first-block affine map, given the quotient's inverse."""

    def lam(yp):
        return 1.0 / g.lam_of(tuple(quotient_inverse(yp)))

    def a_of(yp):
        return np.linalg.inv(g.A_of(tuple(quotient_inverse(yp))))

    def b_of(yp):
        y = tuple(quotient_inverse(yp))
        return -g.lam_of(y) * g.A_of(y) @ g.B_of(y)

    def inv_point(p: BlockPoint) -> BlockPoint:
        return g(p)

    return FirstBlockAffineMap(
        spec=g.spec,
        stretch=1.0 / g.stretch,
        quotient=quotient_inverse,
        lam_of=lam,
        A_of=a_of,
        B_of=b_of,
        inverse_map=inv_point,
        label=f"inv({g.label})",
    )


@dataclass(frozen=True)
class RotationWitness:
    y: tuple
    y_prime: tuple
    z: np.ndarray
    ratio: float
    bound: float


def rotation_rigidity_witness(
    G: FirstBlockAffineMap,
    K: float,
    search_radius: float = 3.0,
    samples: int = 40,
    rng: Optional[np.random.Generator] = None,
    gap_tol: float = 1e-8,
    max_doublings: int = 200,
) -> Optional[RotationWitness]:
    """Search for a pair of leaves whose rotations differ, then scale a
    first-block vector until the quasisimilarity sandwich breaks.

    Returns None when no rotation gap is found (the map passes).
    """
    if rng is None:
        rng = np.random.default_rng(7)
    rest = G.rest_spec()
    n1 = G.spec.multiplicities[0]
    t = G.stretch
    a1 = G.spec.exponents[0]

    ys = [
        tuple(rng.uniform(-search_radius, search_radius, n) for n in rest.multiplicities)
        for _ in range(samples)
    ]
    best = (gap_tol, None, None)
    for i in range(len(ys)):
        for j in range(i + 1, len(ys)):
            gap = float(np.linalg.norm(G.A_of(ys[i]) - G.A_of(ys[j]), 2))
            if gap > best[0]:
                best = (gap, ys[i], ys[j])
    gap, y, yp = best
    if y is None:
        return None

    diff = G.A_of(y) - G.A_of(yp)
    _, _, vt = np.linalg.svd(diff)
    direction = vt[0]
    dy = distance(rest, BlockPoint(y), BlockPoint(yp))
    bound = t * K * max(dy, 1e-12)

    scale = 1.0
    for _ in range(max_doublings):
        z = scale * direction
        p = BlockPoint((z - G.B_of(y),) + y)
        q = BlockPoint((z - G.B_of(yp),) + yp)
        d_src = distance(G.spec, p, q)
        d_img = distance(G.spec, G(p), G(q))
        if d_img > t * K * d_src:
            return RotationWitness(y=y, y_prime=yp, z=z, ratio=d_img / d_src, bound=t * K)
        scale *= 2.0
    return RotationWitness(y=y, y_prime=yp, z=scale * direction, ratio=float("nan"), bound=t * K)
