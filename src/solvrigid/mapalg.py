"""Block-triangular boundary maps: similarities, almost similarities, and
the classification / homomorphism machinery built on top of them."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, InputError, NotInUniformSubgroup
from .nilpotent import AlmostTranslation, Letter
from .quasimetric import (_image_rows, _per_element, _qsim_logs, distance,
                          estimate_qsim_constants)
from .spectral import (BlockPoint, BoundaryMap, SpectralData, float_parts, floats, join_blocks,
                       random_row_blocks, require_blocks, split_rows)


@functools.lru_cache(maxsize=64)
def _identity_parts(multiplicities: tuple[int, ...]):
    """Read-only identity rotations and zero translations, built once per block structure."""
    eyes = tuple(np.eye(n) for n in multiplicities)
    zeros = tuple(np.zeros(n) for n in multiplicities)
    for a in eyes + zeros:
        a.flags.writeable = False
    return eyes, zeros


def _checked_stretch(stretch) -> tuple:
    """A float and (), or a ``(B,)`` array and (B,) for a stack of B; InputError unless numbers
    in float range, DomainError unless each stretch is positive and finite."""
    t = floats(stretch, "stretch")
    one = t.ndim == 0
    if t.ndim > 1:
        raise DimensionMismatch(f"a stack of stretches must have shape (B,), not {t.shape}")
    t = float(t) if one else t.copy()  # a stack does not share the caller's array
    if not (0 < t < math.inf if one else ((0 < t) & (t < math.inf)).all()):
        raise DomainError(f"stretch must be positive and finite, got {stretch}")
    return t, () if one else t.shape


class SimMap(BoundaryMap):
    """Standard dilation composed with blockwise rotation and translation.

    Block i maps to t^alpha_i * A_i (x_i + B_i). Rotations default to the
    identity and translations to zero; a rotation the caller passes must be
    orthogonal to 1e-12, a translation finite. A ``(B,)`` stretch makes a stack
    of B similarities, each equal to its one-similarity map bit for bit
    (README.md has the contract).
    """

    def __init__(self, spec: SpectralData, stretch, rotations=None, translations=None):
        self.spec = spec
        self.stretch, self._lead = _checked_stretch(stretch)
        eyes, zeros = _identity_parts(spec.multiplicities)
        self.rotations = eyes if rotations is None else tuple(float_parts(rotations, "rotations"))
        self.translations = zeros if translations is None else tuple(
            float_parts(translations, "translations"))
        if not len(self.rotations) == len(self.translations) == spec.r:
            raise DimensionMismatch(f"one rotation and one translation per block, {spec.r} blocks")
        for i, (a, b, n) in enumerate(zip(self.rotations, self.translations, spec.multiplicities)):
            if a.shape != (n, n) or b.shape not in ((n,), self._lead + (n,)):
                raise DimensionMismatch(f"rotation/translation {i} does not match block dim {n}")
            if rotations is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry gives NaN
                    skew = np.max(np.abs(a.T @ a - eyes[i]))
                if not skew <= 1e-12:  # so that NaN fails: NaN > 1e-12 is False
                    raise InputError(f"rotation {i} is not orthogonal to 1e-12")
            if translations is not None and not np.isfinite(b).all():
                raise InputError(f"translation {i} is not finite")

    @staticmethod
    def _from_parts(spec: SpectralData, stretch, rotations, translations) -> "SimMap":
        """A similarity whose rotations are products or transposes of checked
        rotations, so they are not checked again. The stretch still is: a
        product of stretches can underflow to 0, an inverse overflow to inf."""
        s = object.__new__(SimMap)
        s.spec = spec
        s.stretch, s._lead = _checked_stretch(stretch)
        s.rotations = tuple(rotations)
        s.translations = tuple(translations)
        return s

    def _one(self, what: str) -> "SimMap":
        if self._lead:
            raise DimensionMismatch(f"{what} takes one similarity, not a stack of {self._lead[0]}")
        return self

    def _scaled(self, sign: float, mats) -> tuple[np.ndarray, ...]:
        """Per block t^(sign alpha_i) M_i, ``(B, n_i, n_i)`` for a stack, by np.float_power (libm's
        pow, as ** on a float; np.power may round differently); DomainError beyond float range."""
        t, exps = np.reshape(self.stretch, self._lead + (1, 1)), self.spec.exponents
        try:
            with np.errstate(over="raise"):
                return tuple(np.float_power(t, sign * a) * m for a, m in zip(exps, mats))
        except FloatingPointError:
            raise DomainError(f"a power of stretch {self.stretch} is beyond float range") from None

    @functools.cached_property
    def _linear(self) -> tuple[np.ndarray, ...]:
        """Per block the linear part t^alpha_i A_i, built on first use: most
        similarities that compositions build are never evaluated."""
        return self._scaled(1.0, self.rotations)

    @functools.cached_property
    def _inverse_linear(self) -> tuple[np.ndarray, ...]:
        """Per block the linear part t^-alpha_i A_i^T of the inverse, read-only:
        every letter conjugated by this similarity shares it."""
        mats = self._scaled(-1.0, [a.T for a in self.rotations])
        for m in mats:
            m.flags.writeable = False
        return mats

    @functools.cached_property
    def _inverse_opnorms(self) -> tuple:
        """The operator 2-norms of ``_inverse_linear``, floats or ``(B,)`` arrays for a stack:
        the largest singular value, the first that LAPACK returns, as np.linalg.norm(m, 2)."""
        norms = [np.linalg.svd(m, compute_uv=False)[..., 0] for m in self._inverse_linear]
        return tuple(norms if self._lead else map(float, norms))

    def _apply(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """The image blocks; a stack of B maps B rows, row j by member j, or one point by each."""
        if self._lead and {b.shape[:-1] for b in blocks} - {(), self._lead}:
            raise DimensionMismatch(f"a stack of {self._lead[0]} similarities maps that many rows")
        return [np.matvec(m, x + b) for m, x, b in zip(self._linear, blocks, self.translations)]

    def __call__(self, p: BlockPoint) -> BlockPoint:
        return BoundaryMap.__call__(self._one("calling on a BlockPoint"), p)

    def deps_of(self, j: int) -> frozenset[int]:
        return frozenset({j})

    @functools.cached_property
    def _lip(self):
        """``lip_bound``, read-only for a stack: a left fold conjugates by an alphabet
        letter's similarity at each of its occurrences."""
        with np.errstate(over="ignore"):
            lip = functools.reduce(np.maximum, [np.float_power(self.stretch, a) for a in
                                                self.spec.exponents])
        if self._lead:
            lip.flags.writeable = False
        return lip

    def lip_bound(self):
        """max_i t^alpha_i, a ``(B,)`` array for a stack; a power beyond float range reads inf."""
        return self._lip

    def compose(self, other: "SimMap") -> "SimMap":
        """self after other, renormalized to Sim form.

        The rotations are products of checked rotations and are not checked
        again. Two factors that both hold the shared identity rotations give a
        map that holds them too (eye @ eye is exact).
        """
        if self.spec != other.spec:
            raise InputError("spec mismatch in similarity composition")
        if self._lead and other._lead and self._lead != other._lead:
            raise DimensionMismatch("composed stacks of similarities differ in size")
        # the chain looks up the identity only when both hold the same rotations
        eyes = self.rotations is other.rotations is _identity_parts(self.spec.multiplicities)[0]
        rots = (self.rotations if eyes
                else [a1 @ a2 for a1, a2 in zip(self.rotations, other.rotations)])
        try:
            with np.errstate(over="raise"):  # a stretch or translation beyond float range
                trans = [c + np.matvec(m, b) for m, b, c in
                         zip(other._inverse_linear, self.translations, other.translations)]
                return SimMap._from_parts(self.spec, self.stretch * other.stretch, rots, trans)
        except FloatingPointError:
            raise DomainError("the composed similarity is beyond float range") from None

    def inverse(self) -> "SimMap":
        rots = [a.T for a in self.rotations]
        try:
            with np.errstate(over="raise"):  # a stretch or translation beyond float range
                trans = [-np.matvec(m, b) for m, b in zip(self._linear, self.translations)]
                return SimMap._from_parts(self.spec, 1.0 / self.stretch, rots, trans)
        except FloatingPointError:
            raise DomainError("the inverse similarity is beyond float range") from None


def conjugate_almost_by_sim(s: SimMap, a: AlmostTranslation) -> AlmostTranslation:
    """s^-1 after a after s, which is again an almost translation.

    Each letter is conjugated; a letter conjugated before is conjugated once
    by the composed similarity, so conjugations do not stack.
    """
    if s.spec != a.spec:
        raise InputError("spec mismatch")
    lip = s._one("conjugate_almost_by_sim").lip_bound()
    # a zero Lipschitz bound stays 0 where lip reads inf
    certificates = [
        (opnorm * b.sup_bound, opnorm * (b.lipschitz and b.lipschitz * lip), b.deps())
        for opnorm, b in zip(s._inverse_opnorms, a.perturbations)
    ]
    letters = []
    for letter in a.letters:
        sim = s if letter.sim is None else letter.sim.compose(s)
        letters.append(Letter(letter.base, letter.sign, sim))
    return AlmostTranslation.from_letters(s.spec, letters, certificates, a.K)


class ASimMap(BoundaryMap):
    """Similarity composed with an almost translation (translation acts first)."""

    def __init__(self, sim: SimMap, almost: AlmostTranslation):
        if sim.spec != almost.spec:
            raise InputError("spec mismatch between similarity and almost parts")
        self.spec = sim.spec
        self.sim = sim._one("ASimMap")
        self.almost = almost

    @property
    def stretch(self) -> float:
        return self.sim.stretch

    def _apply(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        return self.sim._apply(self.almost._apply(blocks))

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


@dataclass(frozen=True)
class Classification:
    kind: str  # "Sim" | "ASim" | "Bilip" | "QSim"
    stretch: Optional[float]
    N: float
    K: float


def classify(spec: SpectralData, F, samples) -> Classification:
    """Strongest verified class of a map on the given sample pairs.

    ``F`` is a boundary map with ``eval_blocks``; ``samples`` is an
    ``(N, 2, total_dim)`` array of point pairs.
    """
    if isinstance(F, SimMap):
        F._one("classify")  # a stack would map the samples member by member
    if isinstance(F, ASimMap):
        n, k = estimate_qsim_constants(spec, F, samples)
        return Classification("ASim", F.stretch, F.stretch, k)
    n, k, logs = _qsim_logs(spec, F, samples)
    if k <= 1.0 + 1e-9:
        return Classification("Sim", n, n, 1.0)
    if n / k <= 1.0 <= n * k:
        bilip = max(float(np.exp(logs.max())), float(np.exp(-logs.min())))
        return Classification("Bilip", None, 1.0, bilip)
    return Classification("QSim", None, n, k)


def stretch_hom(elements: Sequence, spanning: Sequence[np.ndarray]) -> np.ndarray:
    """Recover the common pairing vector v with <v_i, v> = log t_i.

    ``elements`` holds one Sim/ASim map per factor, ``spanning`` the pairing
    vectors v_i. Raises InputError on a non-finite spanning vector, and
    NotInUniformSubgroup if no single v fits to 1e-9.
    """
    if len(elements) != len(spanning):
        raise InputError("one spanning vector per factor required")
    vs = floats([floats(v, "spanning vector").reshape(-1) for v in spanning], "spanning vectors")
    if not np.isfinite(vs).all():
        raise InputError("spanning vectors must be finite")
    logs = np.asarray([height_hom(e._one("stretch_hom") if isinstance(e, SimMap) else e)
                       for e in elements])
    v, *_ = np.linalg.lstsq(vs, logs, rcond=None)
    residual = float(np.linalg.norm(vs @ v - logs))
    if not residual <= 1e-9:  # so that a NaN residual fails
        raise NotInUniformSubgroup(
            f"log-stretches are inconsistent with a single pairing vector (residual {residual:.3e})"
        )
    return v


def height_hom(G):
    """log of the stretch (libm's, per member of a stack); additive under composition."""
    return _per_element(math.log, G.stretch)[()]


def _times(lam, matrices):
    """lam * matrices, row by row where lam is an (N,) array of factors."""
    return np.asarray(lam)[..., None, None] * matrices


@dataclass
class FirstBlockAffineMap(BoundaryMap):
    """G(x, y) = (lam(y) * A(y) (x + B(y)), g(y)) with g a quotient similarity.

    ``spec`` covers all blocks; block 0 carries the affine action and the
    remaining blocks y form the quotient, on which ``quotient`` acts as a
    similarity with constant ``stretch`` for the quotient metric, one
    positive finite number as a ``SimMap``'s (DomainError otherwise,
    DimensionMismatch on an array). The callables take the quotient blocks
    of one point, ``(n_i,)``, or of N points, ``(N, n_i)``: ``quotient``
    gives the image blocks, ``lam_of`` a
    scalar or ``(N,)``, ``A_of`` an ``(n1, n1)`` matrix or ``(N, n1, n1)``,
    and ``B_of`` an ``(n1,)`` vector or ``(N, n1)``. A part that does not
    vary may give its one-point value for rows, which broadcasts, as
    ``Const`` does. ``inverse_map`` takes all blocks to those of the preimage.
    """

    spec: SpectralData
    stretch: float
    quotient: Callable[[list], list]
    lam_of: Optional[Callable[[list], np.ndarray]] = None
    A_of: Optional[Callable[[list], np.ndarray]] = None
    B_of: Optional[Callable[[list], np.ndarray]] = None
    inverse_map: Optional[Callable[[list], list]] = None

    def __post_init__(self):
        self.stretch, lead = _checked_stretch(self.stretch)
        if lead:
            raise DimensionMismatch(f"an affine map takes one stretch, not a stack of {lead[0]}")
        n1, lam = self.spec.multiplicities[0], self.stretch ** self.spec.exponents[0]
        self.lam_of = self.lam_of or (lambda y: lam)
        self.A_of = self.A_of or (lambda y: np.eye(n1))
        self.B_of = self.B_of or (lambda y: np.zeros(n1))

    def rest_spec(self) -> SpectralData:
        return SpectralData(self.spec.exponents[1:], self.spec.multiplicities[1:])

    def _linear(self, y: Sequence[np.ndarray]) -> np.ndarray:
        """lam(y) A(y) at quotient blocks that passed require_blocks."""
        return _times(self.lam_of(y), self.A_of(y))

    def _apply(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        y = blocks[1:]
        return [np.matvec(self._linear(y), blocks[0] + self.B_of(y)), *self.quotient(y)]

    def first_block_derivative(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """lam(y) A(y) at the blocks of one point, or an (N, n1, n1) stack for N points."""
        blocks = require_blocks(self.spec, blocks)
        rows = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
        n1 = self.spec.multiplicities[0]
        with np.errstate(all="ignore"):
            return np.broadcast_to(self._linear(blocks[1:]), rows + (n1, n1))

    def invert_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The preimage blocks of one point or of N points."""
        if self.inverse_map is None:
            raise InputError("map was built without an inverse")
        blocks = require_blocks(self.spec, blocks)
        with np.errstate(all="ignore"):
            return list(self.inverse_map(blocks))

    def compose(self, other: "FirstBlockAffineMap") -> "FirstBlockAffineMap":
        """self after other; the lam cocycle multiplies along the quotient."""
        if self.spec != other.spec:
            raise InputError("spec mismatch")
        f, g = self, other

        def lam(y):
            return g.lam_of(y) * f.lam_of(g.quotient(y))

        def a_of(y):
            return f.A_of(g.quotient(y)) @ g.A_of(y)

        def b_of(y):
            inv = _times(1.0 / np.asarray(g.lam_of(y)), np.linalg.inv(g.A_of(y)))
            return g.B_of(y) + np.matvec(inv, f.B_of(g.quotient(y)))

        return FirstBlockAffineMap(self.spec, f.stretch * g.stretch,
                                   lambda y: f.quotient(g.quotient(y)), lam, a_of, b_of)


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
) -> Optional[RotationWitness]:
    """Search for a pair of leaves whose rotations differ, then scale a
    first-block vector until the quasisimilarity sandwich breaks.

    The search compares 40 leaves drawn uniformly from [-3, 3] in every
    quotient coordinate (seed 7), and returns None when no two rotations
    differ by more than 1e-8 in operator norm (the map passes); otherwise it
    takes the first pair, in the order of the leaves, of the largest gap.
    The probe vector is doubled at most 200 times; a witness whose sandwich
    never broke has ratio NaN.
    """
    rng = np.random.default_rng(7)
    rest = G.rest_spec()
    n1 = G.spec.multiplicities[0]
    bound = G.stretch * K
    leaves = next(random_row_blocks(rest, rng, 40, 1, 3.0))[:, 0]
    rots = np.broadcast_to(G.A_of(split_rows(rest, leaves)), (40, n1, n1))
    first, second = np.triu_indices(40, 1)
    gaps = np.linalg.norm(rots[first] - rots[second], 2, axis=(1, 2))
    k = int(np.argmax(gaps))
    if not gaps[k] > 1e-8:
        return None
    y, yp = (split_rows(rest, leaves[i]) for i in (first[k], second[k]))

    _, _, vt = np.linalg.svd(rots[first[k]] - rots[second[k]])
    # one row per probe scale 2^0, ..., 2^199, at the two leaves
    z = 2.0 ** np.arange(200.0)[:, None] * vt[0]
    p = join_blocks([z - G.B_of(y), *y])
    q = join_blocks([z - G.B_of(yp), *yp])
    d_src = distance(G.spec, p, q)
    d_img = distance(G.spec, _image_rows(G.spec, G, p), _image_rows(G.spec, G, q))
    broke = np.flatnonzero(d_img > bound * d_src)
    if broke.size:
        i = broke[0]
        return RotationWitness(y=tuple(y), y_prime=tuple(yp), z=z[i], ratio=d_img[i] / d_src[i],
                               bound=bound)
    return RotationWitness(y=tuple(y), y_prime=tuple(yp), z=2.0**200 * vt[0], ratio=float("nan"),
                           bound=bound)
