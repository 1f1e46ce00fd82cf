"""Almost translations and the kernel algorithms built on them.

An almost translation moves each block by a bounded perturbation that
depends only on the later blocks, with the last block translated by a
constant. Floating-point elements carry expression trees with sup/Lipschitz
certificates; an exact-rational word representation backs the l-th-root
algorithm, whose postconditions are checked with equality rather than
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InfiniteIndexSuspected,
    InputError,
    NotInKernel,
)
from .funcexpr import Const, Displacement, FuncExpr
from .quasimetric import distance
from .spectral import BlockPoint, SpectralData


class Letter:
    """One letter of a word: a base element, possibly inverted and conjugated.

    Applied to x it gives x_i + M_i d_i(s(x)), where d is the displacement of
    ``base`` (of its inverse when ``sign`` is -1), s is the conjugating
    similarity and M_i, in ``mats``, the linear part of block i of s^-1;
    without a conjugation s and M_i are the identity.
    """

    __slots__ = ("base", "sign", "sim", "mats")

    def __init__(self, base: "AlmostTranslation", sign: int = 1, sim=None,
                 mats: Sequence[np.ndarray] | None = None):
        self.base = base
        self.sign = sign
        self.sim = sim
        self.mats = mats

    def inverse(self) -> "Letter":
        return Letter(self.base, -self.sign, self.sim, self.mats)

    def apply(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if self.sim is None:
            d = self.base._displacement(blocks, self.sign)
            return [np.asarray(x, dtype=float) + di for x, di in zip(blocks, d)]
        d = self.base._displacement(self.sim.eval_blocks(blocks), self.sign)
        return [np.asarray(x, dtype=float) + m @ di for x, m, di in zip(blocks, self.mats, d)]


class AlmostTranslation:
    """x_i -> x_i + B_i(x_{i+1}, ..., x_r) with certified bounded B_i.

    An element is a word: the letters it applies, first to last. An element
    built from explicit perturbations is a base letter and its own one-letter
    word. Composition concatenates letters, so evaluating a word costs one
    pass over it. A word's ``perturbations[i]`` is a ``Displacement`` node that
    reads block i's displacement off the word; its certificates follow the
    composition rules (sup bounds add, Lipschitz bounds follow the chain rule).
    """

    def __init__(self, spec: SpectralData, perturbations: Sequence[FuncExpr], K: float = 1.0):
        perturbations = tuple(perturbations)
        if len(perturbations) != spec.r:
            raise InputError("one perturbation per block required")
        for i, (b, n) in enumerate(zip(perturbations, spec.multiplicities)):
            if b.dim != n:
                raise InputError(f"perturbation {i} has dim {b.dim}, block needs {n}")
            if any(j <= i for j in b.deps()):
                raise InputError(f"perturbation {i} may only depend on blocks > {i}")
            if not math.isfinite(b.sup_bound):
                raise InputError(f"perturbation {i} needs a finite sup certificate")
        if perturbations[-1].deps():
            raise InputError("last-block perturbation must be constant")
        self.spec = spec
        self.perturbations = perturbations
        self.K = float(K)
        self.letters = (Letter(self),)

    @staticmethod
    def from_letters(
        spec: SpectralData,
        letters: Sequence[Letter],
        certificates: Sequence[tuple[float, float, frozenset[int]]],
        K: float,
    ) -> "AlmostTranslation":
        """The word applying ``letters`` in order.

        ``certificates`` gives (sup bound, Lipschitz bound, deps) of each
        block's displacement, as the composition rules derive them.
        """
        word = object.__new__(AlmostTranslation)
        word.spec = spec
        word.K = float(K)
        word.letters = tuple(letters)
        word.perturbations = tuple(
            Displacement(word, i, n, sup, lip, deps)
            for i, (n, (sup, lip, deps)) in enumerate(zip(spec.multiplicities, certificates))
        )
        return word

    @staticmethod
    def identity(spec: SpectralData, K: float = 1.0) -> "AlmostTranslation":
        return AlmostTranslation(spec, [Const(np.zeros(n)) for n in spec.multiplicities], K)

    def b_max(self, i: int) -> float:
        return self.perturbations[i].sup_bound

    # -- evaluation ---------------------------------------------------------

    def _displacement(self, blocks: Sequence[np.ndarray], sign: int) -> list[np.ndarray]:
        """Per-block displacement of this base letter (sign 1) or of its inverse (sign -1).

        The inverse solves from the last block down: B_i reads only blocks
        after i, which are already solved.
        """
        if sign == 1:
            return [p(blocks) for p in self.perturbations]
        out = [np.asarray(b, dtype=float) for b in blocks]
        d: list[np.ndarray] = [None] * self.spec.r
        for i in range(self.spec.r - 1, -1, -1):
            d[i] = -self.perturbations[i](out)
            out[i] = out[i] + d[i]
        return d

    def eval_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        if self.letters[0].base is self:  # a base letter
            return [np.asarray(b, dtype=float) + p(blocks) for b, p in zip(blocks, self.perturbations)]
        for letter in self.letters:
            blocks = letter.apply(blocks)
        return blocks

    def __call__(self, p: BlockPoint) -> BlockPoint:
        p.require_conforms(self.spec)
        return BlockPoint(tuple(self.eval_blocks(p.blocks)))

    def deps_of(self, j: int) -> frozenset[int]:
        return frozenset({j}) | self.perturbations[j].deps()

    def lip_bound(self) -> float:
        return 1.0 + sum(p.lipschitz for p in self.perturbations)

    # -- group structure ----------------------------------------------------

    def compose(self, other: "AlmostTranslation") -> "AlmostTranslation":
        """self after other; perturbations add along the inner image."""
        if self.spec != other.spec:
            raise InputError("spec mismatch in almost-translation composition")
        lip = other.lip_bound()
        certificates = [
            (
                bo.sup_bound + bs.sup_bound,
                bo.lipschitz + bs.lipschitz * lip,
                bo.deps().union(*(other.deps_of(j) for j in bs.deps())),
            )
            for bs, bo in zip(self.perturbations, other.perturbations)
        ]
        return AlmostTranslation.from_letters(
            self.spec, other.letters + self.letters, certificates, self.K * other.K
        )

    def inverse(self) -> "AlmostTranslation":
        """Letters reversed and inverted.

        Block i's displacement is -B_i after the inverse of the later blocks,
        so its Lipschitz bound carries 1 + the later blocks' bounds.
        """
        r = self.spec.r
        certificates: list[tuple[float, float, frozenset[int]]] = [None] * r
        for i in range(r - 1, -1, -1):
            b = self.perturbations[i]
            later = 1.0 + sum(c[1] for c in certificates[i + 1 :])
            deps = frozenset().union(*(certificates[j][2] | {j} for j in b.deps()))
            certificates[i] = (b.sup_bound, b.lipschitz * later, deps)
        letters = [letter.inverse() for letter in reversed(self.letters)]
        return AlmostTranslation.from_letters(self.spec, letters, certificates, self.K)

    def power(self, n: int) -> "AlmostTranslation":
        base = self if n >= 0 else self.inverse()
        out = AlmostTranslation.identity(self.spec, self.K)
        for _ in range(abs(n)):
            out = base.compose(out)
        return out


def epsilon_bound(gamma: AlmostTranslation, i: int) -> float:
    """Oscillation bound for B_i from the certified sups of the later blocks."""
    spec = gamma.spec
    if not 0 <= i < spec.r:
        raise InputError(f"block index {i} out of range")
    vals = [
        2.0 * gamma.K ** spec.exponents[i] * gamma.b_max(j) ** (spec.exponents[i] / spec.exponents[j])
        for j in range(i + 1, spec.r)
    ]
    return max(vals, default=0.0)


def tau_project(gamma: AlmostTranslation, j: int) -> np.ndarray:
    """Read off the constant B_j; requires B_m = 0 for all m > j."""
    spec = gamma.spec
    if not 0 <= j < spec.r:
        raise InputError(f"block index {j} out of range")
    for m in range(j + 1, spec.r):
        if gamma.b_max(m) > 0.0:
            raise NotInKernel(m)
    zero = BlockPoint.zero(spec)
    return gamma.perturbations[j](zero.blocks)


def displacement_bound(gamma_prime: AlmostTranslation, generators: Sequence[AlmostTranslation]) -> float:
    """Uniform bound on how far the root approximation moves any point.

    Sums, per block, the generators' certified sups plus the oscillation
    bound recomputed from the root's own certificates.
    """
    if not generators:
        raise InputError("at least one generator required")
    total = 0.0
    for i in range(gamma_prime.spec.r):
        total += sum(g.b_max(i) for g in generators) + epsilon_bound(gamma_prime, i)
    return total


@dataclass(frozen=True)
class OrbitCount:
    count: int
    saturated: bool


def orbit_growth(
    generators: Sequence[AlmostTranslation],
    basepoint: BlockPoint,
    k: float,
    word_cap: int,
    *,
    fingerprint_probes: Sequence[BlockPoint] | None = None,
) -> OrbitCount:
    """Count distinct group elements moving the basepoint at most k.

    Breadth-first search over words up to word_cap, deduplicating elements
    by their action on a probe set. ``saturated`` is set when elements
    within radius k were still appearing in the final layer, i.e. the word
    cap (rather than the radius) may have stopped the count.
    """
    if not generators:
        return OrbitCount(count=1, saturated=False)
    spec = generators[0].spec
    if fingerprint_probes is None:
        fingerprint_probes = [
            basepoint,
            BlockPoint(tuple(np.full(n, 0.625) for n in spec.multiplicities)),
        ]

    def fingerprint(g: AlmostTranslation):
        return tuple(
            tuple(np.round(g(q).flat(), 9)) for q in fingerprint_probes
        )

    alphabet = list(generators) + [g.inverse() for g in generators]
    ident = AlmostTranslation.identity(spec)
    seen = {fingerprint(ident)}
    inside = 1 if distance(spec, ident(basepoint), basepoint) <= k else 0
    frontier = [ident]
    saturated = False
    for depth in range(1, word_cap + 1):
        nxt = []
        for g in frontier:
            for a in alphabet:
                h = a.compose(g)
                fp = fingerprint(h)
                if fp in seen:
                    continue
                seen.add(fp)
                nxt.append(h)
                if distance(spec, h(basepoint), basepoint) <= k:
                    inside += 1
                    if depth == word_cap:
                        saturated = True
        frontier = nxt
    return OrbitCount(count=inside, saturated=saturated)


# -- exact-rational words ---------------------------------------------------


FracVec = tuple[Fraction, ...]


def _fracvec(values) -> FracVec:
    return tuple(Fraction(v) for v in values)


class ExactGenerator:
    """An almost translation with exactly evaluable rational perturbations.

    ``perturbations[i]`` is a callable taking the tuple of later blocks
    (each a tuple of Fractions) to a block-i Fraction tuple; the last entry
    must be a constant tuple. ``level`` is the largest block index with a
    nonzero perturbation, or -1 for the identity.
    """

    def __init__(self, dims: Sequence[int], perturbations: Sequence, name: str = ""):
        self.dims = tuple(int(n) for n in dims)
        self.r = len(self.dims)
        perturbations = list(perturbations)
        if len(perturbations) != self.r:
            raise InputError("one perturbation per block required")
        self.constant_top = _fracvec(perturbations[-1])
        self.perturbations = perturbations
        self.name = name

    def _b(self, i: int, later: tuple[FracVec, ...]) -> FracVec:
        if i == self.r - 1:
            return self.constant_top
        p = self.perturbations[i]
        if callable(p):
            return _fracvec(p(later))
        return _fracvec(p)

    def apply(self, point: tuple[FracVec, ...]) -> tuple[FracVec, ...]:
        out = list(point)
        for i in range(self.r):
            b = self._b(i, tuple(out[i + 1 :]))
            out[i] = tuple(x + d for x, d in zip(point[i], b))
        return tuple(out)

    def apply_inverse(self, point: tuple[FracVec, ...]) -> tuple[FracVec, ...]:
        out = list(point)
        for i in range(self.r - 1, -1, -1):
            b = self._b(i, tuple(out[i + 1 :]))
            out[i] = tuple(x - d for x, d in zip(point[i], b))
        return tuple(out)

    def top_displacement(self, j: int) -> FracVec:
        """Constant B_j, valid when all deeper perturbations vanish."""
        probe = tuple(tuple(Fraction(0) for _ in range(n)) for n in self.dims)
        return self._b(j, probe[j + 1 :])


class ExactWord:
    """A word in exact generators, evaluated by sequential application."""

    def __init__(self, gens: Sequence[ExactGenerator], letters: Sequence[tuple[int, int]] = ()):
        self.gens = list(gens)
        # free reduction of adjacent inverse pairs
        reduced: list[tuple[int, int]] = []
        for idx, sgn in letters:
            if sgn not in (1, -1):
                raise InputError("letter signs must be +1 or -1")
            if reduced and reduced[-1][0] == idx and reduced[-1][1] == -sgn:
                reduced.pop()
            else:
                reduced.append((idx, sgn))
        self.letters = tuple(reduced)
        self.dims = self.gens[0].dims if self.gens else ()
        self.r = len(self.dims)

    def apply(self, point: tuple[FracVec, ...]) -> tuple[FracVec, ...]:
        # rightmost letter acts first
        for idx, sgn in reversed(self.letters):
            g = self.gens[idx]
            point = g.apply(point) if sgn == 1 else g.apply_inverse(point)
        return point

    def __mul__(self, other: "ExactWord") -> "ExactWord":
        return ExactWord(self.gens, self.letters + other.letters)

    def inverse(self) -> "ExactWord":
        return ExactWord(self.gens, [(i, -s) for i, s in reversed(self.letters)])

    def __pow__(self, n: int) -> "ExactWord":
        base = self if n >= 0 else self.inverse()
        letters: list[tuple[int, int]] = []
        for _ in range(abs(n)):
            letters.extend(base.letters)
        return ExactWord(self.gens, letters)

    def zero_point(self) -> tuple[FracVec, ...]:
        return tuple(tuple(Fraction(0) for _ in range(n)) for n in self.dims)

    def block_displacement(self, point: tuple[FracVec, ...], j: int) -> FracVec:
        image = self.apply(point)
        return tuple(a - b for a, b in zip(image[j], point[j]))

    def equals(self, other: "ExactWord", probes: Sequence[tuple[FracVec, ...]]) -> bool:
        return all(self.apply(p) == other.apply(p) for p in probes)

    def is_identity(self, probes: Sequence[tuple[FracVec, ...]]) -> bool:
        return all(self.apply(p) == p for p in probes)


def default_probes(dims: Sequence[int]) -> list[tuple[FracVec, ...]]:
    """Rational probe points used for word-equality and kernel checks."""
    vals = [Fraction(0), Fraction(1, 3), Fraction(-7, 5), Fraction(13, 4), Fraction(-11, 7)]
    probes = []
    for k, v in enumerate(vals):
        probes.append(
            tuple(tuple(v + Fraction(j + k, 11) for j in range(n)) for n in dims)
        )
    return probes


def _exact_solve(columns: list[FracVec], target: FracVec) -> list[Fraction]:
    """Solve target = sum a_i * columns[i] by Fraction Gaussian elimination."""
    m = len(target)
    d = len(columns)
    aug = [[columns[j][i] for j in range(d)] + [target[i]] for i in range(m)]
    pivots = []
    row = 0
    for col in range(d):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][d] != 0:
            raise InfiniteIndexSuspected("target outside the span of the generator constants")
    sol = [Fraction(0)] * d
    for r, col in enumerate(pivots):
        sol[col] = aug[r][d]
    # verify (free variables fixed at zero)
    for i in range(m):
        acc = sum((sol[j] * columns[j][i] for j in range(d)), Fraction(0))
        if acc != target[i]:
            raise InfiniteIndexSuspected("coefficient solve is inconsistent")
    return sol


@dataclass(frozen=True)
class RootCertificate:
    """Witness for an approximate l-th root: gamma_p = gamma_prime * eta."""

    gamma_prime: ExactWord
    eta: ExactWord
    coefficients: dict[int, int]
    order: int


def approx_lth_root(
    gamma_p: ExactWord,
    generator_indices: Sequence[int],
    levels: Sequence[Sequence[int]],
    l: int,
    probes: Sequence[tuple[FracVec, ...]] | None = None,
) -> RootCertificate:
    """Extract an approximate l-th root of gamma_p within the subgroup.

    ``levels[j]`` lists the generator indices whose top nonzero block is j
    (their B_j is constant and everything deeper vanishes). Per level,
    descending from the top block: solve the constant-block coefficients of
    the current kernel element over the level generators, split off the
    floor(a_i/l) part, and push the remainder word one level down. All
    arithmetic is exact; failure of the coefficient solve (or non-integer
    coefficients) raises InfiniteIndexSuspected.
    """
    gens = gamma_p.gens
    dims = gamma_p.dims
    r = len(dims)
    if probes is None:
        probes = default_probes(dims)
    if l < 1:
        raise InputError("root order must be >= 1")

    hat_prod = ExactWord(gens)
    err_suffix = ExactWord(gens)  # (err_r)^-1 (err_{r-1})^-1 ... accumulated
    hats: list[ExactWord] = []
    coeffs: dict[int, int] = {}

    for j in range(r - 1, -1, -1):
        eta_j = (gamma_p * hat_prod.inverse()) ** l * err_suffix
        # eta_j must lie in the level-j kernel: blocks above j fixed
        zero = eta_j.zero_point()
        for m in range(j + 1, r):
            for p in probes:
                if any(v != 0 for v in eta_j.block_displacement(p, m)):
                    raise NotInKernel(m, f"descent left a nonzero block-{m} displacement")
        disp = eta_j.block_displacement(zero, j)
        for p in probes:
            if eta_j.block_displacement(p, j) != disp:
                raise NotInKernel(j, "level displacement is not constant on probes")
        level_gens = list(levels[j])
        if level_gens:
            columns = [gens[i].top_displacement(j) for i in level_gens]
            sol = _exact_solve(columns, disp)
        elif any(v != 0 for v in disp):
            raise InfiniteIndexSuspected(f"no level-{j} generators but nonzero displacement")
        else:
            sol = []
        hat_letters: list[tuple[int, int]] = []
        err_letters: list[tuple[int, int]] = []
        for i, a in zip(level_gens, sol):
            if a.denominator != 1:
                raise InfiniteIndexSuspected(f"non-integer coefficient {a} at level {j}")
            a = int(a)
            q, c = a // l, a % l
            hat_letters.extend([(i, 1 if q >= 0 else -1)] * abs(q))
            err_letters.extend([(i, 1)] * c)
            if c:
                coeffs[i] = coeffs.get(i, 0) + c
        hat_j = ExactWord(gens, hat_letters)
        err_j = ExactWord(gens, err_letters)
        hats.append(hat_j)
        hat_prod = hat_prod * hat_j
        err_suffix = err_suffix * err_j.inverse()

    final = (gamma_p * hat_prod.inverse()) ** l * err_suffix
    if not final.is_identity(probes):
        raise InfiniteIndexSuspected("descent did not terminate at the identity")

    eta = ExactWord(gens)
    for hat in reversed(hats):  # hat_1 ... hat_r
        eta = eta * hat
    gamma_prime = gamma_p * eta.inverse()
    return RootCertificate(gamma_prime=gamma_prime, eta=eta, coefficients=coeffs, order=l)


def root_power_word(cert: RootCertificate, gens: Sequence[ExactGenerator]) -> ExactWord:
    """The product of generator powers that (gamma')^l must equal."""
    letters: list[tuple[int, int]] = []
    for i in sorted(cert.coefficients):
        letters.extend([(i, 1)] * cert.coefficients[i])
    return ExactWord(list(gens), letters)
