"""Block structure data: exponent lists and block-decomposed points of R^n."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError


@dataclass(frozen=True)
class SpectralData:
    """Strictly increasing positive exponents with block multiplicities.

    ``exponents[i]`` governs how block ``i`` scales under the standard
    dilation; ``multiplicities[i]`` is the dimension of block ``i``.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        try:
            exps = tuple(float(a) for a in self.exponents)
            mults = tuple(int(n) for n in self.multiplicities)
        except (TypeError, ValueError, OverflowError):
            raise InputError("exponents and multiplicities must be numbers") from None
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "multiplicities", mults)
        if len(exps) != len(mults) or not exps:
            raise InputError("exponents and multiplicities must be nonempty and equal length")
        if any(not math.isfinite(a) or a <= 0 for a in exps):
            raise InputError("exponents must be finite and positive")
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise InputError("exponents must be strictly increasing")
        if any(n < 1 for n in mults):
            raise InputError("multiplicities must be positive integers")

    @property
    def r(self) -> int:
        return len(self.exponents)

    @property
    def total_dim(self) -> int:
        return sum(self.multiplicities)

    def block_slices(self) -> list[slice]:
        out, start = [], 0
        for n in self.multiplicities:
            out.append(slice(start, start + n))
            start += n
        return out

    def to_json(self) -> dict:
        return {"alphas": list(self.exponents), "mults": list(self.multiplicities)}

    @staticmethod
    def from_json(obj: dict | str) -> "SpectralData":
        try:
            if isinstance(obj, str):
                obj = json.loads(obj)
            alphas = obj["alphas"]
            mults = obj["mults"]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"spectral data must be JSON with 'alphas' and 'mults': {exc}") from exc
        if not isinstance(alphas, (list, tuple)) or any(type(a) not in (float, int) for a in alphas):
            raise InputError("'alphas' must be a list of numbers")
        if not isinstance(mults, (list, tuple)) or any(type(n) is not int for n in mults):
            raise InputError("'mults' must be a list of integers")
        return SpectralData(tuple(alphas), tuple(mults))


@dataclass(frozen=True)
class BlockPoint:
    """A point of R^n split into the blocks of a SpectralData."""

    blocks: tuple[np.ndarray, ...] = field()

    def __post_init__(self):
        try:
            blocks = tuple(np.asarray(b, dtype=float).reshape(-1) for b in self.blocks)
        except (TypeError, ValueError, OverflowError):
            raise InputError("point blocks must be arrays of numbers") from None
        object.__setattr__(self, "blocks", blocks)

    def conforms(self, spec: SpectralData) -> bool:
        # blocks are 1-D (see __post_init__), so their lengths are their shapes
        return tuple(map(len, self.blocks)) == spec.multiplicities

    def require_conforms(self, spec: SpectralData) -> None:
        if not self.conforms(spec):
            got = [b.shape[0] for b in self.blocks]
            raise DimensionMismatch(
                f"point with block dims {got} does not conform to multiplicities {spec.multiplicities}"
            )

    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    @staticmethod
    def from_flat(spec: SpectralData, v: np.ndarray) -> "BlockPoint":
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape[0] != spec.total_dim:
            raise DimensionMismatch(f"flat vector of length {v.shape[0]}, expected {spec.total_dim}")
        return BlockPoint(tuple(v[s] for s in spec.block_slices()))

    @staticmethod
    def zero(spec: SpectralData) -> "BlockPoint":
        return BlockPoint(tuple(np.zeros(n) for n in spec.multiplicities))

    def __add__(self, other: "BlockPoint") -> "BlockPoint":
        return BlockPoint(tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "BlockPoint") -> "BlockPoint":
        return BlockPoint(tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "BlockPoint":
        return BlockPoint(tuple(-a for a in self.blocks))

    def isclose(self, other: "BlockPoint", atol: float = 0.0, rtol: float = 1e-12) -> bool:
        return all(
            np.allclose(a, b, atol=atol, rtol=rtol) for a, b in zip(self.blocks, other.blocks)
        )


# Rows per array drawn by random_row_blocks: large enough to amortize numpy's
# per-call cost, small enough that memory stays flat at any sample count.
ROW_BLOCK = 4096


def random_point(spec: SpectralData, rng: np.random.Generator, scale: float = 1.0) -> BlockPoint:
    return BlockPoint(tuple(rng.uniform(-scale, scale, n) for n in spec.multiplicities))


def random_pairs(
    spec: SpectralData, rng: np.random.Generator, count: int, scale: float = 1.0
) -> list[tuple[BlockPoint, BlockPoint]]:
    return [
        (random_point(spec, rng, scale), random_point(spec, rng, scale)) for _ in range(count)
    ]


def random_row_blocks(
    spec: SpectralData, rng: np.random.Generator, count: int, k: int, scale: float = 1.0
):
    """Yield ``count`` rows of ``k`` points as ``(m, k, total_dim)`` arrays, m <= ROW_BLOCK.

    The draws are the same numbers in the same order as ``count`` rounds of
    ``k`` :func:`random_point` calls, so row ``j`` of block ``b`` holds the
    points of round ``b * ROW_BLOCK + j``.
    """
    for start in range(0, count, ROW_BLOCK):
        yield rng.uniform(-scale, scale, (min(ROW_BLOCK, count - start), k, spec.total_dim))
