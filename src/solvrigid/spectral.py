"""Block structure data, block-decomposed points of R^n, and the input boundary."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError


def floats(value, what: str) -> np.ndarray:
    """``value`` as a float array, InputError naming ``what`` unless it is numbers in float
    range: the one reader of numbers from outside. Each caller checks shape and finiteness."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} must be numbers in float range, got {value!r}") from None


def float_parts(values, what: str) -> list[np.ndarray]:
    """Each member of the sequence ``values`` (blocks, rotations, ...) read by ``floats``."""
    if not np.iterable(values):
        raise InputError(f"{what} must be a sequence of arrays, got {values!r}")
    return [floats(v, what) for v in values]


@dataclass(frozen=True)
class SpectralData:
    """Strictly increasing positive exponents with block multiplicities.

    ``exponents[i]`` governs how block ``i`` scales under the standard
    dilation; ``multiplicities[i]`` is the dimension of block ``i``.
    """

    exponents: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        exps = floats(self.exponents, "exponents")
        mults = floats(self.multiplicities, "multiplicities")
        if exps.ndim != 1 or exps.shape != mults.shape or not exps.size:
            raise InputError("exponents and multiplicities must be nonempty and equal length")
        # increasing from a positive first to a finite last: each is finite and positive
        if not (0 < exps[0] and exps[-1] < math.inf and (exps[1:] > exps[:-1]).all()):
            raise InputError("exponents must be finite, positive and strictly increasing")
        # a fraction, NaN or inf is not a multiplicity; int() would truncate it
        if not ((1 <= mults) & (mults < math.inf) & (mults == np.floor(mults))).all():
            raise InputError("multiplicities must be positive integers")
        object.__setattr__(self, "exponents", tuple(exps.tolist()))
        object.__setattr__(self, "multiplicities", tuple(map(int, mults.tolist())))

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
        blocks = tuple(b.reshape(-1) for b in float_parts(self.blocks, "point blocks"))
        object.__setattr__(self, "blocks", blocks)

    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)


def finite_blocks(blocks) -> list[np.ndarray]:
    """``blocks`` as float arrays; InputError on a non-numeric or non-finite block."""
    out = float_parts(blocks, "point blocks")
    for b in out:
        # the sum of squares is finite when every entry is, short of
        # overflow: only then is the entrywise test needed
        if not math.isfinite(np.vdot(b, b)) and not np.isfinite(b).all():
            raise InputError("point has a non-finite coordinate")
    return out


def require_blocks(spec: SpectralData, blocks) -> list[np.ndarray]:
    """The blocks of one point, shapes ``(n_i,)``, or of N points, ``(N, n_i)``, as float arrays.

    A 1-D block among row blocks is shared by every row, as numpy broadcasts
    it. Raises InputError on non-numeric or non-finite blocks and
    DimensionMismatch on any other count or shape of blocks, or row blocks
    of differing N.
    """
    out = finite_blocks(blocks)
    shapes = [b.shape for b in out]
    if shapes != [(n,) for n in spec.multiplicities]:  # not one point: rows
        rows = {s[:-1] for s in shapes} - {()}
        if (len(out) != spec.r or len(rows) > 1 or any(len(n) > 1 for n in rows)
                or any(s[-1:] != (n,) for s, n in zip(shapes, spec.multiplicities))):
            raise DimensionMismatch(
                f"blocks of shapes {shapes} are neither one point nor rows "
                f"of multiplicities {spec.multiplicities}"
            )
    return out


class BoundaryMap:
    """A map of R^n whose ``eval_blocks`` checks the blocks of one point, ``(n_i,)``, or of N
    points, ``(N, n_i)``, once and maps them by the subclass's ``_apply``; an image beyond
    float range reads inf. A map that holds another reaches it through its ``_apply``."""

    def eval_blocks(self, blocks) -> list[np.ndarray]:
        blocks = require_blocks(self.spec, blocks)
        with np.errstate(all="ignore"):
            return self._apply(blocks)

    def _apply(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        raise NotImplementedError

    def __call__(self, p: BlockPoint) -> BlockPoint:
        return BlockPoint(tuple(self.eval_blocks(p.blocks)))


def split_rows(spec: SpectralData, rows: np.ndarray) -> list[np.ndarray]:
    """The blocks of one point ``(total_dim,)`` or of rows ``(N, total_dim)``, as views."""
    return [rows[..., s] for s in spec.block_slices()]


def join_blocks(blocks) -> np.ndarray:
    """The inverse of split_rows; a one-point block among row blocks is shared by every row."""
    lead = np.broadcast_shapes(*(b.shape[:-1] for b in blocks))
    return np.concatenate([np.broadcast_to(b, lead + b.shape[-1:]) for b in blocks], axis=-1)


# Rows per array drawn by random_row_blocks: large enough to amortize numpy's
# per-call cost, small enough that memory stays flat at any sample count.
ROW_BLOCK = 4096


def random_row_blocks(
    spec: SpectralData, rng: np.random.Generator, count: int, k: int, scale: float = 1.0
):
    """Yield ``count`` rows of ``k`` points as ``(m, k, total_dim)`` arrays, m <= ROW_BLOCK.

    The draws are the same numbers in the same order as ``count`` rounds of
    ``k`` points drawn one at a time, each ``rng.uniform(-scale, scale,
    total_dim)``, so row ``j`` of block ``b`` holds the points of round
    ``b * ROW_BLOCK + j``.
    """
    for start in range(0, count, ROW_BLOCK):
        yield rng.uniform(-scale, scale, (min(ROW_BLOCK, count - start), k, spec.total_dim))
