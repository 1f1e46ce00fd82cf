"""Expression trees for almost-translation perturbations, with Lipschitz/sup certificates.

Every node evaluates a tuple of blocks to a vector and carries two
certificates. The blocks are those of one point, shapes ``(n_i,)``, or of N
points, shapes ``(N, n_i)``; the value is then ``(dim,)`` or ``(N, dim)``,
one path for both, and each row equals the one-point value bit for bit. A
``const`` node keeps its ``(dim,)`` value on row input, and the node or map
that adds it broadcasts it over the rows. The certificates are a Lipschitz
bound (with respect to the Euclidean norm on the concatenation of the
referenced blocks) and a sup-norm bound. Either may be infinite;
composition rules propagate them conservatively.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import InputError
from .quasimetric import _block_norm
from .spectral import finite_blocks, floats, require_blocks

INF = float("inf")


def _product(a: float, b: float) -> float:
    """a * b of two certificate factors; a zero factor gives 0 beside inf, not NaN."""
    return a and b and a * b


class FuncExpr:
    """A node of an expression tree. The base ``deps`` reads the child or children that
    ``_CHILDREN`` names for the node's class; any other class, as ``BlockVar`` or the
    runtime-only ``Displacement``, defines its own ``deps``."""

    dim: int

    def __call__(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The value at the blocks of one point or of N points; InputError on
        a non-numeric or non-finite block. Maps, which check their input
        once, evaluate their nodes through ``_eval``."""
        return self._eval(finite_blocks(blocks))

    def _eval(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def deps(self) -> frozenset[int]:
        """The indices of the blocks the node reads: those its child or children read."""
        kind = _CHILDREN[type(self)]
        if kind is None:
            return frozenset()
        if kind == "child":
            return self.child.deps()
        return frozenset().union(*(c.deps() for c in self.children))

    @property
    def lipschitz(self) -> float:
        raise NotImplementedError

    @property
    def sup_bound(self) -> float:
        raise NotImplementedError

    def __add__(self, other: "FuncExpr") -> "FuncExpr":
        return Sum((self, other))

    def __neg__(self) -> "FuncExpr":
        return Scale(-1.0, self)


class Const(FuncExpr):
    def __init__(self, value):
        self.value = _finite(value, False, "const value").reshape(-1)
        self.dim = self.value.shape[0]
        with np.errstate(over="ignore"):  # a norm beyond float range reads inf, which is sound
            self._sup_bound = float(_block_norm(self.value))

    def _eval(self, blocks):
        return self.value.copy()

    @property
    def lipschitz(self):
        return 0.0

    @property
    def sup_bound(self):
        return self._sup_bound


class BlockVar(FuncExpr):
    def __init__(self, index: int, dim: int):
        self.index = int(index)
        self.dim = int(dim)

    def _eval(self, blocks):
        try:
            b = blocks[self.index]
        except IndexError:
            raise InputError(f"block {self.index} is past the input's {len(blocks)} blocks") from None
        if b.ndim not in (1, 2) or b.shape[-1] != self.dim:
            raise InputError(
                f"block {self.index} has shape {b.shape}, expected ({self.dim},) or (N, {self.dim})"
            )
        return b.copy()

    def deps(self):
        return frozenset({self.index})

    @property
    def lipschitz(self):
        return 1.0

    @property
    def sup_bound(self):
        return INF


class Scale(FuncExpr):
    def __init__(self, factor: float, child: FuncExpr):
        self.factor = float(_finite(factor, True, "scale factor"))
        self.child = child
        self.dim = child.dim

    def _eval(self, blocks):
        return self.factor * self.child._eval(blocks)

    @property
    def lipschitz(self):
        return _product(abs(self.factor), self.child.lipschitz)

    @property
    def sup_bound(self):
        return _product(abs(self.factor), self.child.sup_bound)


class Sum(FuncExpr):
    """Pointwise sum of children of one dim; each certificate is the sum of the children's."""

    def __init__(self, children: Sequence[FuncExpr]):
        children = tuple(children) if np.iterable(children) else ()
        if (not children or not all(isinstance(c, FuncExpr) for c in children)
                or len({c.dim for c in children}) != 1):
            raise InputError("sum children must be nonempty nodes with equal dims")
        self.children = children
        self.dim = children[0].dim

    def _eval(self, blocks):
        # pairwise, so that a const child broadcasts over the rows
        return functools.reduce(np.add, (c._eval(blocks) for c in self.children))

    @property
    def lipschitz(self):
        return sum(c.lipschitz for c in self.children)

    @property
    def sup_bound(self):
        return sum(c.sup_bound for c in self.children)


class Osc(FuncExpr):
    """amp_i * sin(weights . u + phase): bounded oscillation of a linear form."""

    def __init__(self, amp, weights, phase: float, child: FuncExpr):
        self.amp = _finite(amp, False, "oscillation amplitudes").reshape(-1)
        self.weights = _finite(weights, False, "oscillation weights").reshape(-1)
        self.phase = float(_finite(phase, True, "oscillation phase"))
        if self.weights.shape[0] != child.dim:
            raise InputError("oscillation weights must match the child")
        self.child = child
        self.dim = self.amp.shape[0]
        with np.errstate(over="ignore"):  # a norm beyond float range reads inf, which is sound
            self._sup_bound = float(_block_norm(self.amp))
            self._gain = _product(self._sup_bound, float(_block_norm(self.weights)))

    def _eval(self, blocks):
        # np.vecdot gives each row the bits of the one-point inner product;
        # a matrix product of the rows with the weights does not
        phase = np.vecdot(self.child._eval(blocks), self.weights) + self.phase
        return self.amp * np.sin(phase)[..., None]

    @property
    def lipschitz(self):
        return _product(self._gain, self.child.lipschitz)

    @property
    def sup_bound(self):
        return self._sup_bound


class Displacement(FuncExpr):
    """Block ``index`` of a word map's image minus the same input block.

    The word is an ``AlmostTranslation``; a direct call checks the blocks
    against its spec, as the word's ``eval_blocks`` does. The certificates
    are the word's: its composition rules derive them and pass them in.
    """

    def __init__(self, word, index: int, dim: int, sup_bound: float, lipschitz: float,
                 deps: frozenset[int]):
        self.word = word
        self.index = int(index)
        self.dim = int(dim)
        self._sup_bound = sup_bound
        self._lipschitz = lipschitz
        self._deps = frozenset(deps)

    def _eval(self, blocks):
        return self.word._apply(blocks)[self.index] - blocks[self.index]

    def __call__(self, blocks):
        return self._eval(require_blocks(self.word.spec, blocks))

    def deps(self):
        return self._deps

    @property
    def lipschitz(self):
        return self._lipschitz

    @property
    def sup_bound(self):
        return self._sup_bound


def _finite(value, scalar: bool, what: str) -> np.ndarray:
    """One number (``scalar``) or a nested list of numbers, all finite."""
    a = floats(value, what)
    if (scalar and a.ndim) or not np.all(np.isfinite(a)):
        kind = "one finite number" if scalar else "finite numbers"
        raise InputError(f"{what} must be {kind}, got {value!r}")
    return a


# per node class, the attribute that holds its child node ("child") or its nodes
# ("children"), which the base deps reads; None for a leaf
_CHILDREN = {Const: None, Sum: "children", Scale: "child", Osc: "child"}
