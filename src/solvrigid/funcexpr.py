"""Expression trees for block-map components, with Lipschitz/sup certificates.

Every node evaluates a tuple of block vectors to a vector and carries two
certificates: a Lipschitz bound (with respect to the Euclidean norm on the
concatenation of the referenced blocks) and a sup-norm bound. Either may be
infinite; composition rules propagate them conservatively.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InputError

INF = float("inf")


class FuncExpr:
    dim: int

    def __call__(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def deps(self) -> frozenset[int]:
        raise NotImplementedError

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

    def to_json(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} has no JSON encoding")


class Const(FuncExpr):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float).reshape(-1)
        self.dim = self.value.shape[0]

    def __call__(self, blocks):
        return self.value.copy()

    def deps(self):
        return frozenset()

    @property
    def lipschitz(self):
        return 0.0

    @property
    def sup_bound(self):
        return float(np.linalg.norm(self.value))

    def to_json(self):
        return {"node": "const", "value": self.value.tolist()}


class BlockVar(FuncExpr):
    def __init__(self, index: int, dim: int):
        self.index = int(index)
        self.dim = int(dim)

    def __call__(self, blocks):
        try:
            b = np.asarray(blocks[self.index], dtype=float)
        except IndexError:
            raise InputError(f"block {self.index} is past the input's {len(blocks)} blocks") from None
        if b.shape != (self.dim,):
            raise InputError(f"block {self.index} has dim {b.shape}, expected ({self.dim},)")
        return b.copy()

    def deps(self):
        return frozenset({self.index})

    @property
    def lipschitz(self):
        return 1.0

    @property
    def sup_bound(self):
        return INF

    def to_json(self):
        return {"node": "block", "index": self.index, "dim": self.dim}


class Lin(FuncExpr):
    def __init__(self, matrix, child: FuncExpr):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != child.dim:
            raise InputError("linear node shape mismatch")
        self.child = child
        self.dim = self.matrix.shape[0]
        self._opnorm = float(np.linalg.norm(self.matrix, 2))

    def __call__(self, blocks):
        return self.matrix @ self.child(blocks)

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        return self._opnorm * self.child.lipschitz

    @property
    def sup_bound(self):
        return self._opnorm * self.child.sup_bound

    def to_json(self):
        return {"node": "lin", "matrix": self.matrix.tolist(), "child": self.child.to_json()}


class Sum(FuncExpr):
    def __init__(self, children: Sequence[FuncExpr]):
        children = tuple(children)
        if not children or len({c.dim for c in children}) != 1:
            raise InputError("sum children must be nonempty with equal dims")
        self.children = children
        self.dim = children[0].dim

    def __call__(self, blocks):
        out = self.children[0](blocks)
        for c in self.children[1:]:
            out = out + c(blocks)
        return out

    def deps(self):
        return frozenset().union(*(c.deps() for c in self.children))

    @property
    def lipschitz(self):
        return sum(c.lipschitz for c in self.children)

    @property
    def sup_bound(self):
        return sum(c.sup_bound for c in self.children)

    def to_json(self):
        return {"node": "sum", "children": [c.to_json() for c in self.children]}


class Scale(FuncExpr):
    def __init__(self, factor: float, child: FuncExpr):
        self.factor = float(factor)
        self.child = child
        self.dim = child.dim

    def __call__(self, blocks):
        return self.factor * self.child(blocks)

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        return abs(self.factor) * self.child.lipschitz

    @property
    def sup_bound(self):
        return abs(self.factor) * self.child.sup_bound

    def to_json(self):
        return {"node": "scale", "factor": self.factor, "child": self.child.to_json()}


class AbsPow(FuncExpr):
    """Componentwise |u|^c for c > 0."""

    def __init__(self, exponent: float, child: FuncExpr):
        if not exponent > 0:
            raise InputError("power exponent must be positive")
        self.exponent = float(exponent)
        self.child = child
        self.dim = child.dim

    def __call__(self, blocks):
        return np.abs(self.child(blocks)) ** self.exponent

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        c = self.exponent
        if c == 1.0:
            return self.child.lipschitz
        if c > 1.0 and math.isfinite(self.child.sup_bound):
            return c * self.child.sup_bound ** (c - 1.0) * self.child.lipschitz
        return INF

    @property
    def sup_bound(self):
        s = self.child.sup_bound
        return s ** self.exponent if math.isfinite(s) else INF

    def to_json(self):
        return {"node": "abspow", "exponent": self.exponent, "child": self.child.to_json()}


class _Pointwise(FuncExpr):
    op = None
    tag = ""

    def __init__(self, children: Sequence[FuncExpr]):
        children = tuple(children)
        if not children or len({c.dim for c in children}) != 1:
            raise InputError("pointwise children must be nonempty with equal dims")
        self.children = children
        self.dim = children[0].dim

    def __call__(self, blocks):
        vals = [c(blocks) for c in self.children]
        return type(self).op.reduce(vals)

    def deps(self):
        return frozenset().union(*(c.deps() for c in self.children))

    @property
    def lipschitz(self):
        return max(c.lipschitz for c in self.children)

    @property
    def sup_bound(self):
        return max(c.sup_bound for c in self.children)

    def to_json(self):
        return {"node": self.tag, "children": [c.to_json() for c in self.children]}


class PMin(_Pointwise):
    op = np.minimum
    tag = "min"


class PMax(_Pointwise):
    op = np.maximum
    tag = "max"


class Clamp(FuncExpr):
    def __init__(self, lo: float, hi: float, child: FuncExpr):
        if lo > hi:
            raise InputError("clamp bounds out of order")
        self.lo, self.hi = float(lo), float(hi)
        self.child = child
        self.dim = child.dim

    def __call__(self, blocks):
        return np.clip(self.child(blocks), self.lo, self.hi)

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        return self.child.lipschitz

    @property
    def sup_bound(self):
        bound = max(abs(self.lo), abs(self.hi)) * math.sqrt(self.dim)
        return min(bound, self.child.sup_bound)

    def to_json(self):
        return {"node": "clamp", "lo": self.lo, "hi": self.hi, "child": self.child.to_json()}


class Pwl(FuncExpr):
    """Scalar piecewise-linear table with constant extension beyond the ends."""

    def __init__(self, xs, ys, child: FuncExpr):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if child.dim != 1 or self.xs.ndim != 1 or self.xs.shape != self.ys.shape:
            raise InputError("piecewise-linear table requires a scalar child and matching knots")
        if np.any(np.diff(self.xs) <= 0):
            raise InputError("piecewise-linear knots must be strictly increasing")
        self.child = child
        self.dim = 1
        slopes = np.diff(self.ys) / np.diff(self.xs)
        self._max_slope = float(np.abs(slopes).max()) if slopes.size else 0.0

    def __call__(self, blocks):
        u = self.child(blocks)
        return np.interp(u, self.xs, self.ys)

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        return self._max_slope * self.child.lipschitz

    @property
    def sup_bound(self):
        return float(np.abs(self.ys).max())

    def to_json(self):
        return {
            "node": "pwl",
            "xs": self.xs.tolist(),
            "ys": self.ys.tolist(),
            "child": self.child.to_json(),
        }


class Osc(FuncExpr):
    """amp_i * sin(weights . u + phase): bounded oscillation of a linear form."""

    def __init__(self, amp, weights, phase: float, child: FuncExpr):
        self.amp = np.asarray(amp, dtype=float).reshape(-1)
        self.weights = np.asarray(weights, dtype=float).reshape(-1)
        if self.weights.shape[0] != child.dim:
            raise InputError("oscillation weights must match child dimension")
        self.phase = float(phase)
        self.child = child
        self.dim = self.amp.shape[0]

    def __call__(self, blocks):
        u = self.child(blocks)
        return self.amp * math.sin(float(self.weights @ u) + self.phase)

    def deps(self):
        return self.child.deps()

    @property
    def lipschitz(self):
        return (
            float(np.linalg.norm(self.amp))
            * float(np.linalg.norm(self.weights))
            * self.child.lipschitz
        )

    @property
    def sup_bound(self):
        return float(np.linalg.norm(self.amp))

    def to_json(self):
        return {
            "node": "osc",
            "amp": self.amp.tolist(),
            "weights": self.weights.tolist(),
            "phase": self.phase,
            "child": self.child.to_json(),
        }


class Displacement(FuncExpr):
    """Block ``index`` of a word map's image minus the same input block.

    The word must expose ``eval_blocks``. The certificates are the word's:
    its composition rules derive them and pass them in. Runtime-only node:
    it has no JSON encoding.
    """

    def __init__(self, word, index: int, dim: int, sup_bound: float, lipschitz: float,
                 deps: frozenset[int]):
        self.word = word
        self.index = int(index)
        self.dim = int(dim)
        self._sup_bound = sup_bound
        self._lipschitz = lipschitz
        self._deps = frozenset(deps)

    def __call__(self, blocks):
        image = self.word.eval_blocks(blocks)[self.index]
        return image - np.asarray(blocks[self.index], dtype=float)

    def deps(self):
        return self._deps

    @property
    def lipschitz(self):
        return self._lipschitz

    @property
    def sup_bound(self):
        return self._sup_bound


def _finite(value, scalar: bool = False) -> np.ndarray:
    """A JSON number (``scalar``) or nested list of numbers, all finite."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"expected numbers, got {value!r}") from None
    if (scalar and a.ndim) or not np.all(np.isfinite(a)):
        raise InputError(f"expected finite {'number' if scalar else 'numbers'}, got {value!r}")
    return a


def _count(value) -> int:
    """A JSON non-negative integer."""
    v = float(_finite(value, scalar=True))
    if v < 0 or v != int(v):
        raise InputError(f"expected a non-negative integer, got {value!r}")
    return int(v)


def _children(value) -> list[FuncExpr]:
    if not isinstance(value, list):
        raise InputError(f"expected a list of nodes, got {value!r}")
    return [expr_from_json(c) for c in value]


def expr_from_json(obj: dict) -> FuncExpr:
    """The expression a JSON node encodes.

    A node that is not an object, lacks a field, or holds a non-numeric or
    non-finite number, or a block index or dim that is not a non-negative
    integer, raises InputError.
    """
    if not isinstance(obj, dict):
        raise InputError(f"expression node must be an object, got {obj!r}")
    tag = obj.get("node")
    try:
        if tag == "const":
            return Const(_finite(obj["value"]))
        if tag == "block":
            return BlockVar(_count(obj["index"]), _count(obj["dim"]))
        if tag == "lin":
            return Lin(_finite(obj["matrix"]), expr_from_json(obj["child"]))
        if tag == "sum":
            return Sum(_children(obj["children"]))
        if tag == "scale":
            return Scale(_finite(obj["factor"], scalar=True), expr_from_json(obj["child"]))
        if tag == "abspow":
            return AbsPow(_finite(obj["exponent"], scalar=True), expr_from_json(obj["child"]))
        if tag == "min":
            return PMin(_children(obj["children"]))
        if tag == "max":
            return PMax(_children(obj["children"]))
        if tag == "clamp":
            lo, hi = _finite(obj["lo"], scalar=True), _finite(obj["hi"], scalar=True)
            return Clamp(lo, hi, expr_from_json(obj["child"]))
        if tag == "pwl":
            return Pwl(_finite(obj["xs"]), _finite(obj["ys"]), expr_from_json(obj["child"]))
        if tag == "osc":
            return Osc(_finite(obj["amp"]), _finite(obj["weights"]),
                       _finite(obj["phase"], scalar=True), expr_from_json(obj["child"]))
    except KeyError as exc:
        raise InputError(f"{tag!r} node lacks the field {exc}") from None
    raise InputError(f"unknown expression node tag: {tag!r}")


def probe_lipschitz(expr: FuncExpr, spec, rng, probes: int = 1000, scale: float = 5.0) -> float:
    """Max finite-difference slope of an expression on random probe pairs."""
    worst = 0.0
    for _ in range(probes):
        a = [rng.uniform(-scale, scale, n) for n in spec.multiplicities]
        b = [x.copy() for x in a]
        js = sorted(expr.deps())
        if not js:
            return 0.0
        j = js[rng.integers(len(js))]
        step = rng.normal(size=spec.multiplicities[j]) * 1e-4
        b[j] = b[j] + step
        num = float(np.linalg.norm(expr(a) - expr(b)))
        den = float(np.linalg.norm(step))
        if den > 0:
            worst = max(worst, num / den)
    return worst
