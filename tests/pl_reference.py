"""Exact reference for the 1-D conjugation pipeline: piecewise-linear maps of
the line in Fractions, with the sup measure, its antiderivative and the
conjugated words computed in pure Python, so nothing is rounded.

A map is strictly increasing, given by its knots, their values and its two
end slopes, as ``tukia.PLHomeo``. No knots are merged: exact knots that agree
are equal.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction


class ExactPL:
    def __init__(self, xs, ys, left, right):
        self.xs, self.ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
        self.left, self.right = Fraction(left), Fraction(right)

    def __call__(self, x):
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0] + self.left * (x - xs[0])
        if x >= xs[-1]:
            return ys[-1] + self.right * (x - xs[-1])
        i = bisect_right(xs, x)  # xs[i - 1] <= x < xs[i]
        return ys[i - 1] + (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]) * (x - xs[i - 1])

    def inverse(self):
        return ExactPL(self.ys, self.xs, 1 / self.left, 1 / self.right)

    def compose(self, other):
        """self after other."""
        inv = other.inverse()
        knots = sorted(set(other.xs) | {inv(x) for x in self.xs})
        return ExactPL(knots, [self(other(x)) for x in knots], self.left * other.left,
                       self.right * other.right)

    def slopes(self):
        inner = [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1
                 in zip(self.xs, self.xs[1:], self.ys, self.ys[1:])]
        return [self.left, *inner, self.right]


IDENTITY = ExactPL([0], [0], 1, 1)

# the conjugate suite's generator: slope 3/2 on [0, 2/5), 2/3 on [2/5, 1), a unit shift elsewhere
BUMP = ExactPL([0, Fraction(2, 5), 1], [1, Fraction(8, 5), 2], 1, 1)


def powers(g, n):
    """g^k for k from -n to n, each folded one letter at a time from the identity."""
    out = {0: IDENTITY}
    for k in range(1, n + 1):
        out[k] = g.compose(out[k - 1])
        out[-k] = g.inverse().compose(out[1 - k])
    return out


def sup_measure(g, depth):
    """(breaks, values) of the max of the slopes of g^k, |k| <= depth, for a unit-stretch
    g: values[0] left of the first break, values[i] right of breaks[i - 1]."""
    words = [(w.xs, w.slopes()) for w in powers(g, depth).values()]
    breaks = sorted(set().union(*(xs for xs, _ in words)))
    inside = [breaks[0] - 1, *((a + b) / 2 for a, b in zip(breaks, breaks[1:])), breaks[-1] + 1]
    # the piece holding x, which is no knot, is the count of knots left of it
    return breaks, [max(slopes[bisect_left(xs, x)] for xs, slopes in words) for x in inside]


def conjugator(breaks, values):
    """The antiderivative of the step function, anchored at 0."""
    ys = [Fraction(0)]
    for x0, x1, v in zip(breaks, breaks[1:], values[1:]):
        ys.append(ys[-1] + v * (x1 - x0))
    h = ExactPL(breaks, ys, values[0], values[-1])
    return ExactPL(breaks, [y - h(0) for y in ys], values[0], values[-1])


def conjugated_slopes(h, g, word_len, lo, hi):
    """Per k with 0 < |k| <= word_len, the set of slopes of h g^k h^-1 on the pieces
    that meet (lo, hi)."""
    out = {}
    for k, w in powers(g, word_len).items():
        if k:
            c = h.compose(w.compose(h.inverse()))
            out[k] = set(c.slopes()[bisect_right(c.xs, lo):bisect_left(c.xs, hi) + 1])
    return out
