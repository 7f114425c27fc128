"""Exact enumeration of self-avoiding walks on Z^d and fugacity series.

A self-avoiding walk (SAW) of length n is a nearest-neighbor path
(w_0 = 0, w_1, ..., w_n) visiting n+1 distinct lattice points.  This module
counts them exactly and evaluates the generating function that controls the
fractional-moment bounds elsewhere in the package, with the tail of the
susceptibility chi as its truncation bound:

    C_gamma(x) = sum_n gamma^n #S_n(x, 0)      (endpoint-resolved correlation)
    chi(gamma) = sum_n gamma^n c_n             (susceptibility)

with c_n the number of length-n SAWs from the origin and #S_n(y, x) the number
ending at y.  Counts are Python integers, so they are exact at any length.

Counting is submultiplicative, c_{m+n} <= c_m * c_n, hence c_n^{1/n} converges
(Fekete) to the connective constant mu_d and every finite c_n^{1/n} is a
rigorous upper bound for mu_d.  The same inequality powers a closed-form bound
on the truncated series tail: with r = N_max, writing n = q*r + s,

    sum_{n>r} gamma^n c_n <= sum_{q>=1} (c_r gamma^r)^q * sum_{s<r} c_s gamma^s
                          = (t / (1 - t)) * P_{r-1},   t = c_r gamma^r,

valid whenever t < 1, i.e. gamma * c_r^{1/r} < 1.  Since #S_n(y, x) <= c_n the
same expression bounds the tail of C_gamma at any point.

The enumerator walks the SAW tree in numpy blocks of at most 1024 walks of
one length, one row of encoded positions each, a level at a time, on an
explicit stack.  A step is dropped when it lands on an earlier position an
even number of steps back, the only ones a walk on the bipartite Z^d can
return to.  Only walks canonical under the 2^d d! signed coordinate
permutations are visited (axes first appear in the order 1..d, each first
positively); one that uses k axes adds its orbit size 2^k d!/(d-k)! to its
endpoint.  Each block's weights are summed per endpoint exactly in int64 (a
sort and np.add.reduceat) and merged into Python integers.

Symmetric points end equally many walks, so the series is stored once per
endpoint class (the sorted |coordinates| of a point): each class total is
split exactly over the class's d!/prod_v m_v! 2^(nonzero coordinates)
points, m_v the coordinates of magnitude v.  The endpoints are the points of
the l1 ball of radius N, each the end of a shortest walk.  WalkSeries.endpoints
and write_endpoints (the artifact's list, streamed as json text) walk the
ball in lexicographic order, one axis and one slab of the first coordinate
at a time, and look up each point's class by code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

import numpy as np

Point = tuple[int, ...]

#: default series length per dimension; beyond this the tree gets expensive
_DEFAULT_MAX_LENGTH = {1: 20, 2: 14, 3: 10}

DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes

#: walks per block of the tree walk
_BLOCK = 1024


class BudgetExceededError(Exception):
    """The requested length does not fit the memory budget, or its tree walk
    would not stay exact in int64 arithmetic."""


def default_max_length(dimension: int) -> int:
    return _DEFAULT_MAX_LENGTH.get(dimension, 8)


def ball_size(dimension: int, radius: int) -> int:
    """Number of points of Z^d with l1 norm <= radius (0 when radius < 0)."""
    return sum(2**k * math.comb(dimension, k) * math.comb(radius, k)
               for k in range(min(dimension, radius) + 1))


# --- series container ---


@dataclass
class WalkSeries:
    """Exact SAW counts up to max_length: totals c_n and endpoint counts.

    classes maps an endpoint class, the sorted |coordinates| of a point, to
    the list [#S_0(y,0), ..., #S_N(y,0)] shared by every point y of the class
    (each of its distinct signed permutations).  Classes of points never hit
    by a walk of length <= N do not appear.
    """

    dimension: int
    max_length: int
    totals: list[int]
    classes: dict[Point, list[int]]

    @property
    def endpoints(self) -> dict[Point, list[int]]:
        """Per-point view {y: counts}, expanded from the classes; read only."""
        rows = list(self.classes.values())
        return {y: rows[c] for _, _, points, at in self._ball()
                for y, c in zip(zip(*points.T.tolist()), at)}

    def _ball(self):
        """The ball |y|_1 <= N in lexicographic order, a slab per first
        coordinate: (first, steps, points, at), steps the stacked (parent,
        value) arrays that extend the prefixes by v = -r..r axis by axis (r
        the radius left), at[i] the position in classes of points[i]'s class."""
        n = self.max_length
        base = (n + 1) ** np.arange(self.dimension, dtype=np.int64)
        codes = np.array(list(self.classes), dtype=np.int64) @ base
        order = np.argsort(codes)
        for first in range(-n, n + 1):
            points, left = np.array([[first]]), np.array([n - abs(first)])
            steps = []
            for _ in range(self.dimension - 1):
                width = 2 * left + 1
                parent = np.repeat(np.arange(len(left)), width)
                value = np.arange(len(parent)) - (np.cumsum(width) - left - 1)[parent]
                left = left[parent] - np.abs(value)
                points = np.column_stack((points[parent], value))
                steps.append(np.stack((parent, value)))
            keys = np.sort(np.abs(points), axis=1) @ base
            at = order[np.searchsorted(codes, keys, sorter=order) % len(codes)]
            if (codes[at] != keys).any():  # a shortest walk ends at each point
                raise ValueError(f"no class holds {points[codes[at] != keys][0]}")
            yield first, steps, points, at.tolist()

    def to_json_dict(self) -> dict:
        """The artifact's series but its endpoint list (write_endpoints
        writes that); counts are decimal strings, since exact counts
        outgrow 64-bit JSON integers."""
        return {"dimension": self.dimension, "max_length": self.max_length,
                "totals": [str(c) for c in self.totals]}

    def write_endpoints(self, fh: TextIO, level: int) -> None:
        """Write the artifact's endpoint list to fh: one {"counts", "point"}
        entry per point in sorted point order, as the text that
        json.dump(indent=2, sort_keys=True) gives the list under a key at
        indent level `level`, one slab of the ball walk at a time."""
        pad = "  " * (level + 1)  # the entries' braces
        inner = pad + "  "        # their keys
        item = inner + "  "       # the items of their lists
        heads = [f',\n{pad}{{\n{inner}"counts": '
                 + json.dumps([str(c) for c in row], indent=2).replace("\n", "\n" + inner)
                 + f',\n{inner}"point": [\n{item}'
                 for row in self.classes.values()]
        tail, n = f"\n{inner}]\n{pad}}}", self.max_length
        coords = {v: f",\n{item}{v}" for v in range(-n, n + 1)}  # after the first

        def entries():
            for first, steps, _, at in self._ball():
                text = [str(first)]
                for step in steps:
                    text = [text[p] + coords[v] for p, v in zip(*step.tolist())]
                yield from (f"{heads[c]}{t}{tail}" for c, t in zip(at, text))

        lines = entries()  # never empty: the origin ends the length-0 walk
        fh.write("[" + next(lines)[1:])  # the first entry takes no comma
        fh.writelines(lines)
        fh.write(f"\n{'  ' * level}]")


@dataclass
class CorrelationValue:
    """Truncated fugacity series plus a rigorous tail bound.

    partial_sum is exact given exact gamma (Fraction passes through); the tail
    bound is evaluated in floats.  converged is False when
    gamma * c_N^{1/N} >= 1, in which case tail_bound is +inf.
    """

    partial_sum: float
    tail_bound: float
    converged: bool

    @property
    def upper_bound(self) -> float:
        return float(self.partial_sum) + self.tail_bound


# --- enumeration ---


def _estimate_bytes(dimension: int, max_length: int) -> int:
    # what a saw run holds at its peak, the artifact write included, times
    # 1.5 as headroom, plus 256 KiB for the command itself (parser, config,
    # envelope text, file buffer); deliberately rough:
    # - the per-length maps of _canonical_counts: at most one entry per ball
    #   point per length of its parity, 128 bytes each;
    # - the tree walk's block stack: per length t < N at most 2d blocks and
    #   c_t <= 2d (2d-1)^(t-1) walks, 8 bytes a position and an axis count
    #   each, and the block being extended: a copy of its positions and 160
    #   bytes per extension;
    # - write_endpoints' largest slab, the (d-1)-dimensional ball: per point
    #   two texts (64 bytes, 24 a coordinate), 3 coordinate, 8 index arrays;
    # - the class rows and counts blocks, 64 bytes a length for each of at
    #   most comb(N + d, d) classes (the ball points with coordinates >= 0)
    d, n = dimension, max_length
    entries = sum((ball_size(d, r) - ball_size(d, r - 1)) * ((n - r) // 2 + 1)
                  for r in range(n + 1))
    walks = [1] + [min(2 * d * _BLOCK, 2 * d * (2 * d - 1)**(t - 1))
                   for t in range(1, n + 1)]
    blocks = (sum(walks[t] * (8 * t + 9) for t in range(1, n))
              + walks[n] * (8 * n + 168))
    held = (128 * entries + blocks + (192 + 72 * d) * ball_size(d - 1, n)
            + 64 * (n + 1) * math.comb(n + d, d))
    return (1 << 18) + int(1.5 * held)


def _canonical_counts(dimension: int,
                      max_length: int) -> list[dict[int, int]]:
    """Per-length {encoded endpoint: weighted count} over canonical walks.

    A canonical walk that uses k axes adds its orbit size 2^k d!/(d-k)! to its
    endpoint.  A point y is encoded as sum_i (y_i + N) (2N + 1)^i.  The caller
    checks that the codes and each block's sums fit int64.
    """
    d, n_max = dimension, max_length
    w = 2 * n_max + 1
    strides = [w**i for i in range(d)]
    origin = sum(n_max * s for s in strides)
    counts: list[dict[int, int]] = [dict() for _ in range(n_max + 1)]
    counts[0][origin] = 1
    if n_max == 0:
        return counts
    ctype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if np.iinfo(t).max >= w**d - 1)
    # orbit[k]: walks in the orbit of a canonical walk that uses k axes; no
    # walk uses more than N, and 2^d d! itself can pass int64 when d > N
    orbit = np.array([2**k * math.perm(d, k) for k in range(min(d, n_max) + 1)],
                     dtype=np.int64)
    # move 2i steps along +axis i, move 2i + 1 along -axis i; after[k, m]:
    # the axes in use after move m from a walk that uses k, -1 where the move
    # is not canonical (an unused axis, other than axis k forwards)
    deltas = np.array([s * sign for s in strides for sign in (1, -1)], dtype=ctype)
    after = np.array([[k if i < k else k + 1 if i == k and sign > 0 else -1
                       for i in range(d) for sign in (1, -1)]
                      for k in range(d + 1)], dtype=np.int8)
    # (walks, axes in use per walk): one row of positions w_0..w_t per walk
    stack = [(np.full((1, 1), origin, dtype=ctype), np.zeros(1, dtype=np.int8))]
    while stack:
        walks, axes = stack.pop()
        depth = walks.shape[1] - 1
        steps = walks[:, -1, None] + deltas
        axes = after[axes]
        ok = axes >= 0
        # w_{depth+1} can only meet w_j with depth + 1 - j even
        for j in range(depth - 1, -1, -2):
            ok &= steps != walks[:, j, None]
        flat = np.flatnonzero(ok)  # empty when every walk is trapped
        ends, axes = steps.ravel()[flat], axes.ravel()[flat]
        order = np.argsort(ends, kind="stable")  # a radix sort up to int16
        runs = ends[order]
        first = np.flatnonzero(np.diff(runs, prepend=runs[:1] - 1))
        sums = np.add.reduceat(orbit[axes[order]], first)
        cn = counts[depth + 1]
        for q, c in zip(runs[first].tolist(), sums.tolist()):
            cn[q] = cn.get(q, 0) + c
        if depth + 1 < n_max:
            longer = np.empty((len(flat), depth + 2), dtype=ctype)
            longer[:, :-1] = walks[flat // (2 * d)]
            longer[:, -1] = ends
            stack.extend((longer[i:i + _BLOCK], axes[i:i + _BLOCK])
                         for i in range(0, len(flat), _BLOCK))
    return counts


def _class_size(cls: Point) -> int:
    """Points in the class cls: d!/prod_v m_v! orderings, m_v coordinates of
    magnitude v, times a sign for each nonzero coordinate."""
    size = math.factorial(len(cls)) * 2 ** sum(map(bool, cls))
    return size // math.prod(math.factorial(cls.count(v)) for v in set(cls))


def enumerate_walks(dimension: int, max_length: Optional[int] = None, *,
                    memory_budget: int = DEFAULT_MEMORY_BUDGET) -> WalkSeries:
    """Enumerate all SAWs from the origin up to max_length, exactly.

    Raises BudgetExceededError when the estimated footprint exceeds
    memory_budget, and, whatever the budget, when an encoded position or a
    block's sum at one endpoint (_BLOCK walks, 2d moves each, of the largest
    orbit weight) could leave int64.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if max_length is None:
        max_length = default_max_length(dimension)
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    need = _estimate_bytes(dimension, max_length)
    if need > memory_budget:
        raise BudgetExceededError(
            f"endpoint map for d={dimension}, N={max_length} needs about "
            f"{need} bytes, budget is {memory_budget}")
    n_max = max_length
    k = min(dimension, n_max)
    code = (2 * n_max + 1)**dimension - 1
    block_sum = _BLOCK * 2 * dimension * 2**k * math.perm(dimension, k)
    if max(code, block_sum) >= 1 << 63:
        raise BudgetExceededError(
            f"the tree walk for d={dimension}, N={max_length} leaves int64: "
            f"positions encode up to {code}, a block sums up to {block_sum}")
    counts = _canonical_counts(dimension, n_max)
    totals = [sum(cn.values()) for cn in counts]

    # fold the weighted counts into classes of sorted |coordinates|
    w = 2 * n_max + 1
    classes: dict[Point, list[int]] = {}
    for n, cn in enumerate(counts):
        for code, c in cn.items():
            cls = []
            for _ in range(dimension):
                code, r = divmod(code, w)
                cls.append(abs(r - n_max))
            classes.setdefault(tuple(sorted(cls)), [0] * (n_max + 1))[n] += c

    # every point of a class ends the same number of walks
    for cls, row in classes.items():
        size = _class_size(cls)
        if any(c % size for c in row):
            raise ArithmeticError(f"the walks to the class of {cls} do not "
                                  f"split evenly over its {size} points")
        row[:] = [c // size for c in row]
    return WalkSeries(dimension=dimension, max_length=n_max,
                      totals=totals, classes=classes)


# --- series evaluation ---


def _tail_bound(series: WalkSeries, gamma) -> tuple[float, bool]:
    g = float(gamma)
    if g < 0:
        raise ValueError("gamma must be >= 0")
    if g == 0.0:
        return 0.0, True
    r = series.max_length
    if r < 1:
        return math.inf, False  # nothing to extrapolate from
    c_r = series.totals[r]
    b = math.exp(math.log(c_r) / r)
    if g * b >= 1.0:
        return math.inf, False
    t = c_r * g**r  # == (g*b)^r < 1
    head = sum(float(series.totals[s]) * g**s for s in range(r))
    return (t / (1.0 - t)) * head, True


def _partial(counts: Iterable[int], gamma):
    # duck-typed so Fraction gamma gives an exact rational partial sum
    acc = 0 * gamma
    power = gamma**0
    for c in counts:
        if c:
            acc += power * c
        power = power * gamma
    return acc


def correlation(series: WalkSeries, gamma, point) -> CorrelationValue:
    """Truncated C_gamma(point) with a rigorous tail bound.

    The tail bound is the susceptibility tail (valid since #S_n(y) <= c_n);
    converged=False means gamma * c_N^{1/N} >= 1 and the bound is +inf.
    """
    p = tuple(int(v) for v in point)
    if len(p) != series.dimension:
        raise ValueError(f"point {p} does not have dimension {series.dimension}")
    cls = tuple(sorted(abs(v) for v in p))
    partial = _partial(series.classes.get(cls, ()), gamma)
    tail, ok = _tail_bound(series, gamma)
    return CorrelationValue(partial_sum=partial, tail_bound=tail, converged=ok)


@dataclass
class ConnectiveBounds:
    """Rigorous upper bounds on the connective constant mu_d."""

    pairs: list[tuple[int, float]]  # (n, c_n^{1/n})
    trivial: float                  # 2d - 1, from c_n <= 2d (2d-1)^{n-1}

    @property
    def best(self) -> float:
        if not self.pairs:
            raise ValueError("need at least length-1 counts")
        return min(b for _, b in self.pairs)


def connective_upper_bounds(series: WalkSeries) -> ConnectiveBounds:
    """All finite-n bounds c_n^{1/n} >= mu_d (Fekete), plus the trivial 2d-1.

    Monotonicity in n is not guaranteed pointwise, only along divisors; the
    largest available n is usually the sharpest.
    """
    pairs = [(n, math.exp(math.log(series.totals[n]) / n))
             for n in range(1, series.max_length + 1)]
    return ConnectiveBounds(pairs=pairs, trivial=2.0 * series.dimension - 1.0)
