"""Independent reference implementations used to pin expected test values.

Everything here is deliberately simple and slow: exhaustive generate-and-test
walk counting, plain recursion without symmetry tricks (also behind the
saw artifact's per-point series), dense matrix inversion, decimal bisection
for the thresholds, and QUADPACK for the single-site integral and the
two- and three-site moments.  None of it
shares code paths with the package under test; the frozen constants in the test modules
were produced by running this file directly (python tests/oracles.py).
"""

from __future__ import annotations

import itertools
import math
from decimal import ROUND_CEILING, Decimal, localcontext
from typing import Dict, Tuple

import numpy as np
from scipy.integrate import quad

Point = Tuple[int, ...]


def _steps(dimension: int) -> list[Point]:
    out = []
    for axis in range(dimension):
        for sign in (1, -1):
            e = [0] * dimension
            e[axis] = sign
            out.append(tuple(e))
    return out


def brute_force_totals(dimension: int, max_length: int) -> list[int]:
    """Count self-avoiding walks by filtering all (2d)^n step sequences."""
    steps = _steps(dimension)
    totals = [1]
    for n in range(1, max_length + 1):
        count = 0
        for seq in itertools.product(steps, repeat=n):
            pos = (0,) * dimension
            seen = {pos}
            ok = True
            for st in seq:
                pos = tuple(a + b for a, b in zip(pos, st))
                if pos in seen:
                    ok = False
                    break
                seen.add(pos)
            if ok:
                count += 1
        totals.append(count)
    return totals


def recursive_endpoint_counts(dimension: int,
                              max_length: int) -> list[Dict[Point, int]]:
    """Per-length endpoint multiplicities by straight depth-first recursion.

    No first-step reduction and no symmetry folding; every walk is visited.
    """
    steps = _steps(dimension)
    origin = (0,) * dimension
    layers: list[Dict[Point, int]] = [dict() for _ in range(max_length + 1)]
    layers[0][origin] = 1
    occupied = {origin}

    def rec(pos: Point, depth: int) -> None:
        if depth == max_length:
            return
        for st in steps:
            nxt = tuple(a + b for a, b in zip(pos, st))
            if nxt in occupied:
                continue
            layers[depth + 1][nxt] = layers[depth + 1].get(nxt, 0) + 1
            occupied.add(nxt)
            rec(nxt, depth + 1)
            occupied.remove(nxt)

    rec(origin, 0)
    return layers


def recursive_totals(dimension: int, max_length: int) -> list[int]:
    layers = recursive_endpoint_counts(dimension, max_length)
    return [sum(layer.values()) for layer in layers]


def saw_series_document(dimension: int, max_length: int) -> dict:
    """The series of the saw artifact as one document, point by point, from
    recursive_endpoint_counts: one {"point", "counts"} entry per point that a
    walk ends at, in sorted point order, counts as decimal strings."""
    layers = recursive_endpoint_counts(dimension, max_length)
    points = sorted(set().union(*layers))
    return {
        "dimension": dimension,
        "max_length": max_length,
        "totals": [str(sum(layer.values())) for layer in layers],
        "endpoints": [{"point": list(p),
                       "counts": [str(layer.get(p, 0)) for layer in layers]}
                      for p in points],
    }


def correlation_partial(dimension: int, max_length: int, gamma: float,
                        point: Point) -> float:
    """Partial sum of the endpoint-weighted generating function at `point`."""
    layers = recursive_endpoint_counts(dimension, max_length)
    return sum(layer.get(tuple(point), 0) * gamma ** n
               for n, layer in enumerate(layers))


def susceptibility_partial(dimension: int, max_length: int,
                           gamma: float) -> float:
    totals = recursive_totals(dimension, max_length)
    return sum(c * gamma ** n for n, c in enumerate(totals))


def dense_resolvent(dimension: int, L: int, deleted, omega: Dict[Point, float],
                    lam: float, z: complex) -> tuple[Dict[Point, int], np.ndarray]:
    """The whole resolvent via dense inversion of the full matrix.

    Builds the operator from scratch: lexicographic site order over the box
    minus `deleted`, unit hopping between l1-distance-1 pairs, diagonal
    lam * omega, then numpy.linalg.inv.  Returns the site index and G.
    """
    deleted = {tuple(p) for p in deleted}
    sites = [p for p in itertools.product(range(-L, L + 1), repeat=dimension)
             if p not in deleted]
    index = {p: i for i, p in enumerate(sites)}
    n = len(sites)
    a = np.zeros((n, n), dtype=complex)
    for p, i in index.items():
        a[i, i] = lam * omega[p] - z
        for q, j in index.items():
            if sum(abs(c - d) for c, d in zip(p, q)) == 1:
                a[i, j] += 1.0
    return index, np.linalg.inv(a)


def dense_green(dimension: int, L: int, deleted, omega: Dict[Point, float],
                lam: float, z: complex, x: Point, y: Point) -> complex:
    """One Green's function entry of dense_resolvent."""
    index, g = dense_resolvent(dimension, L, deleted, omega, lam, z)
    return complex(g[index[tuple(x)], index[tuple(y)]])


# published connective-constant upper bounds: the input column of the
# frozen threshold table
MU_UPPER = {2: 2.68, 3: 4.72, 4: 6.81, 5: 8.86, 6: 10.89}

_DIGITS = 50


def threshold_root(a: Decimal) -> Decimal:
    """Larger root of lambda = a ln(lambda), a > e, by plain bisection.

    The root is the only one in [a, a^3]: lambda - a ln(lambda) is negative
    at a and positive at a^3.  Run inside a context of `_DIGITS` digits.
    """
    lo, hi = a, a ** 3
    tol = hi.scaleb(-(_DIGITS - 5))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid - a * mid.ln() < 0:
            lo = mid
        else:
            hi = mid
    return hi


def threshold_rows(mu_upper: Dict[int, float]) -> Dict[str, Dict[int, float]]:
    """lambda_and (a = mu e) and lambda_ag (a = 4 d e) per dimension, rounded
    up to one decimal place.  Each float mu enters at its exact binary value."""
    rows: Dict[str, Dict[int, float]] = {"lambda_and": {}, "lambda_ag": {}}
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        e = Decimal(1).exp()
        for d, mu in mu_upper.items():
            for name, a in (("lambda_and", Decimal(mu) * e),
                            ("lambda_ag", 4 * d * e)):
                root = threshold_root(a)
                rows[name][d] = float(root.quantize(Decimal("0.1"),
                                                    rounding=ROUND_CEILING))
    return rows


def quad_apriori(lam: float, s: float, b: complex) -> float:
    """(1/2) int_{-1}^{1} |lambda v - b|^{-s} dv by adaptive quadrature.

    The integrand peaks (for Im b = 0: diverges integrably) at v0 = Re(b)/lambda;
    the integral is split there, and for real b on the interval the algebraic
    singularity is handed to the quadrature as a weight (QUADPACK).  For
    0 < |Im b| < 1e-4 it silently returns about the Im b = 0 value.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    tol = 1e-10  # absolute quadrature tolerance
    b = complex(b)
    v0 = b.real / lam
    if b.imag == 0.0 and -1.0 < v0 < 1.0:
        # |lambda v - b|^{-s} = lambda^{-s} |v - v0|^{-s}: algebraic weight
        c = 0.5 * lam**-s
        left, _ = quad(lambda v: c, -1.0, v0, weight="alg", wvar=(0.0, -s),
                       epsabs=tol, limit=200)
        right, _ = quad(lambda v: c, v0, 1.0, weight="alg", wvar=(-s, 0.0),
                        epsabs=tol, limit=200)
        return left + right

    def f(v: float) -> float:
        return 0.5 * ((lam * v - b.real) ** 2 + b.imag**2) ** (-0.5 * s)

    points = [v0] if -1.0 < v0 < 1.0 else None
    val, _ = quad(f, -1.0, 1.0, points=points, epsabs=tol, limit=200)
    return val


def two_site_moment(lam: float, s: float, z: complex) -> float:
    """E|G_z(x, y)|^s on the two sites x = (0,), y = (-1,), exactly.

    With a = lambda omega(x) - z and b = lambda omega(y) - z, the 2x2
    resolvent gives |G(x, y)| = |b|^{-1} |a - 1/b|^{-1}, so the omega(x)
    average is quad_apriori at B = z + 1/b, and what is left is one bounded
    integral over omega(y) = w, peaked at w = Re(z)/lambda:
    (1/2) int_{-1}^{1} |lambda w - z|^{-s} quad_apriori(lambda, s, z + 1/(lambda w - z)) dw.
    """
    z = complex(z)

    def f(w: float) -> float:
        b = lam * w - z
        return 0.5 * abs(b) ** -s * quad_apriori(lam, s, z + 1.0 / b)

    w0 = z.real / lam
    points = [w0] if -1.0 < w0 < 1.0 else None
    val, _ = quad(f, -1.0, 1.0, points=points, epsabs=1e-12, limit=200)
    return val


def three_site_moment(lam: float, s: float, z: complex) -> float:
    """E|G_z(x, y)|^s on the chain (-1,), (0,), (1,) with x = (1,), y = (0,).

    With a = lambda omega(-1) - z and g = 1/(lambda omega(y) - z - 1/a), the
    resolvent of the pair (-1,), (0,) at y, the Schur complement at x gives
    |G(x, y)| = |g| |lambda omega(x) - z - g|^{-1}, so the omega(x) average
    is quad_apriori at B = z + g, and the value is
    (1/4) int int |g|^s quad_apriori(lambda, s, z + g) d omega(-1) d omega(y).
    The omega(y) integrand peaks where Re(g) diverges, at
    lambda omega(y) = Re(z + 1/a); that point is handed to the quadrature.
    Slow (minutes): the test modules hold its value frozen.
    """
    z = complex(z)

    def over_y(wa: float) -> float:
        c = z + 1.0 / (lam * wa - z)

        def f(wy: float) -> float:
            g = 1.0 / (lam * wy - c)
            return 0.5 * abs(g) ** s * quad_apriori(lam, s, z + g)

        w0 = c.real / lam
        points = [w0] if -1.0 < w0 < 1.0 else None
        val, _ = quad(f, -1.0, 1.0, points=points, epsabs=1e-8, limit=200)
        return 0.5 * val

    w0 = z.real / lam
    points = [w0] if -1.0 < w0 < 1.0 else None
    val, _ = quad(over_y, -1.0, 1.0, points=points, epsabs=1e-8, limit=200)
    return val


def _freeze_report() -> None:
    print("d=2 brute-force totals, n <= 8:")
    print(" ", brute_force_totals(2, 8))
    print("d=3 brute-force totals, n <= 6:")
    print(" ", brute_force_totals(3, 6))
    print("d=2 recursive totals, n <= 12:")
    print(" ", recursive_totals(2, 12))
    print("d=3 recursive totals, n <= 8:")
    print(" ", recursive_totals(3, 8))
    layers = recursive_endpoint_counts(2, 12)
    print("d=2 endpoint counts at (1,0), n = 1..12:")
    print(" ", [layers[n].get((1, 0), 0) for n in range(1, 13)])
    c = correlation_partial(2, 12, 0.2, (1, 0))
    print(f"d=2 correlation partial, gamma=0.2, point (1,0), N=12: {c!r}")
    chi = susceptibility_partial(2, 10, 0.1)
    print(f"d=2 susceptibility partial, gamma=0.1, N=10: {chi!r}")
    print(f"threshold table at mu = {MU_UPPER}:")
    for name, row in threshold_rows(MU_UPPER).items():
        print(f"  {name}: {row}")
    s_crit_30 = 1.0 - 1.0 / math.log(30.0)
    m3 = three_site_moment(30.0, s_crit_30, 0.01j)
    print(f"3-site chain moment, lambda=30, s_crit, z=0.01i: {m3!r}")


if __name__ == "__main__":
    _freeze_report()
