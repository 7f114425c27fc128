"""Fractional moments of Green's functions against their proved ceilings.

For s in (0, 1) the disorder average E|G_z(x, y)|^s is finite even though
E|G| is not, and it obeys two kinds of rigorous bounds:

  * a priori single-site bound: for every complex B,
        (1/2) int_{-1}^{1} |lambda v - B|^{-s} dv <= 1/((1-s) lambda^s),
    saturated exactly at B = 0, while Jensen's inequality (x^{-s/2} is
    convex and E|lambda v - B|^2 = lambda^2/3 + |B|^2) bounds the same
    integral below by (lambda^2/3 + |B|^2)^{-s/2};
  * walk-expansion ceiling at s = s_crit(lambda) = 1 - 1/ln(lambda):
        E|G_z(x, y)|^{s_crit} <= ln(lambda) * C_{gamma(lambda)}(x - y),
    with C_gamma the self-avoiding-walk correlation and
    gamma(lambda) = e ln(lambda)/lambda, valid once
    gamma(lambda) * mu_d < 1.

This module estimates the Monte Carlo left sides (counter-based seeds,
sample k is a pure function of (seed, k); means reduce in index order so
results are bit-identical for any worker count) and evaluates the ceilings
from exact walk counts, keeping the two routes independent.  All sampling
goes through estimate_moments, for one region or a family of them, the
ceiling check's family included.  A region of a family that is another
one minus one site p is not factored: G on it follows from one more column
of the larger region's factor, by the Schur complement
G^{(Lambda \\ {p})}(x, y) = G(x, y) - G(x, p) G(p, y) / G(p, p).

The single-site integral is computed by a fixed Gauss-Legendre rule in
numpy, vectorised over B: after the substitution t = eta sinh u, with
eta = |Im B| (or t = w^(1/(1-s)) for real B inside the support), its
integrand is smooth, so no adaptive quadrature is needed and the
closed-form bound is never used to compute it.  The conditional-bound check
takes its omega(x) average on the nodes of the same rule.  Every solve, of
the Monte Carlo moments and of the conditional-bound check alike, goes
through anderson.resolvent_entries: the one resolvent solver, a banded LU
per sample and factored region.  The Monte Carlo draws its disorder a block
of samples at a time, in one hash over the box.

Every function here returns measurements only: moment estimates, ceiling
values, decay fits, a priori integrals and the sides of the conditional
bound.  The verify checks of cli compare them, and each holds its pass rule
and tolerance.  The ceiling uses the truncated walk series plus its rigorous
tail bound, so it is a true upper bound, only slightly weakened by
truncation.  A decay fit carries, beside the fitted rate, the proved mass
m_eps(lambda) = -ln gamma(lambda) - ln(mu + eps) that the rate is compared
against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import saw
from .anderson import (Point, Region, SingularSystemError, resolvent_entries,
                       sample_disorder)
from .critical import gamma_big, gamma_fn, mass
from .parallel import map_ordered, pieces, resolve_workers
from .rng import site_uniform, substream, unit_open

_DELETION_VARIANTS = 2  # boxes minus one random site in default_region_family
#: byte cap on one disorder block's uint64 hash array in _moment_chunk; the
#: hash's temporaries then stay near 1 MiB
_DISORDER_BYTES = 1 << 18
#: Gauss-Legendre nodes per unit panel of the a priori rule (_apriori_rule)
_APRIORI_NODES = 10
#: the same for the conditional-bound check, where each node costs one
#: factorization
_DRB_NODES = 6

#: formulas behind every ceiling this module attaches (recorded in artifacts)
CEILING_FORMULAS = {
    "saw_theorem": "ln(lambda) * (C_partial(gamma, x - y) + C_tail(gamma)), "
                   "gamma = e*ln(lambda)/lambda, s = 1 - 1/ln(lambda)",
    "apriori": "1 / ((1 - s) * lambda**s)",
}


class CeilingUnavailableError(Exception):
    """Truncated walk series cannot certify the ceiling (tail diverges)."""


class InsufficientDataError(Exception):
    """Too few distinct distances for a decay fit."""


# --- Monte Carlo moment estimation ---


@dataclass
class MomentEstimate:
    """Sample mean of |G_z(x, y)|^s with its standard error.  An estimate on
    a region derived from a larger region's factor (estimate_moments)
    carries its cancellation: the largest |G(x, p) G(p, y) / G(p, p)| /
    |G^{(Lambda \\ {p})}(x, y)| over its samples."""

    s: float
    z: complex
    x: Point
    y: Point
    n_samples: int
    mean: float
    stderr: Optional[float]
    cancellation: Optional[float] = None

    @property
    def distance(self) -> int:
        return sum(abs(a - b) for a, b in zip(self.x, self.y))

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "z": {"re": self.z.real, "im": self.z.imag},
            "x": list(self.x),
            "y": list(self.y),
            "distance": self.distance,
            "n_samples": self.n_samples,
            "mean": self.mean,
            "stderr": self.stderr,
        }


def _disorder_block(region: Region, seed: int, ks: range) -> np.ndarray:
    """The box arrays of samples ks of the run seed, stacked: row i is
    sample_disorder(region, substream(seed, ks[i])).omega, from one hash."""
    seeds = np.array([substream(seed, k) for k in ks], dtype=np.uint64)
    return site_uniform(seeds.reshape((-1,) + (1,) * region.dimension),
                        region.box_coords)


def _entries(region: Region, lam: float, omegas, z: complex,
             pairs: list[tuple[Point, Point]],
             deleted: Sequence[Point]) -> np.ndarray:
    """G_z(x, y) for every sample (rows) and (x, y) of pairs on the region,
    then on region.without(p) for each p of deleted, then the corrections
    G(x, p) G(p, y) / G(p, p) in the same order: columns region-major, pairs
    within.  Every p lies outside the pairs' points.

    One resolvent_entries call factors each sample once.  For p outside
    {x, y} the Schur complement gives
        G^{(region \\ {p})}(x, y) = G(x, y) - G(x, p) G(p, y) / G(p, p),
    and G(p, y) = G(y, p) because H - z is complex symmetric, so each p
    costs one more column of the region's factor.  A G(p, p) of 0 or a
    derived value that is not finite raises SingularSystemError.
    """
    points = list(dict.fromkeys(q for pair in pairs for q in pair))
    wanted = list(pairs) + [(q, p) for p in deleted for q in points + [p]]
    g = resolvent_entries(region, lam, omegas, z, wanted)
    rows, n = len(g), len(pairs)
    # per p: G(q, p) for each point q, then G(p, p)
    gp = g[:, n:].reshape(rows, len(deleted), len(points) + 1)
    if np.any(gp[:, :, -1] == 0.0):
        raise SingularSystemError(
            f"G(p, p) = 0 at z = {z}: a region minus one site is singular")
    xs = [points.index(x) for x, _ in pairs]
    ys = [points.index(y) for _, y in pairs]
    corrections = gp[:, :, xs] * gp[:, :, ys] / gp[:, :, -1:]
    derived = g[:, None, :n] - corrections
    if not np.all(np.isfinite(derived)):
        raise SingularSystemError(
            f"a Green's function on a region minus one site is not finite "
            f"at z = {z}")
    return np.hstack([g[:, :n], derived.reshape(rows, -1),
                      corrections.reshape(rows, -1)])


def _moment_chunk(task) -> np.ndarray:
    """|.|^s of the _entries of samples k0..k1-1 of the run seed.  The task
    is (region, lam, s, z, pairs, seed, k0, k1), followed by the deleted
    sites p whose regions region.without(p) derive from region's factor."""
    region, lam, s, z, pairs, seed, k0, k1, *deleted = task
    step = max(1, _DISORDER_BYTES // region.box_coords[0].nbytes)
    vals = []
    for k in range(k0, k1, step):
        omegas = _disorder_block(region, seed, range(k, min(k + step, k1)))
        vals.append(_entries(region, lam, omegas, z, pairs, deleted))
    return np.abs(np.concatenate(vals)) ** s


def _deleted_site(base: Region, region: Region) -> Optional[Point]:
    """p when region is base.without(p), else None."""
    extra = region.deleted - base.deleted
    if (len(extra) == 1 and base.deleted < region.deleted
            and (base.dimension, base.L) == (region.dimension, region.L)):
        return next(iter(extra))
    return None


def estimate_moments(regions: Region | Sequence[Region], lam: float, s: float,
                     z: complex, pairs: Sequence[tuple[Point, Point]],
                     n_samples: int, seed: int,
                     workers: Optional[int] = None) -> list[MomentEstimate]:
    """Monte Carlo E|G_z(x, y)|^s for several pairs from shared solves, in
    one Region or each of a sequence of them.

    Returns one estimate per (region, pair), region-major.  Every region uses
    the same samples, from one map_ordered call (one worker pool) over all
    their chunks, or at one worker from a loop, which nests no section in
    verify's pooled moment task (perfbench's tracer cannot): sample k uses
    the disorder seed substream(seed, k), and per-sample values are stacked
    in k order before reduction, so mean and stderr are bit-identical for
    any worker count.  A region that is base.without(p) for an earlier
    region base of the call is not factored: its values derive from base's
    factor (_entries), and its estimates carry the largest cancellation of
    that derivation.  Every other region is factored once per sample.
    """
    if isinstance(regions, Region):
        regions = [regions]
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not pairs:
        raise ValueError("need at least one (x, y) pair")
    pairs = [(tuple(x), tuple(y)) for x, y in pairs]
    for region in regions:
        for x, y in pairs:
            if x not in region.index or y not in region.index:
                raise ValueError(f"pair ({x}, {y}) not inside the region")
    # factored region -> the (region, deleted site) pairs derived from it
    plan: dict[int, list[tuple[int, Point]]] = {}
    for i, region in enumerate(regions):
        for j in plan:
            p = _deleted_site(regions[j], region)
            if p is not None:
                plan[j].append((i, p))
                break
        else:
            plan[i] = []
    workers = resolve_workers(workers)
    spans = pieces(n_samples, workers)
    tasks = [(regions[j], lam, s, complex(z), pairs, seed, ks.start, ks.stop,
              *(p for _, p in derived))
             for j, derived in plan.items() for ks in spans]
    chunks = (map_ordered(_moment_chunk, tasks, workers) if workers > 1
              else list(map(_moment_chunk, tasks)))
    n = len(pairs)
    values, cancellation = {}, {}
    for t, (j, derived) in enumerate(plan.items()):
        vals = np.vstack(chunks[t * len(spans):(t + 1) * len(spans)])
        values[j] = vals[:, :n]
        for a, (i, _) in enumerate(derived):
            values[i] = vals[:, (1 + a) * n:(2 + a) * n]
            corr = vals[:, (1 + len(derived) + a) * n:(2 + len(derived) + a) * n]
            # (|c|^s / |G|^s)^(1/s) = |c| / |G|
            cancellation[i] = np.max(corr / values[i], axis=0) ** (1.0 / s)
    out = []
    for i in range(len(regions)):
        ratio = cancellation.get(i)
        for j, (x, y) in enumerate(pairs):
            col = values[i][:, j]
            mean = float(col.mean())
            stderr = (float(col.std(ddof=1) / math.sqrt(n_samples))
                      if n_samples > 1 else None)
            out.append(MomentEstimate(
                s=s, z=complex(z), x=x, y=y, n_samples=n_samples, mean=mean,
                stderr=stderr,
                cancellation=None if ratio is None else float(ratio[j])))
    return out


def estimates_to_csv(estimates: Sequence[MomentEstimate],
                     ceilings: Sequence[Optional[float]]) -> str:
    """One row per estimate, with its ceiling (empty when None) beside it."""
    lines = ["distance,mean,stderr,ceiling"]
    for e, ceiling in zip(estimates, ceilings):
        stderr = "" if e.stderr is None else repr(e.stderr)
        ceiling = "" if ceiling is None else repr(ceiling)
        lines.append(f"{e.distance},{e.mean!r},{stderr},{ceiling}")
    return "\n".join(lines) + "\n"


# --- a priori single-site bound ---


def _apriori_rule(t0: np.ndarray, width: np.ndarray, eta: np.ndarray,
                  s: float, n_nodes: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre nodes for int_{t0}^{t0 + width} (t^2 + eta^2)^{-s/2} dt,
    one integral per entry of the arrays (t0 >= 0, width > 0, eta >= 0).

    Returns, per node, the index of its integral, t, log r with
    r = |t + i eta| at the node, the log of the substitution's Jacobian
    dt/du, and the weight in u; the integrand in u is exp(log_jac - s log_r),
    and int f(t) dt is the sum of w exp(log_jac) f(t).  Where eta = t0 = 0
    the substitution is t = w^(1/(1-s)), whose Jacobian cancels the power
    law, so one panel in w is exact.  Elsewhere it is
    t = eta sinh(asinh(t0/eta) + u) (t = t0 e^u when eta = 0), for which
    dt/du = r: the integrand r^(1-s) is analytic within pi/2 of the real u
    axis and takes n_nodes nodes on each panel of width <= 1.  log r is
    formed from t0 and eta directly, so a tiny eta neither overflows nor
    loses the segment's offset.
    """
    nodes, weights = leggauss(n_nodes)
    rho0 = np.hypot(t0, eta)
    c = t0 + rho0  # eta e^{asinh(t0/eta)}
    power = c == 0.0
    c = np.where(power, 1.0, c)
    t1 = t0 + width
    rho1 = np.hypot(t1, eta)
    # asinh(t1/eta) - asinh(t0/eta) = log((t1 + rho1)/c); through log1p while
    # the ratio is below 2 (t0 >> width), where the quotient would lose digits
    gap = width * (1.0 + (t0 + t1) / (rho0 + rho1))  # (t1 + rho1) - c
    span = np.where(gap < c, np.log1p(gap / np.maximum(gap, c)),
                    np.log(t1 + rho1) - np.log(c))
    span = np.where(power, width ** (1.0 - s), span)
    n_panels = np.where(power, 1, np.maximum(1, np.ceil(span))).astype(np.intp)
    seg = np.repeat(np.arange(len(t0)), n_panels)
    panel = np.arange(len(seg)) - np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    h = (span / n_panels)[seg, None]
    u = (panel[:, None] + 0.5 * (nodes + 1.0)) * h
    t = np.empty_like(u)
    log_r = np.empty_like(u)
    log_jac = np.empty_like(u)
    p = power[seg]
    log_r[p] = np.log(u[p]) / (1.0 - s)
    log_jac[p] = s * log_r[p] - math.log(1.0 - s)
    t[p] = np.exp(log_r[p])
    cs, es, us = c[seg][~p, None], eta[seg][~p, None], u[~p]
    # r = (c e^u + (eta^2/c) e^-u) / 2
    log_r[~p] = us - math.log(2.0) + np.log(cs + es * (es / cs) * np.exp(-2.0 * us))
    log_jac[~p] = log_r[~p]
    t[~p] = 0.5 * (cs * np.exp(us) - es * (es / cs) * np.exp(-us))
    return (np.repeat(seg, len(nodes)), t.ravel(), log_r.ravel(),
            log_jac.ravel(), (0.5 * h * weights).ravel())


def _pole_pieces(lam: float, bs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The t = lambda v - Re(b) interval [-lambda - Re b, lambda - Re b] of
    each b of the 1-D array bs, as pieces |t| in [t0, t0 + width]: split at
    t = 0 into two pieces from 0 when it holds 0, else one piece as it
    stands, so |b| >> lambda loses no digits to a difference.

    Returns, per piece of nonzero width, the index of its b, t0, width,
    eta = |Im b| and the sign of t on it.
    """
    a, eta = np.abs(bs.real), np.abs(bs.imag)
    near = a <= lam  # the interval holds t = 0; it is symmetric in Re b
    owner = np.tile(np.arange(a.size), 2)
    t0 = np.concatenate([np.where(near, 0.0, a - lam), np.zeros(a.size)])
    width = np.concatenate([np.where(near, lam - a, 2.0 * lam),
                            np.where(near, lam + a, 0.0)])
    sign = (np.concatenate([np.where(near, 1.0, -1.0), -np.ones(a.size)])
            * np.tile(np.where(bs.real < 0.0, -1.0, 1.0), 2))
    keep = width > 0.0
    return (owner[keep], t0[keep], width[keep], np.tile(eta, 2)[keep],
            sign[keep])


def apriori_integral(lam: float, s: float, b):
    """(1/2) int_{-1}^{1} |lambda v - b|^{-s} dv for a complex b or a 1-D
    array of them (a float, or an array of floats, back).

    With t = lambda v - Re(b) and eta = |Im b| the integral is
    (1/(2 lambda)) int (t^2 + eta^2)^{-s/2} dt over the pieces of
    _pole_pieces.  Each piece goes through the substitutions of
    _apriori_rule, which keep the numerical route independent of the
    closed-form bound: the bound is never evaluated, and at b = 0 it is met
    only because the power-law rule is exact.  Near the real axis
    (0 < |Im b| << 1) the rule resolves the width-eta peak in log(1/eta)
    unit panels.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    bs = np.asarray(b, dtype=complex)
    owner, t0, width, eta, _ = _pole_pieces(lam, bs.ravel())
    seg, _, log_r, log_jac, w = _apriori_rule(t0, width, eta, s, _APRIORI_NODES)
    vals = np.bincount(owner[seg], w * np.exp(log_jac - s * log_r),
                       minlength=bs.size) / (2.0 * lam)
    return float(vals[0]) if bs.ndim == 0 else vals.reshape(bs.shape)


def random_b_disc(dimension: int, lam: float, count: int, seed: int) -> list[complex]:
    """Deterministic quasi-random B grid in the disc |B| <= 2d + 2 lambda."""
    radius = 2.0 * dimension + 2.0 * lam
    out = []
    for k in range(count):
        r = radius * math.sqrt(unit_open(seed, (k, 0)))
        phi = 2.0 * math.pi * unit_open(seed, (k, 1))
        out.append(complex(r * math.cos(phi), r * math.sin(phi)))
    return out


# --- walk-expansion ceiling ---


def ceiling_value(series: saw.WalkSeries, lam: float, diff: Point) -> float:
    """ln(lambda) * (C_gamma partial sum + tail bound) at gamma(lambda).

    Raises CeilingUnavailableError when gamma(lambda) * c_N^{1/N} >= 1, in
    which case the truncated series certifies nothing.
    """
    gamma = gamma_fn(lam)
    corr = saw.correlation(series, gamma, diff)
    if not corr.converged:
        raise CeilingUnavailableError(
            f"tail bound diverges at gamma = {gamma:.6g} with N = "
            f"{series.max_length} (criterion gamma * c_N^(1/N) < 1 not met)")
    return math.log(lam) * corr.upper_bound


def default_region_family(dimension: int, L: int, keep: Sequence[Point] = (),
                          seed: int = 0) -> list[Region]:
    """Region family realizing the sup over volumes in the ceiling check:
    the full box, boxes minus one random site outside keep (when the box
    has such a site), and a half box.  The boxes minus one site are
    full.without(p), so estimate_moments derives them from the full box's
    factor; the full box and the half box are factored."""
    full = Region(dimension=dimension, L=L)
    keep = {tuple(p) for p in keep}
    family = [full]
    candidates = [p for p in full.sites if p not in keep]
    for v in range(_DELETION_VARIANTS if candidates else 0):
        pick = candidates[int(unit_open(seed, (v,)) * len(candidates))]
        family.append(full.without(pick))
    half_deleted = [p for p in full.sites if p[0] < 0 and p not in keep]
    family.append(Region(dimension=dimension, L=L,
                         deleted=frozenset(map(tuple, half_deleted))))
    return family


# --- decay-rate fit ---


@dataclass
class DecayFit:
    """Weighted least-squares fit ln(mean) = ln(A) - rate * distance."""

    distances: list[int]
    log_means: list[float]
    fitted_rate: float
    rate_stderr: float
    fitted_prefactor: float
    reference_rate: float
    reference_positive: bool
    residuals: list[float]
    chi2: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def fit_decay(estimates: Sequence[MomentEstimate], lam: float, mu_upper: float,
              eps: float) -> DecayFit:
    """Fit the measured decay rate and compare with m_eps(lambda).

    Weights are 1/sigma of ln(mean) (delta method sigma = stderr/mean) when
    standard errors are available, unweighted otherwise.  A repeated distance
    raises ValueError: its estimates would enter the fit as independent
    points.
    """
    dists = [e.distance for e in estimates]
    repeated = sorted({d for d in dists if dists.count(d) > 1})
    if repeated:
        raise ValueError(f"repeated distance(s) {repeated} in the decay fit")
    if len(dists) < 3:
        raise InsufficientDataError("need at least 3 distinct distances")
    dists = np.array(dists, dtype=float)
    means = np.array([e.mean for e in estimates], dtype=float)
    if np.any(means <= 0):
        raise ValueError("all means must be positive to fit a log decay")
    logm = np.log(means)
    if all(e.stderr is not None and e.stderr > 0 for e in estimates):
        # known per-point sigma: keep the formal covariance
        w = means / np.array([e.stderr for e in estimates])
        cov_mode = "unscaled"
    else:
        # no error bars: let the residual scatter set the scale
        w = np.ones_like(dists)
        cov_mode = True
    coeffs, cov = np.polyfit(dists, logm, 1, w=w, cov=cov_mode)
    slope, intercept = coeffs
    resid = logm - (slope * dists + intercept)
    m = mass(lam, mu_upper, eps)
    return DecayFit(
        distances=[int(d) for d in dists],
        log_means=[float(v) for v in logm],
        fitted_rate=float(-slope),
        rate_stderr=float(math.sqrt(max(cov[0, 0], 0.0))),
        fitted_prefactor=float(math.exp(intercept)),
        reference_rate=m.value,
        reference_positive=m.positive,
        residuals=[float(r) for r in resid],
        chi2=float(np.sum((resid * w) ** 2)),
    )


# --- conditional single-site bound under fixed environments ---


def check_drb_conditional(region: Region, lam: float, s: float, z: complex,
                          x, y, envs: range, seed: int = 0
                          ) -> list[tuple[float, float, float]]:
    """The conditional bound under fixed environments, measured by quadrature.

    Environment j, for each j in the range envs, freezes every omega but
    omega(x) at the disorder of substream(seed, j), so the environments of
    one seed can be split into ranges and measured apart.  In each, the left
    side, the omega(x) average of |G(x, y)|^s, is computed on the nodes and
    weights of the a priori rule (_apriori_rule, _DRB_NODES per panel) for
    the effective pole B = lambda omega(x) - 1/G(x, x), which is
    omega(x)-independent: |G(x, y)|^s is |A|^s |lambda omega(x) - B|^{-s},
    so the node count follows from B, one factorization per node.  The
    right side, Gamma(s) sum_{x' ~ x} |G^{(Lambda \\ {x})}(x', y)|^s, comes
    from a separate solve on the depleted region.  By the depletion and
    Schur identities the left side also equals
    |sum_{x' ~ x} G^{(Lambda \\ {x})}(x', y)|^s * apriori_integral(lambda, s, B),
    formed from those same two solves.

    Returns (left side, right side, left side by the identities) per
    environment of envs, in order (none for an empty range); the bound holds
    where left <= right.
    """
    x, y = tuple(x), tuple(y)
    if x == y:
        raise ValueError("the conditional bound compares x != y")
    if x not in region.index or y not in region.index:
        raise ValueError("x and y must lie in the region")
    factor = gamma_big(s, lam)
    depleted = region.without(x)
    nbrs = region.neighbors_in(x)
    out = []
    for j in envs:
        sample = sample_disorder(region, substream(seed, j))
        rhs = by_identity = 0.0
        if nbrs:
            g = resolvent_entries(depleted, lam, [sample.omega], z,
                                  [(q, y) for q in nbrs])[0]
            rhs = factor * float(np.sum(np.abs(g) ** s))
            by_identity = abs(complex(np.sum(g))) ** s
        gxx = complex(resolvent_entries(region, lam, [sample.omega], z, [(x, x)])[0, 0])
        b = lam * sample.value(x) - 1.0 / gxx
        by_identity *= apriori_integral(lam, s, b)
        _, t0, width, eta, sign = _pole_pieces(lam, np.array([b]))
        seg, t, _, log_jac, w = _apriori_rule(t0, width, eta, s, _DRB_NODES)
        # with_site_value accepts omega(x) in [-1, 1] only
        vs = np.clip((b.real + sign[seg] * t) / lam, -1.0, 1.0)
        omegas = (sample.with_site_value(x, v).omega for v in vs)
        g = resolvent_entries(region, lam, omegas, z, [(x, y)])[:, 0]
        lhs = float(np.dot(w * np.exp(log_jac), np.abs(g) ** s)) / (2.0 * lam)
        out.append((lhs, rhs, by_identity))
    return out
