"""Fractional-moment estimation, the integral bounds, and decay fits."""

import itertools
import math
import re

import numpy as np
import pytest

from andloc import anderson, critical, moments, parallel, saw
from andloc.rng import substream

import oracles

Z = 0.01j

# frozen 100k-sample reference for the regression band test: d=2, L=8,
# lambda=30, s = s_crit(30), z = 0.01i, x = (3,0), y = (0,0), seed 0
LONGRUN_MEAN = 0.005092711695368505
LONGRUN_STDERR = 0.00010642558706404473
# oracles.three_site_moment(30, s_crit(30), 0.01i): x = (1,), y = (0,) on
# make_region(1, 1), by QUADPACK (about 3 minutes, so frozen here)
THREE_SITE_MOMENT = 0.07365437631569337


def small_region(L=4):
    return anderson.Region(dimension=2, L=L)


# --- estimator mechanics ---


def test_estimate_input_validation():
    region = small_region()
    with pytest.raises(ValueError):
        moments.estimate_moments(region, 30.0, 1.2, Z, [((1, 0), (0, 0))], 4, 0)
    with pytest.raises(ValueError):
        moments.estimate_moments(region, 30.0, 0.5, Z, [((9, 9), (0, 0))], 4, 0)
    with pytest.raises(ValueError):
        moments.estimate_moments(region, 30.0, 0.5, Z, [((1, 0), (0, 0))], 0, 0)


def test_estimate_deterministic_across_workers():
    region = small_region()
    kw = dict(n_samples=30, seed=5)
    a = moments.estimate_moments(region, 30.0, 0.7, Z, [((2, 0), (0, 0))],
                                 workers=1, **kw)[0]
    b = moments.estimate_moments(region, 30.0, 0.7, Z, [((2, 0), (0, 0))],
                                 workers=3, **kw)[0]
    assert (a.mean, a.stderr) == (b.mean, b.stderr)


def test_estimates_share_samples_across_pairs():
    # pairs with the same y reuse one solve per sample, and results match
    # the one-pair path exactly
    region = small_region()
    pairs = [((1, 0), (0, 0)), ((2, 0), (0, 0))]
    both = moments.estimate_moments(region, 30.0, 0.6, Z, pairs, 25, seed=3)
    single = moments.estimate_moments(region, 30.0, 0.6, Z, [((2, 0), (0, 0))],
                                      n_samples=25, seed=3)[0]
    assert both[1].mean == single.mean
    assert both[1].stderr == single.stderr


def test_estimate_regression_band():
    region = anderson.Region(dimension=2, L=8)
    s = critical.s_crit(30.0)
    est = moments.estimate_moments(region, 30.0, s, Z, [((3, 0), (0, 0))],
                                   n_samples=2000, seed=1)[0]
    band = 3.0 * est.stderr + 3.0 * LONGRUN_STDERR
    assert abs(est.mean - LONGRUN_MEAN) <= band


def test_single_site_heavy_tail_mean():
    # one site: E|G|^{1/2} = (1/2) int |lam v - z|^{-1/2} dv -> 2/sqrt(lam)
    lam = 25.0
    region = anderson.Region(dimension=1, L=0)
    est = moments.estimate_moments(region, lam, 0.5, 1e-8j, [((0,), (0,))],
                                   n_samples=20_000, seed=2)[0]
    expect = 2.0 / math.sqrt(lam)
    assert abs(est.mean - expect) <= 4.0 * est.stderr + 1e-3


@pytest.mark.parametrize("lam, s, want, seed", [
    (30.0, critical.s_crit(30.0), 0.0739305, 1),  # z = -0.64
    (5.0, 0.379, 0.686022, 2),                    # z = +0.81
])
def test_two_site_mean_meets_exact_value(lam, s, want, seed):
    # x = (0,), y = (-1,) with (1,) deleted: oracles.two_site_moment
    # integrates both disorder values by QUADPACK.  The seeds are pinned and
    # must never be re-seeded to pass: at 500 samples and lambda = 30, 4.0%
    # of seeds miss |z| <= 3 (0.27% for a Gaussian), every miss low, since a
    # run without the rare resonant sample underestimates mean and stderr.
    exact = oracles.two_site_moment(lam, s, Z)
    assert exact == pytest.approx(want, abs=5e-7)
    region = anderson.make_region(1, 1, [(1,)])
    est = moments.estimate_moments(region, lam, s, Z, [((0,), (-1,))],
                                   n_samples=20_000, seed=seed)[0]
    assert abs(est.mean - exact) <= 3.0 * est.stderr


def test_three_site_mean_meets_exact_value():
    # the chain (-1,), (0,), (1,) centred at y.  The seed is pinned and must
    # never be re-seeded to pass: 1 of seeds 0..99 (seed 43) misses 3 stderr
    # at 20000 samples, and 5.0% of seeds 0..1999 do at 500, every miss low.
    region = anderson.make_region(1, 1)
    est = moments.estimate_moments(region, 30.0, critical.s_crit(30.0), Z,
                                   [((1,), (0,))], n_samples=20_000, seed=0)[0]
    assert abs(est.mean - THREE_SITE_MOMENT) <= 3.0 * est.stderr


def test_estimate_csv_layout():
    region = small_region()
    ests = moments.estimate_moments(region, 30.0, 0.5, Z,
                                    [((1, 0), (0, 0)), ((2, 0), (0, 0))],
                                    10, seed=0)
    text = moments.estimates_to_csv(ests, [None, 2.5])
    lines = text.strip().split("\n")
    assert lines[0] == "distance,mean,stderr,ceiling"
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert first[0] == "1"
    assert first[3] == ""  # no ceiling attached
    assert second[3] == "2.5"


# --- the banded solver against a dense inverse ---

SOLVER_LAM = 30.0
SOLVER_SEED = 11
SOLVER_SAMPLES = 12
_BOX = anderson.Region(dimension=2, L=4)
_SITES, _HALF = moments.default_region_family(2, 4, keep=[(0, 0), (4, 0)],
                                              seed=2)
#: the edge rows p[1] = 3 and half of p[1] = -3 deleted: a narrower band
_NARROW = anderson.make_region(2, 3, [(a, 3) for a in range(-3, 4)]
                               + [(a, -3) for a in range(-3, 1)])
SOLVER_REGIONS = {
    "box": _BOX,
    "box-minus-site": _BOX.without(_SITES[0]),
    "half-box": _HALF,
    "d1-L0": anderson.Region(dimension=1, L=0),
    "d1-L6": anderson.Region(dimension=1, L=6),
    "d3-L2": anderson.Region(dimension=3, L=2),
    "d4-L1": anderson.Region(dimension=4, L=1),
    "d3-L1-minus-corner": anderson.make_region(3, 1, [(-1, -1, -1)]),
    "d2-L3-narrow-band": _NARROW,
}


def test_deletions_narrow_the_band():
    assert _NARROW.band[0] < anderson.Region(dimension=2, L=3).band[0]


def _solver_pairs(region):
    """x = k e_1 for k = 0..min(L, 3) against y = 0 and, when L > 0, y = L e_1:
    two right-hand sides far apart in the site order."""
    d, L = region.dimension, region.L
    axis = [(k,) + (0,) * (d - 1) for k in range(min(L, 3) + 1)]
    ys = [(0,) * d] + ([(L,) + (0,) * (d - 1)] if L else [])
    return [(x, y) for y in ys for x in axis]


def _chunk_task(region, k0=0, k1=SOLVER_SAMPLES):
    return (region, SOLVER_LAM, critical.s_crit(SOLVER_LAM), Z,
            _solver_pairs(region), SOLVER_SEED, k0, k1)


@pytest.mark.parametrize("name", SOLVER_REGIONS)
def test_banded_matches_dense_inverse(name):
    # the banded solver against a dense inverse built from scratch
    # (tests/oracles.py)
    region = SOLVER_REGIONS[name]
    pairs = _solver_pairs(region)
    ys = list(dict.fromkeys(y for _, y in pairs))
    s = critical.s_crit(SOLVER_LAM)
    samples = [anderson.sample_disorder(region, substream(SOLVER_SEED, k))
               for k in range(SOLVER_SAMPLES)]
    want = np.empty((SOLVER_SAMPLES, len(pairs)))
    for k, sample in enumerate(samples):
        omega = {p: sample.value(p) for p in itertools.product(
            range(-region.L, region.L + 1), repeat=region.dimension)}
        index, g = oracles.dense_resolvent(region.dimension, region.L,
                                           region.deleted, omega, SOLVER_LAM, Z)
        for j, (x, y) in enumerate(pairs):
            want[k, j] = abs(g[index[x], index[y]]) ** s
    got = moments._moment_chunk(_chunk_task(region))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    # every column meets the contract against the sparse H, not the band
    for sample in samples:
        cols = anderson.ResolventColumns(region, SOLVER_LAM, sample.omega, Z)
        u, res = cols.columns(ys)
        assert u.shape == (region.n_sites, len(ys))
        h = anderson.build_hamiltonian(region, SOLVER_LAM, sample.omega, Z)
        for j, y in enumerate(ys):
            e = np.zeros(region.n_sites)
            e[region.index[y]] = 1.0
            assert np.linalg.norm(h @ u[:, j] - e) <= 1e-10
            assert res[j] <= 1e-10


@pytest.mark.parametrize("name", ["box", "half-box", "d3-L2"])
def test_banded_values_independent_of_batching(name, monkeypatch):
    # a sample's values depend neither on where its chunk starts nor on the
    # block it is drawn and checked in; a chunk makes one resolvent_entries
    # call whatever its blocks, and each block is one disorder hash and one
    # residual check
    region = SOLVER_REGIONS[name]
    whole = moments._moment_chunk(_chunk_task(region))
    shifted = moments._moment_chunk(_chunk_task(region, k0=5))
    assert np.array_equal(shifted, whole[5:])
    calls = {}

    def record(module, attr):  # keeps each call's arguments
        original = getattr(module, attr)

        def recorded(*args):
            calls[attr].append(args)
            return original(*args)

        monkeypatch.setattr(module, attr, recorded)

    for module, attr in ((moments, "resolvent_entries"),
                         (moments, "_disorder_block"), (anderson, "_residual")):
        record(module, attr)
    n_columns = len({y for _, y in _solver_pairs(region)})
    one = region.n_sites * n_columns * np.dtype(complex).itemsize
    for cap in (None, 1, 5):  # samples per block; None: the default cap's
        if cap is not None:
            monkeypatch.setattr(moments, "_BLOCK_BYTES", cap * one)
        n_block = cap or moments._block_size(region, n_columns)
        calls.update(resolvent_entries=[], _disorder_block=[], _residual=[])
        assert np.array_equal(moments._moment_chunk(_chunk_task(region)), whole)
        assert len(calls["resolvent_entries"]) == 1
        blocks = [len(ks) for *_, ks in calls["_disorder_block"]]
        assert blocks == [min(n_block, SOLVER_SAMPLES - k)
                          for k in range(0, SOLVER_SAMPLES, n_block)]
        assert [u.shape[1] for _, _, u, _ in calls["_residual"]] == blocks


_BAND = anderson.Region.band.func


def _band_without_hop_at_origin(region):
    """Region.band without the hop between the origin and e_1."""
    kl, hops = _BAND(region)
    i, j = region.index[(0, 0)], region.index[(1, 0)]
    at = [c * (3 * kl + 1) + 2 * kl + r - c for r, c in ((i, j), (j, i))]
    return kl, hops[~np.isin(hops, at)]


def test_band_dropped_hop_fails_residual_contract(monkeypatch):
    # the residual is taken from Region.hops, so a band that lost a hop
    # cannot pass the contract even after the refinement step
    monkeypatch.setattr(anderson.Region, "band",
                        property(_band_without_hop_at_origin))
    with pytest.raises(anderson.SolverError, match="residual") as info:
        moments.estimate_moments(small_region(), 30.0, 0.5, Z,
                                 [((1, 0), (0, 0))], 4, seed=0)
    assert type(info.value) is anderson.SolverError


def _eigenvalue_seen_from_origin(region, lam, seed):
    """The eigenvalue of H (sample 0 of seed) whose eigenvector weighs most
    at the origin."""
    sample = anderson.sample_disorder(region, substream(seed, 0))
    h = anderson.build_hamiltonian(region, lam, sample.omega).toarray()
    w, v = np.linalg.eigh(h)
    return float(w[np.argmax(np.abs(v[region.index[(0,) * region.dimension]]))])


@pytest.mark.parametrize("dim, L", [(1, 0), (2, 2)])
def test_estimate_at_real_eigenvalue_is_singular(dim, L):
    region = anderson.Region(dimension=dim, L=L)
    z = _eigenvalue_seen_from_origin(region, 30.0, seed=4)
    origin = (0,) * dim
    with pytest.raises(anderson.SingularSystemError):
        moments.estimate_moments(region, 30.0, 0.5, z, [(origin, origin)], 1, seed=4)


# --- a priori integral bound ---


def test_apriori_saturated_at_zero():
    for s in (0.3, 0.5, 0.7, 0.9):
        for lam in (10.0, 30.0, 100.0):
            val = moments.apriori_integral(lam, s, 0j)
            bound = critical.gamma_big(s, lam)
            assert val == pytest.approx(bound, rel=1e-12)


def test_apriori_bound_over_random_b():
    # between Jensen's lower bound (lam^2/3 + |B|^2)^(-s/2) and the a priori
    # bound 1/((1-s) lam^s)
    for s in (0.3, 0.7):
        for lam in (10.0, 100.0):
            grid = np.array(moments.random_b_disc(2, lam, 60, seed=9))
            vals = moments.apriori_integral(lam, s, grid)
            assert vals.shape == (60,)
            assert np.all(vals / critical.gamma_big(s, lam) <= 1.0 + 1e-8)
            lower = (lam**2 / 3.0 + np.abs(grid) ** 2) ** (-s / 2.0)
            assert np.all(vals / lower >= 1.0 - 1e-8)


def test_apriori_real_b_inside_support():
    # real b inside (-lam, lam) puts the singularity in the interval
    lam, s = 20.0, 0.6
    val = moments.apriori_integral(lam, s, 7.5 + 0j)
    assert 0 < val <= critical.gamma_big(s, lam) * (1 + 1e-10)


def test_apriori_far_field_scaling():
    # |b| >> lam gives E|lam v - b|^{-s} ~ |b|^{-s}
    lam, s = 5.0, 0.5
    b = 1e6 + 0j
    val = moments.apriori_integral(lam, s, b)
    assert val == pytest.approx(abs(b) ** -s, rel=1e-3)


# 30-digit mpmath references at lambda = 10, s = 0.9, made with
# mp.quad((t**2 + eta**2)**(-s/2), [-lambda - Re B, 0, lambda - Re B]) / (2 lambda)
# at mp.dps = 30 and confirmed by the closed form
# F(x) = x eta^-s 2F1(1/2, s/2; 3/2; -x^2/eta^2) at mp.dps = 50.  scipy's quad
# returns about the Im B = 0 value at each of them (1.25360, 1.25360, 1.25893,
# 0.67464) with no warning.
NEAR_AXIS = [
    (3 + 1e-5j, 0.9598589193125994),
    (3 + 1e-6j, 1.020273810159828),
    (1e-12j, 1.2003157359308265),
    (-10 + 1e-9j, 0.61617058506544923),
]


@pytest.mark.parametrize("b, want", NEAR_AXIS)
def test_apriori_near_real_axis(b, want):
    assert moments.apriori_integral(10.0, 0.9, b) == pytest.approx(want, rel=1e-12)


def test_apriori_vectorised_matches_scalar():
    bs = np.array([b for b, _ in NEAR_AXIS] + [0j, 25.0, 4 - 7j])
    vals = moments.apriori_integral(10.0, 0.9, bs)
    assert vals.shape == bs.shape
    assert all(v == moments.apriori_integral(10.0, 0.9, b) for b, v in zip(bs, vals))


def _criterion_5_grids():
    """(lam, s, B values) of tests/test_acceptance.py criterion 5 plus real B
    inside and beyond the support [-lam, lam]."""
    for s in (0.3, 0.5, 0.7, 0.9):
        for lam in (10.0, 30.0, 100.0):
            grid = moments.random_b_disc(2, lam, 100,
                                         seed=substream(55, int(10 * s)))
            real = [0.0, 0.3 * lam, -0.999 * lam, 1.001 * lam, -1.5 * lam, 1e6]
            yield lam, s, grid + [complex(r) for r in real]


def test_apriori_exact_at_support_edge():
    # B = +-lambda puts the singularity on an end of the interval, where
    # QUADPACK's error (about 1e-12, inside its 1e-10 tolerance) exceeds the
    # 1e-12 of test_apriori_matches_quadpack; the value is (2 lambda)^-s/(1-s)
    for s in (0.3, 0.5, 0.7, 0.9):
        for lam in (10.0, 30.0, 100.0):
            want = (2.0 * lam) ** -s / (1.0 - s)
            got = moments.apriori_integral(lam, s, np.array([lam, -lam]))
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_apriori_matches_quadpack():
    # QUADPACK (tests/oracles.py) is the independent route; it is wrong for
    # 0 < |Im B| < 1e-4, so those points are left to test_apriori_near_real_axis
    for lam, s, grid in _criterion_5_grids():
        grid = [b for b in grid if not 0.0 < abs(b.imag) < 1e-4]
        got = moments.apriori_integral(lam, s, np.array(grid))
        want = np.array([oracles.quad_apriori(lam, s, b) for b in grid])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_random_b_disc_deterministic():
    a = moments.random_b_disc(2, 30.0, 12, seed=4)
    b = moments.random_b_disc(2, 30.0, 12, seed=4)
    assert a == b
    radius = 2 * 2 + 2 * 30.0
    assert all(abs(v) <= radius for v in a)


# --- walk ceiling ---


def test_ceiling_value_matches_series(series_d2):
    lam = 30.0
    gamma = critical.gamma_fn(lam)
    corr = saw.correlation(series_d2, gamma, (2, 1))
    expect = math.log(lam) * corr.upper_bound
    assert moments.ceiling_value(series_d2, lam, (2, 1)) == pytest.approx(
        expect, rel=1e-12)


def test_ceiling_unavailable_when_divergent(series_d2):
    # gamma(23) * c_14^(1/14) > 1, so the tail bound cannot close
    with pytest.raises(moments.CeilingUnavailableError):
        moments.ceiling_value(series_d2, 23.0, (1, 0))


def test_theorem_ceiling_one_pool_for_the_family(monkeypatch):
    # the full box and the boxes minus one site it derives share one pool,
    # and their estimates are bit-identical at any worker count; the derived
    # estimates meet those of estimate_moments calls that factor the boxes
    # minus one site themselves, to roundoff
    starts = []

    class CountingPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingPool)
    full = anderson.Region(dimension=2, L=3)
    sites, _ = moments.default_region_family(2, 3, keep=[(0, 0), (2, 0)],
                                             seed=5)
    pairs = [((1, 0), (0, 0)), ((2, 0), (0, 0))]
    s = critical.s_crit(30.0)
    pooled = moments.estimate_moments(full, 30.0, s, Z, pairs, 12, 3,
                                      workers=2, deleted=sites)
    assert starts == [2]
    serial = moments.estimate_moments(full, 30.0, s, Z, pairs, 12, 3,
                                      workers=1, deleted=sites)
    assert [(e.x, e.mean, e.stderr, e.cancellation) for e in pooled] == \
        [(e.x, e.mean, e.stderr, e.cancellation) for e in serial]
    alone = [e for region in [full] + [full.without(p) for p in sites]
             for e in moments.estimate_moments(region, 30.0, s, Z, pairs, 12,
                                               3, workers=1)]
    assert [e.x for e in pooled] == [e.x for e in alone]
    for e, a in zip(pooled, alone):
        assert e.mean == pytest.approx(a.mean, rel=1e-12, abs=0.0)
        assert e.stderr == pytest.approx(a.stderr, rel=1e-12, abs=0.0)
    assert [e.cancellation is None for e in pooled] == [True] * 2 + [False] * 4


@pytest.mark.parametrize("site, message", [
    ((4, 0), "deleted site (4, 0) not inside the region"),
    ((2, 0), "deleted site (2, 0) is a point of the pairs"),
    ((0, 0), "deleted site (0, 0) is a point of the pairs"),
], ids=["off-region", "pair-x", "pair-y"])
def test_bad_deleted_site_raises_before_sampling(monkeypatch, site, message):
    # a site off the region, or one of the pairs' points, is named before
    # any chunk runs or any worker pool starts
    calls = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                        lambda *args, **kwargs: calls.append("pool"))
    monkeypatch.setattr(moments, "_moment_chunk",
                        lambda task: calls.append("chunk"))
    with pytest.raises(ValueError, match=re.escape(message)):
        moments.estimate_moments(anderson.Region(dimension=2, L=3), 30.0, 0.5,
                                 Z, [((2, 0), (0, 0))], 12, 3, workers=2,
                                 deleted=[(1, 1), site])
    assert calls == []


@pytest.mark.parametrize("z", [Z, 0.37 + 0.0j], ids=["im-z", "real-z"])
@pytest.mark.parametrize("dim, L", [(1, 6), (2, 3), (3, 2)])
def test_deletion_variants_match_direct_solves(dim, L, z):
    # G on full.without(p), derived from the full box's factor, against a
    # direct solve on that region, sample by sample; p is a neighbor of the
    # origin (a large correction) or a far corner (a small one)
    full = anderson.Region(dimension=dim, L=L)
    origin, e1 = (0,) * dim, (1,) + (0,) * (dim - 1)
    pairs = [(origin, origin), (e1, origin), ((2,) + origin[1:], e1)]
    deleted = [(-1,) + origin[1:], (L,) * dim]
    blocks = [moments._disorder_block(full, 7, range(20))]
    got = moments._entries(full, 10.0, blocks, z, pairs, deleted)
    n, m = len(pairs), len(deleted)
    assert got.shape == (20, (1 + 2 * m) * n)
    np.testing.assert_allclose(
        got[:, :n], anderson.resolvent_entries(full, 10.0, blocks, z, pairs),
        rtol=1e-14, atol=0.0)
    for a, p in enumerate(deleted):
        direct = anderson.resolvent_entries(full.without(p), 10.0, blocks, z,
                                            pairs)
        np.testing.assert_allclose(got[:, (1 + a) * n:(2 + a) * n], direct,
                                   rtol=1e-12, atol=0.0)
        # the corrections: what the deletion took off the full box's G
        np.testing.assert_allclose(
            got[:, (1 + m + a) * n:(2 + m + a) * n], got[:, :n] - direct,
            rtol=1e-9, atol=1e-12 * np.max(np.abs(direct)))


@pytest.mark.parametrize("planted", ["zero-diagonal", "infinite-column"])
def test_deletion_variants_raise_at_a_pole(monkeypatch, planted):
    # a G(p, p) of 0, or a derived value that is not finite, raises instead
    # of reaching a mean
    entries = moments.resolvent_entries

    def planted_entries(*args):
        g = entries(*args)  # the last two columns: G((0, 0), p), G(p, p)
        if planted == "zero-diagonal":
            g[:, -1] = 0.0
        else:
            g[:, -2] = np.inf
        return g

    monkeypatch.setattr(moments, "resolvent_entries", planted_entries)
    with np.errstate(invalid="ignore"), \
            pytest.raises(anderson.SingularSystemError):
        moments.estimate_moments(small_region(2), 30.0, 0.5, Z,
                                 [((1, 0), (0, 0))], 4, 0, deleted=[(2, 2)])


def test_region_family_shapes():
    sites, half = moments.default_region_family(2, 3, keep=[(0, 0), (1, 0)],
                                                seed=1)
    assert len(sites) == 2
    full = anderson.Region(dimension=2, L=3)
    assert all(p in full and p not in [(0, 0), (1, 0)] for p in sites)
    assert half.n_sites == 49 - 3 * 7  # x1 < 0 rows removed
    assert (0, 0) in half and (1, 0) in half
    # no site outside keep: no site to delete, and the half box is full
    assert moments.default_region_family(1, 0, keep=[(0,)], seed=1) == \
        ([], anderson.Region(dimension=1, L=0))


def test_moments_decrease_with_disorder():
    # stronger disorder localizes harder; 3 sigma separation at distance 2
    region = small_region()
    means = []
    for lam in (30.0, 60.0, 120.0):
        est = moments.estimate_moments(region, lam, 0.5, Z, [((2, 0), (0, 0))],
                                       n_samples=400, seed=6)[0]
        means.append((est.mean, est.stderr))
    for (m1, e1), (m2, e2) in zip(means, means[1:]):
        assert m1 - m2 > 3.0 * math.hypot(e1, e2)


# --- decay fits ---


def _synthetic(means, stderrs=None):
    out = []
    for k, m in enumerate(means, start=1):
        out.append(moments.MomentEstimate(
            s=0.5, z=Z, x=(k, 0), y=(0, 0), n_samples=10, mean=m,
            stderr=None if stderrs is None else stderrs[k - 1]))
    return out


def test_fit_decay_exact_exponential():
    ests = _synthetic([5.0 * math.exp(-0.8 * k) for k in range(1, 6)])
    fit = moments.fit_decay(ests, 30.0, 2.88, eps=0.01)
    assert fit.fitted_rate == pytest.approx(0.8, abs=1e-10)
    assert fit.fitted_prefactor == pytest.approx(5.0, rel=1e-10)
    assert max(abs(r) for r in fit.residuals) < 1e-12
    assert fit.reference_positive
    # decay's rule: the fit dominates the proved mass within 2 stderr
    assert fit.fitted_rate >= fit.reference_rate - 2.0 * fit.rate_stderr


def test_fit_decay_constant_data_fails_dominance():
    ests = _synthetic([0.25] * 4)
    fit = moments.fit_decay(ests, 30.0, 2.88, eps=0.01)
    assert fit.fitted_rate == pytest.approx(0.0, abs=1e-12)
    assert fit.reference_positive
    assert fit.fitted_rate < fit.reference_rate - 2.0 * fit.rate_stderr


def test_fit_decay_weighted_matches_reference_rate():
    ests = _synthetic([5.0 * math.exp(-0.8 * k) for k in range(1, 6)],
                      stderrs=[1e-3] * 5)
    fit = moments.fit_decay(ests, 30.0, 2.88, eps=0.01)
    assert fit.fitted_rate == pytest.approx(0.8, abs=1e-6)
    ref = critical.mass(30.0, 2.88, 0.01)
    assert fit.reference_rate == ref.value


def test_fit_decay_needs_three_distances():
    with pytest.raises(moments.InsufficientDataError):
        moments.fit_decay(_synthetic([0.5, 0.1]), 30.0, 2.88, eps=0.01)


def test_fit_decay_rejects_repeated_distance():
    # the copies of one distance come from the same samples
    ests = _synthetic([0.5, 0.1, 0.02])
    ests.append(ests[1])
    with pytest.raises(ValueError, match="repeated distance"):
        moments.fit_decay(ests, 30.0, 2.88, eps=0.01)


def test_fit_decay_rejects_nonpositive_means():
    ests = _synthetic([0.5, 0.1, 0.0, 0.01])
    with pytest.raises(ValueError):
        moments.fit_decay(ests, 30.0, 2.88, eps=0.01)


# --- conditional single-site bound ---


def test_drb_conditional_two_coupled_sites():
    region = anderson.make_region(1, 1)  # sites -1, 0, 1
    sides = moments.check_drb_conditional(region, 30.0, 0.7, Z, (0,), (1,),
                                          envs=range(4), seed=0)
    assert len(sides) == 4
    for lhs, rhs, by_identity in sides:
        assert lhs <= rhs + 1e-6
        assert lhs == pytest.approx(by_identity, rel=1e-9)


def test_drb_conditional_isolated_x():
    # all neighbors of x deleted: every side vanishes
    deleted = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    region = anderson.make_region(2, 1, deleted)
    sides = moments.check_drb_conditional(region, 30.0, 0.5, Z, (0, 0), (1, 1),
                                          envs=range(2), seed=0)
    assert len(sides) == 2
    assert all(abs(v) < 1e-12 for side in sides for v in side)


def test_drb_conditional_2d_box():
    region = anderson.Region(dimension=2, L=3)
    sides = moments.check_drb_conditional(region, 30.0, 0.7, Z, (0, 0), (1, 1),
                                          envs=range(5), seed=1)
    for lhs, rhs, by_identity in sides:
        assert lhs <= rhs + 1e-6, f"margin {rhs - lhs}"
        assert lhs == pytest.approx(by_identity, rel=1e-9)


def test_drb_left_side_matches_identity_at_verify_shape():
    # verify's drb shape at lambda 30, seed 0: box L = 4, s = 0.7, z = 0.01i,
    # ten environments of substream(0, 15)
    region = anderson.Region(dimension=2, L=4)
    sides = moments.check_drb_conditional(region, 30.0, 0.7, 0.01j, (0, 0),
                                          (1, 1), envs=range(10), seed=substream(0, 15))
    assert len(sides) == 10
    for lhs, _, by_identity in sides:
        assert abs(lhs - by_identity) <= 1e-9 * by_identity


@pytest.mark.parametrize("cap", [1, 7, None])
def test_drb_sides_independent_of_blocks(cap, monkeypatch):
    # the omega(x) nodes are solved in blocks of at most the cap's samples
    # (None: the default cap's), and the sides are bit-identical for any cap
    region = anderson.Region(dimension=2, L=3)
    args = (region, 30.0, 0.7, Z, (0, 0), (1, 1), range(3), 1)
    want = moments.check_drb_conditional(*args)
    sizes, residual = [], anderson._residual

    def counted(region, diag, u, rhs):
        sizes.append(u.shape[1])
        return residual(region, diag, u, rhs)

    monkeypatch.setattr(anderson, "_residual", counted)
    if cap is not None:
        one = region.n_sites * np.dtype(complex).itemsize
        monkeypatch.setattr(moments, "_BLOCK_BYTES", cap * one)
    assert moments.check_drb_conditional(*args) == want
    assert max(sizes) == (cap or moments._block_size(region, 1))


def test_drb_rejects_bad_pairs():
    region = small_region()
    with pytest.raises(ValueError):
        moments.check_drb_conditional(region, 30.0, 0.5, Z, (0, 0), (0, 0),
                                      envs=range(2))
    with pytest.raises(ValueError):
        moments.check_drb_conditional(region, 30.0, 0.5, Z, (0, 0), (9, 9),
                                      envs=range(2))
