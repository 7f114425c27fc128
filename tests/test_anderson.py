"""Region geometry, disorder sampling, and Green's function identities."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.sparse import csc_matrix

from andloc import anderson, moments
from andloc.rng import site_uniform, substream

import oracles

LAM = 30.0
Z = 0.01j

# frozen oracles.dense_green values: d=2, L=6, full box, lambda=30, seed=1
PIN_ABS_G = {
    (0, 0): 0.07622536060186924,
    (1, 0): 0.008372841112813752,
    (3, 2): 2.344588879234094e-05,
}
# same but with site (1,1) deleted, x=(2,0)
PIN_DEPLETED = complex(-0.00033014261716044326, -4.2327039327720186e-07)


# --- regions ---


def _box_walk(region):
    """The region's sites by a route independent of Region.grid: the
    lexicographic walk of the box, deleted sites filtered out."""
    box = itertools.product(range(-region.L, region.L + 1), repeat=region.dimension)
    return [p for p in box if p not in region.deleted]


def test_site_order_is_the_box_walk():
    # sites, index and grid read one order: the box walk's.  L = 0 with its
    # one site deleted gives the empty region
    gen = np.random.default_rng(36)
    for d, L in itertools.product((1, 2, 3), range(4)):
        box = list(itertools.product(range(-L, L + 1), repeat=d))
        for k in range(min(3, len(box)) + 1):
            for _ in range(3):
                picks = gen.choice(len(box), size=k, replace=False)
                region = anderson.make_region(d, L, [box[i] for i in picks])
                want = _box_walk(region)
                assert region.sites == want, (d, L, region.deleted)
                assert all(type(c) is int for p in region.sites for c in p)
                assert region.n_sites == len(want)
                assert region.index == {p: i for i, p in enumerate(want)}
                assert region.grid.shape == (2 * L + 1,) * d
                for p in box:
                    slot = tuple(c + L for c in p)
                    assert region.grid[slot] == region.index.get(p, -1), p


def test_region_sites_lexicographic():
    region = anderson.make_region(2, 1)
    assert region.sites[:3] == [(-1, -1), (-1, 0), (-1, 1)]
    assert region.n_sites == 9
    assert region.index[(0, 0)] == 4


def test_region_deletion():
    region = anderson.make_region(2, 1, [(0, 0)])
    assert region.n_sites == 8
    assert (0, 0) not in region
    assert (0, 1) in region
    smaller = region.without((1, 1))
    assert smaller.n_sites == 7
    assert region.n_sites == 8  # original untouched


def test_region_validation():
    with pytest.raises(ValueError):
        anderson.make_region(0, 2)
    with pytest.raises(ValueError):
        anderson.make_region(2, -1)
    with pytest.raises(ValueError):
        anderson.make_region(2, 1, [(5, 5)])  # outside the box
    with pytest.raises(ValueError):
        anderson.make_region(2, 1, [(0,)])  # wrong arity
    with pytest.raises(ValueError):
        anderson.make_region(2, 1, [(0, 0), (0, 0)])  # duplicate


def test_region_neighbors():
    region = anderson.make_region(2, 1, [(1, 0)])
    nbrs = set(region.neighbors_in((0, 0)))
    assert nbrs == {(-1, 0), (0, -1), (0, 1)}


def _pattern_by_coo(region, diag):
    """build_hamiltonian's matrix built independently: every site's hops from
    neighbors_in and diag on the diagonal, in the box walk's order, through
    scipy's COO to CSC."""
    order = {p: i for i, p in enumerate(_box_walk(region))}
    rows, cols, data = [], [], []
    for p, j in order.items():
        rows.append(j)
        cols.append(j)
        data.append(diag[j])
        for q in region.neighbors_in(p):
            rows.append(order[q])
            cols.append(j)
            data.append(1.0)
    n = region.n_sites
    return csc_matrix((np.array(data, dtype=diag.dtype), (rows, cols)),
                      shape=(n, n))


def _pattern_regions():
    for d in range(1, 5):
        for L in range(4):
            box = anderson.Region(dimension=d, L=L)
            origin = (0,) * d
            yield d, L, []
            if L:
                corners = [(-L,) * d, (L,) * d]
                yield d, L, [origin]
                yield d, L, corners
                # the origin survives with every neighbor deleted
                yield d, L, sorted(set(box.neighbors_in(origin) + corners))


@pytest.mark.parametrize("d, L, deleted", list(_pattern_regions()))
def test_pattern_matches_coo_build(d, L, deleted):
    region = anderson.make_region(d, L, deleted)
    n = region.n_sites
    sites = _box_walk(region)
    order = {p: i for i, p in enumerate(sites)}
    steps = [-e for e in np.eye(d, dtype=int)] + list(np.eye(d, dtype=int)[::-1])
    for i, p in enumerate(sites):
        row = region.hops[i].tolist()
        # n_sites pads the directions -e_0 .. -e_{d-1}, +e_{d-1} .. +e_0
        # without a neighbor, and the real entries ascend
        assert row == [order.get(tuple(np.add(p, e).tolist()), n)
                       for e in steps], p
        want = sorted(order[q] for q in region.neighbors_in(p))
        assert [j for j in row if j < n] == want, p
    sample = anderson.sample_disorder(region, 3)
    omega = np.array([sample.value(p) for p in sites])
    for z in (Z, 0.7):  # complex and real H - z
        a = anderson.build_hamiltonian(region, LAM, sample.omega, z)
        b = _pattern_by_coo(region, LAM * omega - z)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(a, name), getattr(b, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert a.indices.dtype == np.int32
        assert a.has_canonical_format


@pytest.mark.parametrize("d, L, deleted", list(_pattern_regions()))
def test_residual_is_the_sparse_product_bit_for_bit(d, L, deleted):
    # green's printed residual keeps its bits only if the table's hops are
    # summed in a sparse product's order: adjacency @ u, then the diagonal
    region = anderson.make_region(d, L, deleted)
    n = region.n_sites
    sites = _box_walk(region)
    samples = [anderson.sample_disorder(region, seed) for seed in (3, 4)]
    # build_hamiltonian at lambda = 0, z = 0: the adjacency, 0.0 diagonal
    adjacency = anderson.build_hamiltonian(region, 0.0, samples[0].omega)
    columns = anderson._unit_columns(region, sites[:: max(1, n // 3)])
    gen = np.random.default_rng(d * 10 + L)
    # one sample and one column is green's shape, where numpy's own sum
    # over the neighbor axis would reorder the additions
    for z, g, k in itertools.product((Z, 0.7), (1, 2), (1, columns.shape[1])):
        diag = np.stack([LAM * np.array([s.value(p) for p in sites]) - complex(z)
                         for s in samples[:g]], axis=1)
        u = gen.standard_normal((n, g, k, 2)) @ [1.0, 1.0j]
        rhs = columns[:, :k]
        want = ((adjacency @ u.reshape(n, -1)).reshape(n, g, k)
                + diag[:, :, None] * u - rhs[:, None])
        got = anderson._residual(region, diag, u, rhs)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (z, g, k)


# --- disorder samples ---


def test_sample_range_and_determinism():
    region = anderson.make_region(2, 3)
    s1 = anderson.sample_disorder(region, 42)
    s2 = anderson.sample_disorder(region, 42)
    assert np.array_equal(s1.omega, s2.omega)
    assert s1.omega.shape == (7, 7)
    assert np.all((-1.0 <= s1.omega) & (s1.omega < 1.0))
    s3 = anderson.sample_disorder(region, 43)
    assert not np.array_equal(s1.omega, s3.omega)


def test_sample_depletion_stable():
    # deleting sites does not change the disorder on surviving ones
    region = anderson.make_region(2, 3)
    depleted = region.without((1, 1))
    a = anderson.sample_disorder(region, 7)
    b = anderson.sample_disorder(depleted, 7)
    assert np.array_equal(a.omega, b.omega)  # a function of (seed, site) only


def test_sample_matches_site_uniform():
    region = anderson.make_region(2, 2)
    s = anderson.sample_disorder(region, 5)
    assert s.value((1, -2)) == site_uniform(5, (1, -2))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, -1, 2**63 + 5, 2**64 - 1])
def test_array_disorder_matches_scalar_hash(d, seed):
    # the box-at-once hash is bit-identical to the per-site one, and the
    # Monte Carlo's block hash over a column of sample seeds to the box-at-once
    # one, without overflow warnings from the uint64 arithmetic
    region = anderson.make_region(d, 2, [(1,) * d])
    ks = range(3, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = anderson.sample_disorder(region, seed)
        block = moments._disorder_block(region, seed, ks)
    for p in itertools.product(range(-2, 3), repeat=d):
        assert sample.omega[tuple(c + 2 for c in p)] == site_uniform(seed, p)
    # the solvers' read of the box array, in the box walk's order
    assert (sample.omega[region.grid >= 0].tolist()
            == [site_uniform(seed, p) for p in _box_walk(region)])
    assert block.shape == (len(ks),) + (5,) * d
    for row, k in zip(block, ks):
        own = anderson.sample_disorder(region, substream(seed, k))
        assert np.array_equal(row, own.omega)


def test_sample_site_outside_box_raises():
    # a negative array index would silently wrap to the far side of the box
    L = 2
    s = anderson.sample_disorder(anderson.make_region(2, L), 5)
    with pytest.raises(ValueError):
        s.value((-L - 1, 0))
    with pytest.raises(ValueError):
        s.with_site_value((-L - 1, 0), 0.25)


def test_sample_with_site_value():
    region = anderson.make_region(2, 2)
    s = anderson.sample_disorder(region, 5)
    t = s.with_site_value((0, 0), 0.25)
    assert t.value((0, 0)) == 0.25
    assert s.value((0, 0)) != 0.25 or True  # original unchanged
    assert t.value((1, 0)) == s.value((1, 0))
    with pytest.raises(ValueError):
        s.with_site_value((0, 0), 1.5)


# --- Hamiltonian and spectrum ---


def test_hamiltonian_matches_direct_construction():
    for d, deleted, z in [(2, [(0, 1)], 0.0),
                          (1, [(2,)], 0.0),
                          (3, [(0, 0, 2)], 0.5 + 0.01j),  # a face site of the box
                          (2, [(-2, 0), (1, 1)], Z)]:
        region = anderson.make_region(d, 2, deleted)
        sample = anderson.sample_disorder(region, 3)
        a = anderson.build_hamiltonian(region, LAM, sample.omega, z)
        assert a.has_canonical_format
        h = a.toarray()
        n = region.n_sites
        order = {p: i for i, p in enumerate(_box_walk(region))}
        expect = np.zeros((n, n), dtype=h.dtype)
        for p, i in order.items():
            expect[i, i] = LAM * sample.value(p) - z
            for q in region.neighbors_in(p):
                expect[i, order[q]] = 1.0
        assert np.allclose(h, expect, atol=0)
        assert np.allclose(h, h.T, atol=0)


# --- Green's function ---


def test_single_site_closed_form():
    region = anderson.make_region(1, 0)
    sample = anderson.sample_disorder(region, 2)
    ev = anderson.green(region, LAM, sample, Z, (0,), (0,))
    expect = 1.0 / (LAM * sample.value((0,)) - Z)
    assert ev.value == pytest.approx(expect, rel=1e-14)


def test_two_site_closed_form():
    # 1d box {-1, 0, 1} minus the right end leaves the coupled pair (-1, 0)
    region = anderson.make_region(1, 1, [(1,)])
    sample = anderson.sample_disorder(region, 4)
    a = LAM * sample.value((-1,)) - Z
    b = LAM * sample.value((0,)) - Z
    det = a * b - 1.0
    got = anderson.green(region, LAM, sample, Z, (-1,), (0,))
    assert got.value == pytest.approx(-1.0 / det, rel=1e-13)
    diag = anderson.green(region, LAM, sample, Z, (-1,), (-1,))
    assert diag.value == pytest.approx(b / det, rel=1e-13)


def test_pinned_dense_values():
    region = anderson.make_region(2, 6)
    sample = anderson.sample_disorder(region, 1)
    for x, pin in PIN_ABS_G.items():
        ev = anderson.green(region, LAM, sample, Z, x, (0, 0))
        assert abs(ev.value) == pytest.approx(pin, rel=1e-11)
        assert ev.residual < 1e-10
    dep = region.without((1, 1))
    dep_sample = anderson.sample_disorder(dep, 1)
    ev = anderson.green(dep, LAM, dep_sample, Z, (2, 0), (0, 0))
    assert ev.value == pytest.approx(PIN_DEPLETED, rel=1e-11)


def test_matches_dense_oracle_random_regions():
    rng = np.random.default_rng(0)
    for trial in range(6):
        d = 2 if trial % 2 == 0 else 3
        L = 3 if d == 2 else 2
        all_sites = list(itertools.product(range(-L, L + 1), repeat=d))
        k = int(rng.integers(0, 3))
        deleted = [all_sites[i]
                   for i in rng.choice(len(all_sites), size=k, replace=False)]
        region = anderson.make_region(d, L, deleted)
        sample = anderson.sample_disorder(region, 100 + trial)
        sites = _box_walk(region)
        x = sites[int(rng.integers(len(sites)))]
        y = sites[int(rng.integers(len(sites)))]
        got = anderson.green(region, LAM, sample, Z, x, y).value
        omega = {p: site_uniform(100 + trial, p) for p in all_sites}
        want = oracles.dense_green(d, L, deleted, omega, LAM, Z, x, y)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-12)


def test_green_at_real_z_on_depleted_box():
    # at real z, H - z is real symmetric and indefinite, so the banded LU
    # has to pivot; it must still match a dense inverse
    lam, deleted = 1.0, [(0, 1), (-2, 2), (3, -1)]
    region = anderson.make_region(2, 3, deleted)
    sample = anderson.sample_disorder(region, 37)
    h = anderson.build_hamiltonian(region, lam, sample.omega).toarray()
    w = np.linalg.eigvalsh(h)
    k = int(np.argmax(np.diff(w)))
    z = complex(0.5 * (w[k] + w[k + 1]))  # middle of the widest spectral gap
    assert z.imag == 0.0 and np.min(np.abs(w - z.real)) > 0.05
    omega = {p: sample.value(p) for p in itertools.product(range(-3, 4), repeat=2)}
    index, want = oracles.dense_resolvent(2, 3, deleted, omega, lam, z)
    for x, y in [((0, 0), (0, 0)), ((2, 1), (-3, 0)), ((-1, 3), (1, -3))]:
        ev = anderson.green(region, lam, sample, z, x, y)
        ref = want[index[x], index[y]]
        assert abs(ev.value - ref) <= 1e-9 * abs(ref)
        assert ev.residual <= 1e-10


def test_green_symmetric():
    region = anderson.make_region(2, 3, [(2, 2)])
    sample = anderson.sample_disorder(region, 8)
    g_xy = anderson.green(region, LAM, sample, Z, (1, 2), (-1, 0)).value
    g_yx = anderson.green(region, LAM, sample, Z, (-1, 0), (1, 2)).value
    assert g_xy == pytest.approx(g_yx, rel=1e-12)


def test_green_bounded_by_inverse_imag():
    region = anderson.make_region(2, 3)
    sample = anderson.sample_disorder(region, 13)
    cols = anderson.ResolventColumns(region, LAM, sample.omega, Z)
    u, _ = cols.column((0, 0))
    assert np.max(np.abs(u)) <= 1.0 / Z.imag + 1e-12


def test_green_off_region_zero():
    region = anderson.make_region(2, 2, [(1, 1)])
    sample = anderson.sample_disorder(region, 1)
    ev = anderson.green(region, LAM, sample, Z, (1, 1), (0, 0))
    assert ev.value == 0j


def test_green_deterministic():
    region = anderson.make_region(2, 4)
    sample = anderson.sample_disorder(region, 21)
    a = anderson.green(region, LAM, sample, Z, (2, 1), (0, 0)).value
    b = anderson.green(region, LAM, sample, Z, (2, 1), (0, 0)).value
    assert a == b  # bit-identical


def test_singular_system_raises():
    region = anderson.make_region(1, 0)
    sample = anderson.sample_disorder(region, 0)
    z = LAM * sample.value((0,))  # real z exactly at the only eigenvalue
    # H - z is the 1x1 zero matrix: the factorization reports the zero pivot
    with pytest.raises(anderson.SingularSystemError, match="zero pivot"):
        anderson.green(region, LAM, sample, complex(z), (0,), (0,))


def test_resolvent_columns_shared_factorization():
    region = anderson.make_region(2, 3)
    sample = anderson.sample_disorder(region, 17)
    cols = anderson.ResolventColumns(region, LAM, sample.omega, Z)
    u, res = cols.column((0, 0))
    assert res < 1e-10
    ev = anderson.green(region, LAM, sample, Z, (1, 1), (0, 0))
    assert ev.value == complex(u[region.index[(1, 1)]])


def test_refinement_rescues_a_perturbed_column(monkeypatch):
    # a first solve 1e-8 off everywhere misses the 1e-10 contract; the one
    # refinement step brings the column back to the unperturbed solve
    region = anderson.make_region(2, 3)
    sample = anderson.sample_disorder(region, 17)
    want, want_res = anderson.ResolventColumns(region, LAM, sample.omega,
                                               Z).column((0, 0))
    solve, calls = anderson.ResolventColumns._solve, []

    def perturbed_once(self, rhs):
        calls.append(rhs)
        u = solve(self, rhs)
        return u + 1e-8 if len(calls) == 1 else u

    monkeypatch.setattr(anderson.ResolventColumns, "_solve", perturbed_once)
    u, res = anderson.ResolventColumns(region, LAM, sample.omega,
                                       Z).column((0, 0))
    assert len(calls) == 2  # the refinement ran
    assert want_res < 1e-10 and res < 1e-10
    np.testing.assert_allclose(u, want, rtol=0.0, atol=1e-15)


def _group_case(n_samples):
    """A region with a deletion, n_samples box arrays and pairs with two
    distinct y: the inputs of resolvent_entries."""
    region = anderson.make_region(2, 3, [(1, 0)])
    omegas = [anderson.sample_disorder(region, substream(5, k)).omega
              for k in range(n_samples)]
    pairs = [((0, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 0), (-1, 2))]
    return region, omegas, pairs


def _blocks(omegas, sizes):
    """The box arrays omegas stacked in blocks of the given sizes."""
    return np.split(np.stack(omegas), np.cumsum(sizes)[:-1])


def _per_sample_entries(region, omegas, z, pairs):
    """resolvent_entries from one ResolventColumns.columns call per sample."""
    ys = list(dict.fromkeys(y for _, y in pairs))
    rows = [region.index[x] for x, _ in pairs]
    cols = [ys.index(y) for _, y in pairs]
    return np.array([anderson.ResolventColumns(region, LAM, omega, z)
                     .columns(ys)[0][rows, cols] for omega in omegas])


@pytest.mark.parametrize("n_samples, groups", [
    (2, [2]), (3, [3]), (4, [4]), (7, [2, 4, 1])])
def test_grouped_entries_match_per_sample_columns(n_samples, groups, monkeypatch):
    # the samples streamed in blocks of 1, 2, 3 and 4: each block is checked
    # by one residual, whose sample axis gives the block's size, and every
    # value is the per-sample solve's, bit for bit
    region, omegas, pairs = _group_case(n_samples)
    sizes, residual = [], anderson._residual

    def counted(region, diag, u, rhs):
        sizes.append(u.shape[1])
        return residual(region, diag, u, rhs)

    monkeypatch.setattr(anderson, "_residual", counted)
    got = anderson.resolvent_entries(region, LAM, iter(_blocks(omegas, groups)),
                                     Z, pairs)
    assert sizes == groups
    assert got.shape == (n_samples, len(pairs))
    assert np.array_equal(got, _per_sample_entries(region, omegas, Z, pairs))


def _planted_solve(monkeypatch, target, plant):
    """Count ResolventColumns constructions and columns calls, and pass the
    solutions of the box array target through plant(u, k), k counting its
    solves over every factor of it.  A sample is target by value: the rows
    of a block are views, never target itself."""
    made, refined, solves = [], [], []

    class Counted(anderson.ResolventColumns):
        def __init__(self, region, lam, omega, z):
            super().__init__(region, lam, omega, z)
            made.append(self)
            self.planted = np.array_equal(omega, target)

        def _solve(self, rhs):
            u = super()._solve(rhs)
            if not self.planted:
                return u
            solves.append(rhs)
            return plant(u, len(solves))

        def columns(self, ys):
            refined.append(self)
            return super().columns(ys)

    monkeypatch.setattr(anderson, "ResolventColumns", Counted)
    return made, refined


def test_grouped_refinement_only_reruns_the_rough_sample(monkeypatch):
    # a first solve 1e-8 off misses the contract: that sample alone is
    # factored again and goes through columns, and no value changes
    region, omegas, pairs = _group_case(5)
    blocks = _blocks(omegas, [2, 3])
    want = anderson.resolvent_entries(region, LAM, blocks, Z, pairs)
    made, refined = _planted_solve(
        monkeypatch, omegas[2], lambda u, k: u + 1e-8 if k == 1 else u)
    got = anderson.resolvent_entries(region, LAM, blocks, Z, pairs)
    assert len(made) == len(omegas) + 1
    assert refined == [made[-1]]
    assert np.array_equal(made[-1]._diag, made[2]._diag)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("z, error", [
    (Z, anderson.SolverError), (0.25 + 0j, anderson.SingularSystemError)])
def test_grouped_non_finite_column_raises(z, error, monkeypatch):
    # a NaN in every solve of one sample cannot be refined away; the error
    # is columns' own: SolverError at complex z, SingularSystemError at real z
    region, omegas, pairs = _group_case(5)
    blocks = _blocks(omegas, [2, 3])
    anderson.resolvent_entries(region, LAM, blocks, z, pairs)  # unplanted: fine

    def nan_column(u, _):
        u = u.copy()
        u[0, 1] = np.nan
        return u

    _planted_solve(monkeypatch, omegas[1], nan_column)
    with pytest.raises(anderson.SolverError, match="residual nan") as info:
        anderson.resolvent_entries(region, LAM, blocks, z, pairs)
    assert type(info.value) is error


# --- identity verifications ---


def test_depleted_identity_small():
    region = anderson.make_region(2, 3)
    sample = anderson.sample_disorder(region, 30)
    for x, y in [((0, 0), (1, 2)), ((2, -1), (-3, 0)), ((1, 1), (0, 0))]:
        err = anderson.verify_depleted_identity(region, LAM, sample, Z, x, y)
        assert err < 1e-12


def test_depleted_identity_with_deletions():
    region = anderson.make_region(2, 3, [(1, 0), (-2, 2)])
    sample = anderson.sample_disorder(region, 31)
    err = anderson.verify_depleted_identity(region, LAM, sample, Z, (0, 0), (2, 2))
    assert err < 1e-12


def test_depleted_identity_factors_each_region_once(monkeypatch):
    # G(x, y) and G(x, x) are two columns of one banded LU on the region;
    # the depleted region gets its own solver, a sparse LU
    banded, lus = [], []
    real_splu = anderson.splu

    class Counted(anderson.ResolventColumns):
        def __init__(self, region, *args):
            banded.append(region.n_sites)
            super().__init__(region, *args)

    def counted(a):
        lus.append(a.shape)
        return real_splu(a)

    monkeypatch.setattr(anderson, "ResolventColumns", Counted)
    monkeypatch.setattr(anderson, "splu", counted)
    region = anderson.make_region(2, 3, [(1, 0)])
    sample = anderson.sample_disorder(region, 36)
    err = anderson.verify_depleted_identity(region, LAM, sample, Z, (0, 0), (2, 1))
    assert err < 1e-12
    assert banded == [48]
    assert lus == [(47, 47)]


def test_depleted_identity_rejects_equal_points():
    region = anderson.make_region(2, 2)
    sample = anderson.sample_disorder(region, 1)
    with pytest.raises(ValueError):
        anderson.verify_depleted_identity(region, LAM, sample, Z, (0, 0), (0, 0))


def test_schur_diagonal():
    region = anderson.make_region(2, 3, [(0, 1)])
    sample = anderson.sample_disorder(region, 33)
    for x in [(0, 0), (2, 2), (-3, -3)]:
        assert anderson.verify_schur_diagonal(region, LAM, sample, Z, x) < 1e-9


def test_resolvent_expansion_small():
    region = anderson.make_region(2, 2)
    sample = anderson.sample_disorder(region, 34)
    err = anderson.verify_resolvent_expansion(region, LAM, sample, Z, (0, 0))
    assert err < 1e-12


@pytest.mark.parametrize("dim, L, deleted, x", [
    (2, 0, [], (0, 0)),  # one site: the region minus x is empty
    (2, 2, [(1, 0), (-1, 0), (0, 1), (0, -1)], (0, 0)),  # x has no neighbor
    (1, 4, [(2,), (-3,)], (1,)),
    (3, 2, [(0, 0, 1), (1, 1, 1)], (0, 0, 0)),
])
def test_resolvent_expansion_regions(dim, L, deleted, x):
    region = anderson.make_region(dim, L, deleted)
    sample = anderson.sample_disorder(region, 36)
    for lam in (LAM, 1.0):
        err = anderson.verify_resolvent_expansion(region, lam, sample, Z, x)
        assert err < 1e-12


def test_identities_at_weak_disorder():
    # lambda = 1 keeps |G| of order one so relative checks are meaningful
    region = anderson.make_region(2, 4, [(2, 0)])
    sample = anderson.sample_disorder(region, 35)
    err = anderson.verify_depleted_identity(region, 1.0, sample, Z,
                                            (-3, 3), (3, -3))
    assert err < 1e-12
    assert anderson.verify_schur_diagonal(region, 1.0, sample, Z, (0, 1)) < 1e-9


def test_substream_independence():
    # substreams used for Monte Carlo samples do not collide
    vals = {substream(0, k) for k in range(1000)}
    assert len(vals) == 1000
