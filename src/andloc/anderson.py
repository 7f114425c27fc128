"""Finite-volume Anderson Hamiltonians and their Green's functions.

The operator on a finite region Lambda of Z^d (a centered box with optional
site deletions, free boundary conditions) is

    (H psi)(x) = sum_{|x'-x|=1, x' in Lambda} psi(x') + lambda omega(x) psi(x),

with omega(x) i.i.d. uniform on [-1, 1].  Green's functions are matrix
elements of the resolvent,

    G_z(x, y) = <delta_x, (H - z)^{-1} delta_y>,

computed by one direct solver, ResolventColumns: a banded LU of one
sample's H - z (LAPACK zgbtrf/zgbtrs, partial pivoting) in the band layout
of Region.band, which serves green, the identity verifiers below, the
conditional-bound check and the Monte Carlo moments (through
resolvent_entries, one factorization per sample and region; the Monte Carlo
derives a region minus one site from the larger region's columns).  The
band layout, the residual and build_hamiltonian's sparse H read one
adjacency, the neighbor table Region.hops.  Every column's residual is
checked through the table, not the band: resolvent_entries checks a group
of samples at once and sends a sample that misses the contract through
ResolventColumns.columns, which refines a column above 1e-10 once and
raises SolverError (SingularSystemError at real z) if it still is.  A
sparse LU (splu) of build_hamiltonian's H is only the independent solve on
the depleted region in verify_depleted_identity.
G_z(x, y) = 0 by convention when x or y is outside the region.

Exact operator identities are exposed as verifiers.  Each computes both
sides independently and returns their relative discrepancy, a measurement
only: the tolerance it is judged against lives in cli's verify checks.

  * depleted one-step identity, for x != y:
        G(x, y) = -G(x, x) * sum_{x' ~ x} G^{(Lambda \\ {x})}(x', y)
  * full resolvent expansion through the decoupled operator
        B = H^{({x})} (+) H^{(Lambda \\ {x})} - z:
        A^{-1} = B^{-1} - A^{-1} (sum_{x' ~ x} T_{x,x'}) B^{-1},
    with T_{x,x'} the elementary hop between x and x', both inverses taken
    column by column from the banded factors of the region and of the
    region minus x.

The Schur complement behind both: G(x, x) = 1/(lambda omega(x) - B(x, omega))
where B(x, omega) does not depend on omega(x); verify_schur_diagonal
measures that independence by recomputing B at two values of omega(x).

Disorder is counter-based (see rng): omega(x) is a pure function of
(seed, x), so samples regenerate bit-identically and restrict consistently
to depleted regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .rng import site_uniform

Point = tuple[int, ...]

_RESIDUAL_TOL = 1e-10
#: byte cap on the stacked solutions of one group of samples, whose residuals
#: resolvent_entries checks at once (14 samples of one column at d=2, L=8).
#: The group's temporaries are a few times this, so a cap at the disorder
#: block's (moments._DISORDER_BYTES) would raise a Monte Carlo run's peak
#: memory; at 64 KiB a 2000-sample d=2, L=8 run peaks no higher than with
#: one residual per sample
_GROUP_BYTES = 1 << 16
_EPS = float(np.finfo(float).eps)


class SolverError(Exception):
    """Linear solve failed to reach the residual contract."""


class SingularSystemError(SolverError):
    """(H - z) is singular or numerically singular (real z at an eigenvalue)."""


# --- geometry ---


@dataclass(frozen=True)
class Region:
    """Centered box [-L, L]^d minus a set of deleted sites.

    Surviving sites are indexed 0..n_sites-1 in lexicographic box order, a
    function of (dimension, L, deleted) alone.  Box arrays put axis
    i at coordinate i + L, so their C order is the order of `sites`.
    """

    dimension: int
    L: int
    deleted: frozenset[Point] = frozenset()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.L < 0:
            raise ValueError("L must be >= 0")
        for p in self.deleted:
            if len(p) != self.dimension or not self.in_box(p):
                raise ValueError(f"deleted site {p} outside box or wrong arity")

    def in_box(self, p: Sequence[int]) -> bool:
        return all(-self.L <= c <= self.L for c in p)

    def box_sites(self) -> Iterable[Point]:
        rng = range(-self.L, self.L + 1)
        return itertools.product(rng, repeat=self.dimension)

    @cached_property
    def sites(self) -> list[Point]:
        return [p for p in self.box_sites() if p not in self.deleted]

    @cached_property
    def index(self) -> dict[Point, int]:
        return {p: i for i, p in enumerate(self.sites)}

    @cached_property
    def grid(self) -> np.ndarray:
        """Site index over the box array, -1 at deleted sites."""
        keep = np.ones((2 * self.L + 1,) * self.dimension, dtype=bool)
        for p in self.deleted:
            keep[tuple(c + self.L for c in p)] = False
        return np.where(keep, np.cumsum(keep).reshape(keep.shape) - 1, -1)

    @cached_property
    def hops(self) -> np.ndarray:
        """Neighbor table, shape (n_sites, 2d): row i lists the indices of
        site i's neighbors at -e_0 .. -e_{d-1}, +e_{d-1} .. +e_0, which is
        ascending index order, with n_sites for a neighbor not in the region.
        One shifted view of the -1-padded grid per direction."""
        d, width, keep = self.dimension, 2 * self.L + 1, self.grid >= 0
        padded = np.pad(self.grid, 1, constant_values=-1)

        def shifted(axis, step):
            view = [slice(1, width + 1)] * d
            view[axis] = slice(1 + step, width + 1 + step)
            return padded[tuple(view)][keep]

        table = np.stack([shifted(axis, -1) for axis in range(d)]
                         + [shifted(axis, 1) for axis in reversed(range(d))], axis=1)
        return np.where(table < 0, self.n_sites, table)

    @cached_property
    def band(self) -> tuple[int, np.ndarray]:
        """The LAPACK band layout of H - z for ResolventColumns: kl = ku, the
        largest |i - j| of a hop in hops, and the flat positions of the hops
        in a C-order (n_sites, 3 kl + 1) array, whose transpose is the zgbtrf
        band (entry (i, j) at row 2 kl + i - j of column j).  The positions
        run by column j and then row i, as in CSC order."""
        real = self.hops < self.n_sites
        rows, cols = self.hops[real], np.nonzero(real)[0]
        kl = int(np.max(np.abs(rows - cols), initial=0))
        return kl, cols * (3 * kl + 1) + 2 * kl + rows - cols

    @cached_property
    def box_coords(self) -> np.ndarray:
        """Coordinates of every box site as uint64 hash keys (negatives wrap,
        as in rng), shape (d, 2L+1, ..., 2L+1) in box-array order."""
        box = np.indices((2 * self.L + 1,) * self.dimension) - self.L
        return box.astype(np.uint64)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.index

    def neighbors_in(self, p: Point) -> list[Point]:
        # dict lookups, not hops: the depleted check's independent geometry
        out = []
        for i in range(self.dimension):
            for step in (1, -1):
                q = list(p)
                q[i] += step
                q = tuple(q)
                if q in self.index:
                    out.append(q)
        return out

    def without(self, p: Point) -> "Region":
        p = tuple(p)
        if p not in self.index:
            raise ValueError(f"site {p} is not in the region")
        return replace(self, deleted=self.deleted | {p})

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "L": self.L,
            "deleted": [list(p) for p in sorted(self.deleted)],
        }


def make_region(dimension: int, L: int, deleted: Iterable[Sequence[int]] = ()) -> Region:
    """Region factory validating the deletion list (inside box, no repeats)."""
    dels = [tuple(int(c) for c in p) for p in deleted]
    if len(set(dels)) != len(dels):
        raise ValueError("deletion list contains duplicates")
    return Region(dimension=dimension, L=L, deleted=frozenset(dels))


# --- disorder ---


@dataclass(eq=False)
class DisorderSample:
    """omega over the full box array (deleted sites included, harmlessly).

    Regenerating with the same (region geometry, seed) is bit-identical, and a
    depleted region sees the same values on surviving sites.  with_site_value
    gives a copy with one site resampled, used by the Schur and
    conditional-bound checks.
    """

    region: Region
    seed: int
    omega: np.ndarray  # axis i at coordinate i + L, as in Region.grid

    def __eq__(self, other) -> bool:
        if not isinstance(other, DisorderSample):
            return NotImplemented
        return (self.region == other.region and self.seed == other.seed
                and np.array_equal(self.omega, other.omega))

    def _slot(self, p: Point) -> Point:
        p = tuple(p)
        if len(p) != self.region.dimension or not self.region.in_box(p):
            raise ValueError(f"site {p} outside the sampled box")
        return tuple(c + self.region.L for c in p)

    def value(self, p: Point) -> float:
        return float(self.omega[self._slot(p)])

    def with_site_value(self, p: Point, v: float) -> "DisorderSample":
        if not (-1.0 <= v <= 1.0):
            raise ValueError(f"omega must lie in [-1, 1], got {v}")
        omega = self.omega.copy()
        omega[self._slot(p)] = v
        return DisorderSample(region=self.region, seed=self.seed, omega=omega)

    def vector(self, region: Optional[Region] = None) -> np.ndarray:
        """omega on the region's sites, in the order of region.sites."""
        region = region if region is not None else self.region
        return self.omega[region.grid >= 0]

    def to_json_dict(self) -> dict:
        doc = self.region.to_json_dict()
        doc["seed"] = self.seed
        return doc


def sample_disorder(region: Region, seed: int) -> DisorderSample:
    return DisorderSample(region=region, seed=seed,
                          omega=site_uniform(seed, region.box_coords))


# --- Hamiltonian assembly ---


def build_hamiltonian(region: Region, lam: float, sample: DisorderSample,
                      z: complex = 0.0) -> csc_matrix:
    """H - z = adjacency + diag(lambda omega - z) on the region, canonical
    int32 CSC (real when z is a real float).  Column j is row j of
    Region.hops with j itself inserted at position d, so its rows ascend."""
    n, d = region.n_sites, region.dimension
    diag = lam * sample.vector(region) - z
    rows = np.insert(region.hops, d, np.arange(n), axis=1)
    data = np.insert(np.ones(region.hops.shape, diag.dtype), d, diag, axis=1)
    real = rows < n
    indptr = np.concatenate(([0], np.cumsum(real.sum(axis=1))))
    return csc_matrix((data[real], rows[real].astype(np.int32),
                       indptr.astype(np.int32)), shape=(n, n))


# --- resolvent columns ---


@dataclass
class GreenEvaluation:
    z: complex
    x: Point
    y: Point
    value: complex
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "z": {"re": self.z.real, "im": self.z.imag},
            "x": list(self.x),
            "y": list(self.y),
            "value": {"re": self.value.real, "im": self.value.imag},
            "residual": self.residual,
        }


def _check_residual(z: complex, res: float) -> None:
    """The residual contract: raise unless res is finite and <= 1e-10."""
    if np.isfinite(res) and res <= _RESIDUAL_TOL:
        return
    if z.imag == 0.0:
        raise SingularSystemError(
            f"real z = {z.real} sits at/near an eigenvalue (residual {res:.3e})")
    raise SolverError(f"residual {res:.3e} exceeds {_RESIDUAL_TOL:.1e} at z = {z}")


def _unit_columns(region: Region, ys: Sequence[Point]) -> np.ndarray:
    """delta_{ys[j]} in column j, over region sites."""
    rhs = np.zeros((region.n_sites, len(ys)), dtype=complex, order="F")
    for j, y in enumerate(ys):
        iy = region.index.get(tuple(y))
        if iy is None:
            raise ValueError(f"site {y} is not in the region")
        rhs[iy, j] = 1.0
    return rhs


def _residual(region: Region, diag: np.ndarray, u: np.ndarray,
              rhs: np.ndarray) -> np.ndarray:
    """(H - z) u - rhs for g samples at once, from Region.hops, not the
    band: u[:, i] is sample i's (n_sites, k) solution for rhs, and diag[:, i]
    its diagonal lambda omega - z.  The hops are summed in ascending neighbor
    order, a sparse product's order, over u padded with a zero row."""
    padded = np.concatenate((u, np.zeros_like(u[:1])))
    hops = padded.take(region.hops[:, 0], axis=0)
    for nbr in region.hops.T[1:]:
        hops += padded.take(nbr, axis=0)
    return hops + diag[:, :, None] * u - rhs[:, None]


class ResolventColumns:
    """Banded LU factorization of (H - z) on one region for one disorder
    sample.

    omega is the sample's box array (DisorderSample.omega).  H - z is laid
    out in the band of Region.band and factored once by LAPACK zgbtrf
    (partial pivoting, always in complex); a column is then one zgbtrs solve
    with the stored factor.
    """

    def __init__(self, region: Region, lam: float, omega: np.ndarray, z: complex):
        if region.n_sites == 0:
            raise ValueError("region has no sites")
        self.region = region
        self.z = complex(z)
        self._kl, hops = region.band
        self._diag = lam * omega[region.grid >= 0] - self.z
        ab = np.zeros((region.n_sites, 3 * self._kl + 1), dtype=complex)
        ab.reshape(-1)[hops] = 1.0
        ab[:, 2 * self._kl] = self._diag
        self._lu, self._piv, info = zgbtrf(ab.T, self._kl, self._kl, overwrite_ab=1)
        if info > 0:  # exactly zero pivot
            raise SingularSystemError(
                f"(H - z) singular at z = {self.z}: zero pivot {info} of zgbtrf")

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """(H - z)^{-1} rhs for (n_sites, k) right-hand sides."""
        u, _ = zgbtrs(self._lu, self._kl, self._kl, rhs, self._piv)
        return u

    def columns(self, ys: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
        """u[:, j] = (H - z)^{-1} delta_{ys[j]} over region sites, and each
        column's residual norm, shape (len(ys),).  A column above 1e-10 is
        refined once; one that still is raises SolverError
        (SingularSystemError at real z)."""
        rhs = _unit_columns(self.region, ys)

        def residual(u):  # the one-sample case of _residual
            return _residual(self.region, self._diag[:, None], u[:, None], rhs)[:, 0]

        u = self._solve(rhs)
        r = residual(u)
        res = np.linalg.norm(r, axis=0)
        rough = res > _RESIDUAL_TOL
        if rough.any():  # one refinement step, on the columns that need it
            u = np.where(rough, u - self._solve(r), u)
            res = np.linalg.norm(residual(u), axis=0)
        _check_residual(self.z, float(np.max(res)))  # NaN propagates to the max
        return u, res

    def column(self, y: Point) -> tuple[np.ndarray, float]:
        """The column at y, with its residual."""
        u, res = self.columns([y])
        return u[:, 0], float(res[0])


def _group_columns(region: Region, lam: float, omegas: Sequence[np.ndarray],
                   z: complex, ys: list[Point], rhs: np.ndarray) -> np.ndarray:
    """ResolventColumns(region, lam, omega, z).columns(ys)[0] of each omega,
    stacked on axis 1.  Each sample is factored and solved once, and its
    factor dropped; one residual over the group checks them all.  A sample
    with a column above 1e-10 or not finite is factored again and goes
    through columns, which refines it once or raises."""
    (n, k), g = rhs.shape, len(omegas)
    u, diag = np.empty((n, g, k), dtype=complex), np.empty((n, g), dtype=complex)
    for i, omega in enumerate(omegas):
        factor = ResolventColumns(region, lam, omega, z)
        u[:, i] = factor._solve(rhs)
        diag[:, i] = factor._diag
    ok = np.linalg.norm(_residual(region, diag, u, rhs), axis=0) <= _RESIDUAL_TOL
    for i in np.flatnonzero(~ok.all(axis=1)):
        u[:, i] = ResolventColumns(region, lam, omegas[i], z).columns(ys)[0]
    return u


def resolvent_entries(region: Region, lam: float, omegas: Iterable[np.ndarray],
                      z: complex, pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
    """G_z(x, y) for every sample (rows) and (x, y) of pairs (columns), both
    points in the region.  omegas yields the samples' box arrays; each is
    factored once and solved with one column per distinct y.  The residual
    contract is checked for a group of samples at a time (_GROUP_BYTES of
    solutions), and a sample that misses it is refined on its own, with
    ResolventColumns.columns' values and errors."""
    ys = list(dict.fromkeys(tuple(y) for _, y in pairs))
    rows = [region.index[tuple(x)] for x, _ in pairs]
    cols = [ys.index(tuple(y)) for _, y in pairs]
    rhs = _unit_columns(region, ys)
    omegas, size = iter(omegas), max(1, _GROUP_BYTES // rhs.nbytes)
    out = [np.empty((0, len(pairs)), dtype=complex)]
    while group := list(itertools.islice(omegas, size)):
        out.append(_group_columns(region, lam, group, z, ys, rhs)[rows, :, cols].T)
    return np.concatenate(out)


def green(region: Region, lam: float, sample: DisorderSample, z: complex,
          x, y) -> GreenEvaluation:
    """G_z(x, y) on the region; zero by convention off the region."""
    x, y = tuple(int(c) for c in x), tuple(int(c) for c in y)
    if x not in region.index or y not in region.index:
        return GreenEvaluation(z=complex(z), x=x, y=y, value=0j, residual=0.0)
    u, res = ResolventColumns(region, lam, sample.omega, z).column(y)
    return GreenEvaluation(z=complex(z), x=x, y=y,
                           value=complex(u[region.index[x]]), residual=res)


# --- identity verifiers ---


def verify_depleted_identity(region: Region, lam: float, sample: DisorderSample,
                             z: complex, x, y) -> float:
    """Relative discrepancy of the one-step depletion identity at (x, y).

    The two sides come from two independent solvers: G(x, y) and G(x, x)
    from one banded ResolventColumns on the region, and the sum over the
    neighbors of x from a sparse LU (splu) on the region with x deleted.
    """
    x, y, z = tuple(x), tuple(y), complex(z)
    if x == y:
        raise ValueError("the one-step identity needs x != y")
    if x not in region.index or y not in region.index:
        return 0.0  # both sides vanish: G is zero off the region
    gxx, lhs = resolvent_entries(region, lam, [sample.omega], z,
                                 [(x, x), (x, y)])[0]
    depleted = region.without(x)
    nbrs = region.neighbors_in(x)
    total = 0j
    if nbrs:
        a = build_hamiltonian(depleted, lam, sample, z)
        b = np.zeros(depleted.n_sites, dtype=complex)
        b[depleted.index[y]] = 1.0
        try:
            u = splu(a).solve(b)
        except RuntimeError as exc:  # exactly singular factorization
            raise SingularSystemError(f"(H - z) singular at z = {z}: {exc}") from exc
        _check_residual(z, float(np.linalg.norm(a @ u - b)))
        total = sum(u[depleted.index[q]] for q in nbrs)
    rhs = -gxx * total
    return float(abs(lhs - rhs) / max(abs(lhs), _EPS))


def verify_schur_diagonal(region: Region, lam: float, sample: DisorderSample,
                          z: complex, x) -> float:
    """Relative change of B = lambda omega(x) - 1/G(x, x) with omega(x).

    Recomputes B at B0 = B(omega(x)) and B1 = B(omega(x) -+ 1) (whichever
    stays in [-1, 1]) with every other site fixed, and returns
    |B0 - B1| / max(|B0|, |B1|); exactly, B does not depend on omega(x).
    """
    x = tuple(x)
    if x not in region.index:
        raise ValueError(f"site {x} is not in the region")
    v1 = sample.value(x)
    vs = (v1, v1 - 1.0 if v1 >= 0.0 else v1 + 1.0)
    omegas = (sample.with_site_value(x, v).omega for v in vs)
    gxx = resolvent_entries(region, lam, omegas, z, [(x, x)])[:, 0]
    bs = [lam * v - 1.0 / complex(g) for v, g in zip(vs, gxx)]
    return float(abs(bs[0] - bs[1]) / max(abs(bs[0]), abs(bs[1]), _EPS))


def verify_resolvent_expansion(region: Region, lam: float, sample: DisorderSample,
                               z: complex, x) -> float:
    """Entrywise discrepancy of the full resolvent expansion at site x.

    A^{-1} is every column of the region's banded factor.  B^{-1} is
    1/(lambda omega(x) - z) at (x, x) beside every column of the factor of
    the region minus x, and A^{-1} T B^{-1}, T the hops between x and its
    neighbors, is two outer products.  Returns
    max |A^{-1} - (B^{-1} - A^{-1} T B^{-1})| / max |A^{-1}|.
    """
    x, z = tuple(x), complex(z)
    if region.n_sites > 2000:  # two dense n x n arrays of columns
        raise ValueError("expansion check is for small regions")
    if x not in region.index:
        raise ValueError(f"site {x} is not in the region")
    ix = region.index[x]
    a_inv = ResolventColumns(region, lam, sample.omega, z).columns(region.sites)[0]
    b_inv = np.zeros_like(a_inv)
    b_inv[ix, ix] = 1.0 / (lam * sample.value(x) - z)
    depleted = region.without(x)
    if depleted.n_sites:
        rest = [region.index[p] for p in depleted.sites]
        b_inv[np.ix_(rest, rest)] = ResolventColumns(
            depleted, lam, sample.omega, z).columns(depleted.sites)[0]
    nbrs = [region.index[q] for q in region.neighbors_in(x)]
    at_b = (np.outer(a_inv[:, ix], b_inv[nbrs].sum(axis=0))
            + np.outer(a_inv[:, nbrs].sum(axis=1), b_inv[ix]))
    rhs = b_inv - at_b
    return float(np.max(np.abs(a_inv - rhs)) / np.max(np.abs(a_inv)))
