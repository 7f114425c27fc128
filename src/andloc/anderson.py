"""Finite-volume Anderson Hamiltonians and their Green's functions.

The operator on a finite region Lambda of Z^d (a centered box with optional
site deletions, free boundary conditions) is

    (H psi)(x) = sum_{|x'-x|=1, x' in Lambda} psi(x') + lambda omega(x) psi(x),

with omega(x) i.i.d. uniform on [-1, 1].  Green's functions are matrix
elements of the resolvent,

    G_z(x, y) = <delta_x, (H - z)^{-1} delta_y>,

computed by a direct sparse complex factorization, one column per right-hand
side, with the residual recorded.  G_z(x, y) = 0 by convention when x or y is
outside the region.

Two exact operator identities are exposed as verifiers (both sides computed
independently, discrepancy returned):

  * depleted one-step identity, for x != y:
        G(x, y) = -G(x, x) * sum_{x' ~ x} G^{(Lambda \\ {x})}(x', y)
  * full resolvent expansion through the decoupled operator
        B = H^{({x})} (+) H^{(Lambda \\ {x})} - z:
        A^{-1} = B^{-1} - A^{-1} (sum_{x' ~ x} T_{x,x'}) B^{-1},
    with T_{x,x'} the elementary hop between x and x'.

The Schur complement behind both: G(x, x) = 1/(lambda omega(x) - B(x, omega))
where B(x, omega) does not depend on omega(x); verify_schur_diagonal checks
that independence by recomputing B at two values of omega(x).

Disorder is counter-based (see rng): omega(x) is a pure function of
(seed, x), so samples regenerate bit-identically and restrict consistently
to depleted regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from .rng import site_uniform

Point = tuple[int, ...]

_RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


class SolverError(Exception):
    """Linear solve failed to reach the residual contract."""


class SingularSystemError(SolverError):
    """(H - z) is singular or numerically singular (real z at an eigenvalue)."""


# --- geometry ---


@dataclass(frozen=True)
class Region:
    """Centered box [-L, L]^d minus a set of deleted sites.

    Surviving sites are indexed 0..n_sites-1 in lexicographic box order; the
    bijection is stable under serialization round-trips.
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

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def __contains__(self, p) -> bool:
        return tuple(p) in self.index

    def neighbors_in(self, p: Point) -> list[Point]:
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


def region_from_json_dict(doc: dict) -> Region:
    return make_region(int(doc["dimension"]), int(doc["L"]), doc.get("deleted", ()))


# --- disorder ---


@dataclass
class DisorderSample:
    """omega over the full box (deleted sites included, harmlessly).

    Regenerating with the same (region geometry, seed) is bit-identical, and a
    depleted region sees the same values on surviving sites.  overrides holds
    explicit per-site resamplings (with_site_value), used by the Schur and
    conditional-bound checks.
    """

    region: Region
    seed: int
    omega: dict[Point, float]

    def value(self, p: Point) -> float:
        return self.omega[tuple(p)]

    def with_site_value(self, p: Point, v: float) -> "DisorderSample":
        if not (-1.0 <= v <= 1.0):
            raise ValueError(f"omega must lie in [-1, 1], got {v}")
        p = tuple(p)
        if p not in self.omega:
            raise ValueError(f"site {p} outside the sampled box")
        omega = dict(self.omega)
        omega[p] = v
        return DisorderSample(region=self.region, seed=self.seed, omega=omega)

    def vector(self, region: Optional[Region] = None) -> np.ndarray:
        region = region if region is not None else self.region
        return np.array([self.omega[p] for p in region.sites], dtype=float)

    def to_json_dict(self) -> dict:
        doc = self.region.to_json_dict()
        doc["seed"] = self.seed
        return doc


def sample_disorder(region: Region, seed: int) -> DisorderSample:
    omega = {p: site_uniform(seed, p) for p in region.box_sites()}
    return DisorderSample(region=region, seed=seed, omega=omega)


def sample_from_json_dict(doc: dict) -> DisorderSample:
    return sample_disorder(region_from_json_dict(doc), int(doc["seed"]))


# --- Hamiltonian assembly ---


@lru_cache(maxsize=64)
def _hop_template(region: Region) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of all nearest-neighbor hops inside the region."""
    rows, cols = [], []
    index = region.index
    for p, i in index.items():
        for axis in range(region.dimension):
            q = list(p)
            q[axis] += 1
            j = index.get(tuple(q))
            if j is not None:
                rows += [i, j]
                cols += [j, i]
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def _assemble(region: Region, diag: np.ndarray) -> csr_matrix:
    n = region.n_sites
    rows, cols = _hop_template(region)
    diag_idx = np.arange(n, dtype=np.int64)
    data = np.concatenate([np.ones(len(rows), dtype=diag.dtype), diag])
    all_rows = np.concatenate([rows, diag_idx])
    all_cols = np.concatenate([cols, diag_idx])
    return csr_matrix((data, (all_rows, all_cols)), shape=(n, n))


def build_hamiltonian(region: Region, lam: float, sample: DisorderSample) -> csr_matrix:
    """Sparse real symmetric H = adjacency + lambda * diag(omega) on the region."""
    return _assemble(region, lam * sample.vector(region))


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


class ResolventColumns:
    """Factorization of (H - z) on a region, reusable across right-hand sides."""

    def __init__(self, region: Region, lam: float, sample: DisorderSample, z: complex):
        if region.n_sites == 0:
            raise ValueError("region has no sites")
        self.region = region
        self.z = complex(z)
        diag = lam * sample.vector(region) - self.z
        self._a = csc_matrix(_assemble(region, diag.astype(complex)))
        try:
            self._lu = splu(self._a)
        except RuntimeError as exc:  # exactly singular factorization
            raise SingularSystemError(
                f"(H - z) singular at z = {self.z}: {exc}") from exc

    def column(self, y: Point) -> tuple[np.ndarray, float]:
        """u = (H - z)^{-1} delta_y over region sites, with its residual."""
        iy = self.region.index.get(tuple(y))
        if iy is None:
            raise ValueError(f"site {y} is not in the region")
        b = np.zeros(self.region.n_sites, dtype=complex)
        b[iy] = 1.0
        u = self._lu.solve(b)
        # one step of iterative refinement tightens marginal solves
        r = self._a @ u - b
        res = float(np.linalg.norm(r))
        if res > _RESIDUAL_TOL:
            u = u - self._lu.solve(r)
            r = self._a @ u - b
            res = float(np.linalg.norm(r))
        if not np.isfinite(res) or res > _RESIDUAL_TOL:
            if self.z.imag == 0.0:
                raise SingularSystemError(
                    f"real z = {self.z.real} sits at/near an eigenvalue "
                    f"(residual {res:.3e})")
            raise SolverError(
                f"residual {res:.3e} exceeds {_RESIDUAL_TOL:.1e} at z = {self.z}")
        return u, res


def green_column(region: Region, lam: float, sample: DisorderSample, z: complex,
                 y: Point) -> tuple[np.ndarray, float]:
    return ResolventColumns(region, lam, sample, z).column(y)


def green(region: Region, lam: float, sample: DisorderSample, z: complex,
          x, y) -> GreenEvaluation:
    """G_z(x, y) on the region; zero by convention off the region."""
    x, y = tuple(int(c) for c in x), tuple(int(c) for c in y)
    if x not in region.index or y not in region.index:
        return GreenEvaluation(z=complex(z), x=x, y=y, value=0j, residual=0.0)
    u, res = green_column(region, lam, sample, z, y)
    return GreenEvaluation(z=complex(z), x=x, y=y,
                           value=complex(u[region.index[x]]), residual=res)


# --- identity verifiers ---


def verify_depleted_identity(region: Region, lam: float, sample: DisorderSample,
                             z: complex, x, y) -> float:
    """Relative discrepancy of the one-step depletion identity at (x, y).

    Both sides are computed from independent solves: the left from G on the
    region, the right from G(x, x) and a solve on the region with x deleted.
    """
    x, y = tuple(x), tuple(y)
    if x == y:
        raise ValueError("the one-step identity needs x != y")
    lhs = green(region, lam, sample, z, x, y).value
    if x not in region.index:
        rhs = 0j
    else:
        gxx = green(region, lam, sample, z, x, x).value
        depleted = region.without(x)
        nbrs = [q for q in region.neighbors_in(x)]
        if nbrs and y in depleted.index:
            u, _ = green_column(depleted, lam, sample, z, y)
            total = sum(u[depleted.index[q]] for q in nbrs)
        else:
            total = 0j
        rhs = -gxx * total
    return abs(lhs - rhs) / max(abs(lhs), _EPS)


def verify_schur_diagonal(region: Region, lam: float, sample: DisorderSample,
                          z: complex, x,
                          omega_values: Optional[tuple[float, float]] = None,
                          rel_tol: float = 1e-9) -> bool:
    """Check that B = lambda omega(x) - 1/G(x, x) does not depend on omega(x).

    Recomputes B at two distinct omega(x) values with every other site fixed;
    True iff they agree to rel_tol.
    """
    x = tuple(x)
    if x not in region.index:
        raise ValueError(f"site {x} is not in the region")
    if omega_values is None:
        v1 = sample.value(x)
        v2 = v1 - 1.0 if v1 >= 0.0 else v1 + 1.0
        omega_values = (v1, v2)
    v1, v2 = omega_values
    if v1 == v2:
        raise ValueError("need two distinct omega(x) values")
    bs = []
    for v in (v1, v2):
        s = sample.with_site_value(x, v)
        gxx = green(region, lam, s, z, x, x).value
        bs.append(lam * v - 1.0 / gxx)
    return abs(bs[0] - bs[1]) <= rel_tol * max(abs(bs[0]), abs(bs[1]))


def verify_resolvent_expansion(region: Region, lam: float, sample: DisorderSample,
                               z: complex, x) -> float:
    """Entrywise discrepancy of the full resolvent expansion at site x.

    Assembles B = H^{({x})} (+) H^{(Lambda \\ {x})} - z and the elementary
    hops T_{x,x'} explicitly, inverts densely (small regions only), and
    returns max |A^{-1} - (B^{-1} - A^{-1} T B^{-1})| / max |A^{-1}|.
    """
    x = tuple(x)
    n = region.n_sites
    if n > 2000:
        raise ValueError("dense expansion check is for small regions")
    if x not in region.index:
        raise ValueError(f"site {x} is not in the region")
    ix = region.index[x]
    h = build_hamiltonian(region, lam, sample).toarray().astype(complex)
    a = h - complex(z) * np.eye(n)

    b = a.copy()
    b[ix, :] = 0.0
    b[:, ix] = 0.0
    b[ix, ix] = a[ix, ix]  # lambda omega(x) - z survives in the {x} block

    t = np.zeros_like(a)
    for q in region.neighbors_in(x):
        t_elem = np.zeros_like(a)
        t_elem[ix, region.index[q]] = 1.0
        t_elem[region.index[q], ix] = 1.0
        t += t_elem

    a_inv = np.linalg.inv(a)
    b_inv = np.linalg.inv(b)
    rhs = b_inv - a_inv @ t @ b_inv
    return float(np.max(np.abs(a_inv - rhs)) / np.max(np.abs(a_inv)))
