"""Counter-based randomness: every variate is a pure function of its key.

The disorder value at a lattice site is derived by hashing (seed, site
coordinates) through a splitmix64-style mixer, and Monte Carlo sample k draws
its seed from (seed, k).  Consequences relied on elsewhere:

  * regenerating a sample from (region, seed) is bit-identical, on any
    platform and for any worker count;
  * a depleted region sees exactly the same disorder on the surviving sites,
    which the resolvent-identity checks require;
  * resampling a single site is a pure function update, nothing is advanced.

Integer arithmetic only; floats appear only in the final [-1, 1) mapping,
which uses the top 53 bits of the hash.  A key part may also be a uint64
array (int64 coordinates cast, which wraps negatives as `& _MASK` does): the
same code then hashes a whole box at once, bit-identical to the scalar key.
So may the seed: a uint64 column of sample seeds, shaped to broadcast
against the coordinate arrays, hashes a block of boxes at once.
"""

from __future__ import annotations

from typing import Iterable

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """splitmix64 finalizer: bijective 64-bit mixer of an int or uint64 array."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fold(seed: int, parts: Iterable):
    h = mix64(seed & _MASK)
    for p in parts:
        h = mix64(h ^ (p & _MASK))
    return h


def unit_open(seed: int, parts: Iterable):
    """Uniform variate in [0, 1) keyed by (seed, parts)."""
    return (_fold(seed, parts) >> 11) * 2.0**-53


def site_uniform(seed: int, site: Iterable):
    """Disorder variate omega(site) uniform on [-1, 1)."""
    return 2.0 * unit_open(seed, site) - 1.0


def substream(seed: int, index: int) -> int:
    """Seed for Monte Carlo substream `index` of the run seed."""
    return _fold(seed, (index,))
