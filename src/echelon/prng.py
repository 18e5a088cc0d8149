"""Deterministic randomness: SplitMix64 and exact geometric sampling.

The generator is SplitMix64 ("splitmix64/edge-v1" for the per-edge keying
scheme below).  Everything is defined on plain Python integers first; the
numpy kernel replays the identical arithmetic on uint64 arrays and is
pinned to the scalar path by tests.

The kernel takes arrays of pairs.  The first two finalizer rounds of
``edge_bits`` absorb only the seed and the lesser endpoint, so together
they are a per-point key.  The kernel computes that key once per point and
gathers it (``all_edge_colours``) or broadcasts it (``pair_colours``) to
the pairs; only the last round and the inverse-CDF search run once per
pair.

Geometric sampling is done by inversion of the CDF at 64-bit resolution
with exact integer thresholds: colour i has probability
(t_i - t_{i-1}) / 2^64 where t_i = floor((1 - (1-p)^i) * 2^64).  The error
against the ideal law (1-p)^{i-1} p is below 2^-64 per colour and the tail
beyond the last representable threshold is lumped into the final index.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def edge_bits(seed: int, u: int, v: int) -> int:
    """64 uniform bits for the unordered pair {u, v} under ``seed``.

    Scheme "splitmix64/edge-v1": normalize u < v, then three chained
    finalizer rounds absorbing seed and both endpoints.  Pure function, so
    generation order and thread scheduling cannot change a graph.
    """
    a, b = (u, v) if u < v else (v, u)
    z = mix64((seed & MASK64) ^ GOLDEN)
    z = mix64(z ^ (((a + 1) * GOLDEN) & MASK64))
    z = mix64(z ^ (((b + 1) * MIX1) & MASK64))
    return z


@lru_cache(maxsize=None)
def geometric_thresholds(p: Fraction) -> tuple[int, ...]:
    """Ascending CDF thresholds for the geometric law with parameter p.

    colour(r) = bisect_right(thresholds, r) + 1 for r uniform in [0, 2^64).
    """
    if not isinstance(p, Fraction):
        raise TypeError("p must be a Fraction")
    if not (0 < p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    scale = 1 << 64
    q = 1 - p
    acc = q  # q^i
    out: list[int] = []
    while True:
        tail = -(-(acc.numerator * scale) // acc.denominator)  # ceil(q^i * 2^64)
        t = scale - tail
        if out and t <= out[-1]:
            break
        out.append(t)
        if tail <= 1:
            break
        acc *= q
    return tuple(out)


def geometric_colour(p: Fraction, r: int) -> int:
    """Colour index >= 1 for 64 uniform bits ``r``."""
    return bisect_right(geometric_thresholds(p), r) + 1


def edge_colour(p: Fraction, seed: int, u: int, v: int) -> int:
    return geometric_colour(p, edge_bits(seed, u, v))


# --- vectorized replay (uint64, wrapping arithmetic) ---

_G = np.uint64(GOLDEN)
_M1 = np.uint64(MIX1)
_M2 = np.uint64(MIX2)
_ONE = np.uint64(1)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


@lru_cache(maxsize=None)
def _threshold_array(p: Fraction) -> np.ndarray:
    out = np.array(geometric_thresholds(p), dtype=np.uint64)
    out.setflags(write=False)
    return out


def _point_keys(seed: int, points: np.ndarray) -> np.ndarray:
    """The first two finalizer rounds of :func:`edge_bits` for each point
    as the lesser endpoint; they read nothing else."""
    z0 = np.uint64(mix64((seed & MASK64) ^ GOLDEN))
    with np.errstate(over="ignore"):
        return _mix64_vec(z0 ^ ((points.astype(np.uint64) + _ONE) * _G))


def _colours(p: Fraction, keys: np.ndarray, greater: np.ndarray) -> np.ndarray:
    """Absorb the greater endpoint into the lesser one's key, then invert
    the CDF: the colour of each pair."""
    with np.errstate(over="ignore"):
        bits = _mix64_vec(keys ^ ((greater.astype(np.uint64) + _ONE) * _M1))
    return np.searchsorted(_threshold_array(p), bits, side="right") + 1


def pair_colours(p: Fraction, seed: int, u, v) -> np.ndarray:
    """Colours of the pairs {u, v} over broadcast integer arrays of
    distinct points, in either order.  Matches :func:`edge_colour` entry by
    entry.  Point keys are computed on u and on v before they broadcast, so
    a block of candidates against a few fixed points costs one key per
    candidate and per fixed point."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = np.where(u < v, _point_keys(seed, u), _point_keys(seed, v))
    return _colours(p, keys, np.maximum(u, v))


def all_edge_colours(p: Fraction, seed: int, n: int) -> np.ndarray:
    """Colours for every pair {i, j} of range(n), i < j.

    Flat layout: pair (i, j) at index j*(j-1)//2 + i.  Matches the scalar
    :func:`edge_colour` entry by entry.
    """
    points = np.arange(n, dtype=np.int64)
    j = np.repeat(points, points)  # row j holds the j pairs below it
    i = np.arange(j.size, dtype=np.int64) - np.repeat(points * (points - 1) // 2, points)
    return _colours(p, _point_keys(seed, points)[i], j)


class SplitMix64Stream:
    """Sequential SplitMix64 stream for miscellaneous seeded choices."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def randrange(self, k: int) -> int:
        """Uniform integer in [0, k) by rejection."""
        if k <= 0:
            raise ValueError("k must be positive")
        limit = (MASK64 + 1) - (MASK64 + 1) % k
        while True:
            r = self.next_u64()
            if r < limit:
                return r % k
