"""Deterministic randomness: SplitMix64 and exact geometric sampling.

The generator is SplitMix64 ("splitmix64/edge-v1" for the per-edge keying
scheme below).  Everything is defined on plain Python integers first; the
numpy kernel replays the identical arithmetic on uint64 arrays.  The one
scalar path is ``colgraph.GeometricColouring.edge_colour``: the bits of
:func:`keyed_bits` under the seed's :func:`seed_key`, inverted by binary
search over the law's thresholds.  Tests pin it and the kernel to an
independent reference.

The kernel takes arrays of pairs.  The first two finalizer rounds of an
edge's bits absorb only the seed and the lesser endpoint, so together
they are a per-point key.  The kernel computes that key once per point and
gathers it (``_colour_blocks``) or broadcasts it (``pair_colours``) to
the pairs, and the greater endpoint's term likewise; only the last round
and the inversion run once per pair.  ``_colour_blocks`` is the one walk
over the rows of the flat layout, in blocks of about ``BLOCK_PAIRS``
pairs: ``all_edge_colours`` writes each block's colours into its slice of
the output, so its peak memory is about the output plus one block, and
the random limit model marks the colours it sees.  Both paths compute the
seed's round, the first, once (:func:`seed_key`): the kernel per call, and
a colouring per object, which keeps the key and the thresholds and runs
the other two rounds in :func:`keyed_bits` per pair.

Every kernel colour array has the narrowest unsigned dtype that holds every
colour of its law, ``np.min_scalar_type(len(thresholds) + 1)``: uint8 at
p = 1/2, uint16 at p = 1/256.  Its items read back as exact ints through
``tolist()``, or as a tuple in one ``struct.unpack`` of the array's own
buffer in its native item format (``memoryview(a).format``), as
``colgraph.random_coloured_graph`` builds ``chi``.

The kernel indexes with intp arrays only.  numpy casts any other index
array to intp item by item first, which costs about as much again as the
gather itself; the guide table's bucket numbers are below 2^16, so their
uint64 array is read as intp by ``view``, without a copy.

Geometric sampling is done by inversion of the CDF at 64-bit resolution
with exact integer thresholds: colour i has probability
(t_i - t_{i-1}) / 2^64 where t_i = floor((1 - (1-p)^i) * 2^64).  The error
against the ideal law (1-p)^{i-1} p is below 2^-64 per colour and the tail
beyond the last representable threshold is lumped into the final index.
The scalar path inverts by binary search.  The kernel inverts through a
guide table over the top bits of the draw (Chen and Asau, 1974): a bucket
that no threshold splits gives the colour in one lookup, and the draws in
the few buckets that a threshold splits fall back to the exact binary
search, so both paths give the same colour for every draw.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, NamedTuple

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
# Most pairs the colour kernels colour at once: _colour_blocks per block of
# rows, the one row walk behind all_edge_colours and the random limit
# model's label scan, and the random limit model per witness scan.
BLOCK_PAIRS = 1 << 16


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def seed_key(seed: int) -> int:
    """The first finalizer round of an edge's bits, which reads only the
    seed, taken mod 2^64."""
    return mix64((seed & MASK64) ^ GOLDEN)


def keyed_bits(key: int, u: int, v: int) -> int:
    """64 uniform bits for the unordered pair {u, v} under the seed whose
    :func:`seed_key` is ``key``.

    Scheme "splitmix64/edge-v1": normalize u < v, then three chained
    finalizer rounds absorbing seed and both endpoints; the first is the
    key, and the two that absorb the endpoints are :func:`mix64` written
    out here.  Pure function, so generation order and thread scheduling
    cannot change a graph.  A caller that colours many pairs under one
    seed keeps its key."""
    a, b = (u, v) if u < v else (v, u)
    z = key ^ (((a + 1) * GOLDEN) & MASK64)
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    z ^= (z >> 31) ^ (((b + 1) * MIX1) & MASK64)
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def geometric_thresholds(p: Fraction) -> tuple[int, ...]:
    """Ascending CDF thresholds for the geometric law with parameter p.

    colour(r) = bisect_right(thresholds, r) + 1 for r uniform in [0, 2^64).
    The powers of q = 1 - p are kept as a numerator and a denominator that
    are never reduced: the ceiling below needs no lowest terms.
    """
    if not isinstance(p, Fraction):
        raise TypeError("p must be a Fraction")
    if not (0 < p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    scale = 1 << 64
    a, b = p.denominator - p.numerator, p.denominator  # q = a/b
    num, den = a, b  # q^i = num/den
    out: list[int] = []
    while True:
        tail = -(-(num * scale) // den)  # ceil(q^i * 2^64)
        t = scale - tail
        if out and t <= out[-1]:
            break
        out.append(t)
        if tail <= 1:
            break
        num *= a
        den *= b
    return tuple(out)


class _Law(NamedTuple):
    """What the scalar and vector inversions read for one colour rate."""

    thresholds: tuple[int, ...]
    array: np.ndarray  # the thresholds as uint64
    shift: np.uint64  # 64 - b: r >> shift is r's guide bucket
    guide: np.ndarray  # [2^b] of the colour dtype: each bucket's colour, 0 where it varies


@lru_cache(maxsize=None)
def _law(num: int, den: int) -> _Law:
    """The inversion tables at p = num/den, the one cache of a rate's
    thresholds: the kernel reads it once per call, a colouring once per
    object and the random model's alphabet once per rate.  Keyed by two
    ints, which a caller reads off its Fraction, because hashing a
    Fraction costs a modular inverse and buys nothing here.  The
    thresholds are built through the module's ``geometric_thresholds``.

    Guide table (Chen and Asau): bucket k holds the draws whose top b bits
    are k, b = clamp(bit_length(T) + 4, 8, 16) for T thresholds.  A bucket
    [first, last] with no threshold in (first, last] has one colour, which
    it stores; the others store 0 and send their draws to the binary
    search.  At p = 1/2 every threshold below the top bucket falls on a
    bucket boundary, so only the top bucket, under 0.1% of the draws, is
    searched.  The table's dtype is the law's colour dtype, the narrowest
    unsigned one that holds the greatest colour, len(thresholds) + 1."""
    ts = geometric_thresholds(Fraction(num, den))
    array = np.array(ts, dtype=np.uint64)
    b = min(max(len(ts).bit_length() + 4, 8), 16)
    shift = np.uint64(64 - b)
    first = np.arange(1 << b, dtype=np.uint64) << shift
    below = np.searchsorted(array, first, side="right")
    upto = np.searchsorted(array, first | np.uint64((1 << (64 - b)) - 1), side="right")
    guide = np.where(below == upto, below + 1, 0).astype(np.min_scalar_type(len(ts) + 1))
    array.setflags(write=False)
    guide.setflags(write=False)
    return _Law(ts, array, shift, guide)


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


def _point_keys(seed: int, points: np.ndarray) -> np.ndarray:
    """The first two finalizer rounds of an edge's bits for each point as
    the lesser endpoint; they read nothing else."""
    with np.errstate(over="ignore"):
        return _mix64_vec(np.uint64(seed_key(seed)) ^ ((points.astype(np.uint64) + _ONE) * _G))


def _greater_terms(points: np.ndarray) -> np.ndarray:
    """What each point XORs into the lesser key as the greater endpoint."""
    with np.errstate(over="ignore"):
        return (points.astype(np.uint64) + _ONE) * _M1


def _invert(p: Fraction, bits: np.ndarray) -> np.ndarray:
    """The colour of each 64-bit draw, any shape: one guide-table gather
    per draw, and the binary search only for the draws in buckets that a
    threshold splits.  Works on flat views, so the shape comes back
    unchanged, in the law's colour dtype: that of its guide table,
    ``np.min_scalar_type(len(thresholds) + 1)``."""
    law = _law(p.numerator, p.denominator)
    flat = bits.ravel()
    colours = law.guide[(flat >> law.shift).view(np.intp)]  # exact: a bucket is below 2^16
    miss = np.flatnonzero(colours == 0)
    colours[miss] = np.searchsorted(law.array, flat[miss], side="right") + 1
    return colours.reshape(bits.shape)


def pair_colours(p: Fraction, seed: int, u, v) -> np.ndarray:
    """Colours of the pairs {u, v} over broadcast integer arrays of
    distinct points, in either order, in the law's colour dtype (see
    :func:`_invert`).  Matches the scalar colour entry by entry.  Point
    keys are computed on u and on v before they broadcast, so a block of
    candidates against a few fixed points costs one key per candidate and
    per fixed point."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    z = np.where(u < v, _point_keys(seed, u), _point_keys(seed, v))
    z ^= _greater_terms(np.maximum(u, v))
    return _invert(p, _mix64_vec(z))


def _colour_blocks(p: Fraction, seed: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The colours of every pair {i, j} of range(n), i < j, in the flat
    layout of :func:`all_edge_colours`, as (offset, colours) blocks of
    whole rows: at most ``BLOCK_PAIRS`` pairs a block (or one row, if
    longer).  Both endpoints' terms are computed once per point; a block
    gathers the lesser keys of its rows and repeats their greater terms."""
    points = np.arange(n, dtype=np.int64)
    keys = _point_keys(seed, points)
    terms = _greater_terms(points)
    j = 1
    while j < n:
        lo = j * (j - 1) // 2
        # the greatest stop with rows j..stop-1 in BLOCK_PAIRS pairs, past j
        stop = min(max(j + 1, (1 + isqrt(1 + 8 * (lo + BLOCK_PAIRS))) // 2), n)
        z = np.concatenate([keys[:row] for row in range(j, stop)])
        z ^= np.repeat(terms[j:stop], points[j:stop])
        yield lo, _invert(p, _mix64_vec(z))
        j = stop


def all_edge_colours(p: Fraction, seed: int, n: int) -> np.ndarray:
    """Colours for every pair {i, j} of range(n), i < j.

    Flat layout: pair (i, j) at index j*(j-1)//2 + i, so row j is the
    slice from j*(j-1)//2 of the j pairs below j.  Matches the scalar
    colour entry by entry.  The dtype is the law's colour
    dtype, ``np.min_scalar_type(len(thresholds) + 1)``: one byte a pair at
    p = 1/2, two at p = 1/256.  Each block of rows from ``_colour_blocks``
    is written into its slice of the output.
    """
    out = np.empty(n * (n - 1) // 2, dtype=_law(p.numerator, p.denominator).guide.dtype)
    for lo, colours in _colour_blocks(p, seed, n):
        out[lo : lo + colours.size] = colours
        del colours  # so the next block is coloured without this one alive
    return out


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
