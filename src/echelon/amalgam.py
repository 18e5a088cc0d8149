"""Strong amalgamation of echeloned spaces over a shared subspace.

The construction amalgamates the two rank chains first (keeping both
bottoms identified and appending a fresh top), then lays the two point
sets side by side, overlapping exactly on the shared image.  Pairs that
straddle the two sides get the fresh top rank, so the overlap is never
forced to grow: amalgamation here is always strong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import MorphismError, ValidationError
from .space import EchelonedSpace, PointMap, RankMap, _colex_pairs, _compress, _is_int, embedding_rank_map


@dataclass(frozen=True)
class ChainAmalgam:
    """Finite chain 0..size-1 with embeddings of two source chains.

    ``g1`` and ``g2`` place the two chains; their restrictions to the
    shared chain agree, position 0 is the common minimum, and ``top`` is
    the appended fresh maximum (present even when one side already had a
    maximum above the other).
    """

    size: int
    g1: RankMap
    g2: RankMap
    top: int


@dataclass(frozen=True)
class AmalgamResult:
    space: EchelonedSpace
    g1: PointMap  # embedding of the first space
    g2: PointMap  # embedding of the second space
    chain: ChainAmalgam


def _check_chain_map(size_src: int, size_dst: int, h: RankMap, name: str) -> None:
    if not all(map(_is_int, h)):
        raise ValidationError("chain/map", f"{name} must list int chain positions")
    if len(h) != size_src:
        raise ValidationError("chain/map", f"{name} must place all {size_src} chain elements")
    if h[0] != 0:
        raise ValidationError("chain/map", f"{name} must fix the bottom")
    for a in range(1, size_src):
        if h[a] <= h[a - 1]:
            raise ValidationError("chain/map", f"{name} must be strictly increasing")
    if h[-1] >= size_dst:
        raise ValidationError("chain/map", f"{name} runs past the target chain")


def chain_amalgam(
    size_a: int, size_b1: int, size_b2: int, h1: RankMap, h2: RankMap
) -> ChainAmalgam:
    """Amalgamate two chain embeddings of a common chain.

    Between consecutive images of the shared chain, elements of the first
    chain precede elements of the second, each side in its native order;
    a fresh top is appended at the end.
    """
    if not all(map(_is_int, (size_a, size_b1, size_b2))):
        raise ValidationError("chain/map", "chain sizes must be ints")
    if size_a < 1:
        raise ValidationError("chain/map", "the shared chain cannot be empty")
    h1, h2 = tuple(h1), tuple(h2)
    _check_chain_map(size_a, size_b1, h1, "first chain map")
    _check_chain_map(size_a, size_b2, h2, "second chain map")
    return _chain_amalgam(size_a, size_b1, size_b2, h1, h2)


def _chain_amalgam(
    size_a: int, size_b1: int, size_b2: int, h1: RankMap, h2: RankMap
) -> ChainAmalgam:
    """``chain_amalgam`` on chain maps already known to be strictly
    increasing int maps that fix the bottom and fit their chains."""
    g1, g2 = [0] * size_b1, [0] * size_b2
    sides = ((g1, (*h1, size_b1)), (g2, (*h2, size_b2)))  # each map, closed by its chain's end
    pos = 0
    for a in range(size_a):
        g1[h1[a]] = g2[h2[a]] = pos
        pos += 1
        for g, h in sides:
            for r in range(h[a] + 1, h[a + 1]):
                g[r] = pos
                pos += 1
    return ChainAmalgam(pos + 1, tuple(g1), tuple(g2), pos)


def amalgamate(
    shared: EchelonedSpace,
    left: EchelonedSpace,
    right: EchelonedSpace,
    f1: PointMap,
    f2: PointMap,
) -> AmalgamResult:
    """Amalgamate two embeddings of ``shared`` into one space.

    Returns the amalgam with embeddings g1, g2 satisfying g1 o f1 = g2 o f2
    whose images overlap exactly on the shared part (strong amalgamation),
    plus the amalgamated rank chain.  The amalgam's points are the left
    space's points, then the right space's points outside the shared
    image, in order.  Raises if either map fails to be an embedding.
    """
    w1 = embedding_rank_map(shared, left, f1)
    if w1 is None:
        raise MorphismError("amalgam/not-embedding", "first map is not an embedding")
    w2 = embedding_rank_map(shared, right, f2)
    if w2 is None:
        raise MorphismError("amalgam/not-embedding", "second map is not an embedding")
    # embedding rank maps are strict int chain maps, so the chain checks would only repeat
    chain = _chain_amalgam(shared.n + 1, left.n + 1, right.n + 1, w1, w2)

    into_left = dict(zip(f2, f1))  # shared point of the right space -> its left point
    fresh = itertools.count(left.m)
    g2 = tuple(into_left[y] if y in into_left else next(fresh) for y in range(right.m))
    into_right = {z: y for y, z in enumerate(g2)}  # carrier point -> point of the right space
    m = left.m + right.m - shared.m
    values = [
        chain.g1[left.rank(u, v)] if v < left.m
        else chain.g2[right.rank(into_right[u], into_right[v])] if u in into_right
        else chain.top
        for u, v in _colex_pairs(m)
    ]
    return AmalgamResult(_compress(m, values)[0], tuple(range(left.m)), g2, chain)


def jep(left: EchelonedSpace, right: EchelonedSpace) -> AmalgamResult:
    """Joint embedding: amalgamate over a single shared point (point 0 of
    each space)."""
    point = EchelonedSpace(1, 0, ((0,),))
    return amalgamate(point, left, right, (0,), (0,))
