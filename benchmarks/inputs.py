"""Benchmark inputs and independent oracles, built with the standard library only.

Rank tables are tuples of tuples (rank 0 on the diagonal, off-diagonal ranks
exactly 1..n).  Everything here draws from ``random.Random`` seeded by the
workload seed, never from the library's own generator, so a change to the
library cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

Table = tuple[tuple[int, ...], ...]


def table_from(m: int, rank) -> Table:
    return tuple(tuple(0 if i == j else rank(i, j) for j in range(m)) for i in range(m))


def compress(m: int, weights: dict) -> Table:
    """Dense ranks 1..n from comparable pair weights (equal weights share a rank)."""
    rank_of = {w: r + 1 for r, w in enumerate(sorted(set(weights.values())))}
    return table_from(m, lambda i, j: rank_of[weights[(i, j) if i < j else (j, i)]])


def top_rank(table: Table) -> int:
    return max((max(row) for row in table), default=0)


def space_of(E, table: Table):
    """The library's space for a rank table (E is the imported echelon package)."""
    return E.EchelonedSpace(len(table), top_rank(table), table)


def restrict(table: Table, points) -> Table:
    pts = list(points)
    return compress(len(pts), {(a, b): table[pts[a]][pts[b]] for a, b in itertools.combinations(range(len(pts)), 2)})


def relabel(table: Table, perm) -> Table:
    """The same space with point i renamed perm[i]."""
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[perm[i]][perm[j]] = table[i][j]
    return tuple(tuple(row) for row in out)


def permutation(rng: random.Random, m: int) -> tuple[int, ...]:
    perm = list(range(m))
    rng.shuffle(perm)
    return tuple(perm)


def embeds(src: Table, rank, h) -> bool:
    """Oracle: h is injective and preserves and reflects the pair preorder."""
    m = len(src)
    if len(set(h)) != m:
        return False
    pairs = list(itertools.combinations(range(m), 2))
    for p in pairs:
        for q in pairs:
            a, b = src[p[0]][p[1]], src[q[0]][q[1]]
            c, d = rank(h[p[0]], h[p[1]]), rank(h[q[0]], h[q[1]])
            if (a < b) != (c < d) or (a == b) != (c == d):
                return False
    return True


def all_tables(m: int) -> list[Table]:
    """Every labelled space on m points, as dense rank strings over the
    lexicographic pair list, in lexicographic string order."""
    pairs = list(itertools.combinations(range(m), 2))
    k = len(pairs)
    out = []
    for ranks in itertools.product(range(1, k + 1), repeat=k):
        top = max(ranks)
        if len(set(ranks)) != top:
            continue
        lookup = dict(zip(pairs, ranks))
        out.append(table_from(m, lambda i, j: lookup[(i, j) if i < j else (j, i)]))
    return out


def random_table(rng: random.Random, m: int, n: int) -> Table:
    """A random labelled space on m points with exactly n ranks."""
    pairs = list(itertools.combinations(range(m), 2))
    if m == 1:
        return ((0,),)
    rng.shuffle(pairs)
    ranks = list(range(1, n + 1)) + [rng.randint(1, n) for _ in range(len(pairs) - n)]
    return compress(m, dict(zip(pairs, ranks)))


def superspace(rng: random.Random, base: Table, size: int) -> tuple[Table, tuple[int, ...]]:
    """A random space on ``size`` points containing ``base``, with the embedding.

    Base ranks are doubled so fresh weights can fall below, between, on or
    above them without disturbing their order."""
    b = len(base)
    weights = {}
    for i, j in itertools.combinations(range(size), 2):
        weights[(i, j)] = 2 * base[i][j] if j < b else rng.randint(1, 2 * top_rank(base) + 3)
    big = compress(size, weights)
    perm = permutation(rng, size)
    return relabel(big, perm), tuple(perm[i] for i in range(b))


def pair_profile(table: Table) -> Counter:
    """Isomorphism invariant: for every pair, its rank with the multiset of
    rank pairs it sees from the other points.  Different profiles certify
    non-isomorphic spaces."""
    m = len(table)
    out = Counter()
    for i, j in itertools.combinations(range(m), 2):
        seen = tuple(
            sorted(tuple(sorted((table[i][k], table[j][k]))) for k in range(m) if k not in (i, j))
        )
        out[(table[i][j], seen)] += 1
    return out
