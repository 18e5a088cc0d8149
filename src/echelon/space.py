"""Finite echeloned spaces and their structure-preserving maps.

An echeloned space is a finite point set together with a total preorder on
pairs in which the diagonal pairs form the strict minimum and pairs are
unordered.  We store the preorder as a rank table: rank 0 is reserved for
the diagonal, the off-diagonal pair classes get the dense ranks 1..n in
increasing order, and every rank in that range is attained.  Two pairs are
equivalent iff they share a rank; pair (a, b) lies below (c, d) iff its
rank is smaller.

A point map h : X -> Y is a homomorphism when it induces a well-defined
monotone map on ranks (constant maps qualify: every pair collapses to the
diagonal).  It is an embedding when additionally h is injective and the
induced rank map is strictly increasing, so rank comparisons are both
preserved and reflected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CapExceeded, MorphismError, ValidationError

Pair = tuple[int, int]
PointMap = tuple[int, ...]
RankMap = tuple[int, ...]

# Largest point count enumerate_spaces lists: 4,683 spaces on 4 points,
# 102,247,563 on 5.
ENUMERATE_CAP = 4


def _is_int(x: object) -> bool:
    """An int that is not a bool: point counts, rank counts, ranks, points."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class EchelonedSpace:
    """Immutable echeloned space on points 0..m-1.

    ``table`` is the full m x m rank table: symmetric, zero exactly on the
    diagonal, off-diagonal values exactly the range 1..n.  Instances
    validate on construction, so any held reference is structurally sound;
    the package's own builders, whose tables are valid by construction,
    skip the check through ``_trusted``.
    """

    m: int
    n: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.m) or self.m < 1:
            raise ValidationError("space/shape", "point count must be a positive integer")
        t = self.table
        if len(t) != self.m or any(len(row) != self.m for row in t):
            raise ValidationError("space/shape", f"rank table must be {self.m}x{self.m}")
        seen: set[int] = set()
        for i in range(self.m):
            for j in range(self.m):
                r = t[i][j]
                if not _is_int(r):
                    raise ValidationError("space/shape", f"rank at ({i},{j}) is not an integer")
                if i == j:
                    if r != 0:
                        raise ValidationError(
                            "space/diagonal", f"diagonal entry at point {i} must be 0"
                        )
                    continue
                if t[j][i] != r:
                    raise ValidationError(
                        "space/symmetry", f"table not symmetric at ({i},{j})"
                    )
                if r < 1:
                    raise ValidationError(
                        "space/offdiag",
                        f"pair ({i},{j}) has rank {r}; only diagonal pairs may sit at the bottom",
                    )
                seen.add(r)
        # seen holds ranks >= 1, so it is 1..n exactly when it has n members
        # and its largest is n (a single point has none, so n = 0); no set of
        # all n ranks is built, n may be huge
        exact = len(seen) == self.n == max(seen, default=0)
        if not _is_int(self.n) or not exact:
            raise ValidationError(
                "space/surjective",
                f"off-diagonal ranks must be exactly 1..{self.n}, got {sorted(seen)}",
            )

    def rank(self, x: int, y: int) -> int:
        """The rank of the pair (x, y).  Points 0..m-1 are taken unchecked: a
        negative index reads from the end of the table, as Python's does.
        Callers check outside point maps with ``_check_point_map`` first, as
        the CLI does; no check is made here, where every rank witness reads
        each of its pairs."""
        return self.table[x][y]


def _trusted(m: int, n: int, table: tuple[tuple[int, ...], ...]) -> EchelonedSpace:
    """A space whose table its builder made valid by construction, skipping
    the checks of ``__post_init__``.  Only for builders inside the package
    whose tables cannot fail them."""
    space = object.__new__(EchelonedSpace)
    space.__dict__.update(m=m, n=n, table=table)
    return space


def _table_reader(
    m: int, pairs: Iterable[Pair]
) -> Callable[[Iterable[int]], tuple[tuple[int, ...], ...]]:
    """Reads a rank string, one rank per pair in ``pairs`` order, into the
    symmetric m x m table with 0 on the diagonal."""
    if m == 1:
        return lambda ranks: ((0,),)
    # row i of the table picks from the string padded with the diagonal's 0 in front
    slot = [[0] * m for _ in range(m)]
    for s, (i, j) in enumerate(pairs, start=1):
        slot[i][j] = slot[j][i] = s
    rows = [itemgetter(*row) for row in slot]

    def read(ranks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        padded = (0, *ranks)
        return tuple([row(padded) for row in rows])

    return read


def _colex_pairs(m: int) -> Iterator[Pair]:
    """The flat pair order: (0,1), (0,2), (1,2), (0,3), ..., row j listing
    the pairs (i, j), i < j, so the pairs of n + 1 points are those of n
    points plus one row.  A space document's ``eta``, a graph's ``chi`` and
    the colour kernel list pairs in this order."""
    return ((i, j) for j in range(1, m) for i in range(j))


@lru_cache(maxsize=16)
def _colex_reader(m: int) -> Callable[[Iterable[int]], tuple[tuple[int, ...], ...]]:
    """Reads a rank string in ``_colex_pairs(m)`` order."""
    return _table_reader(m, _colex_pairs(m))


def _compress(m: int, values: Sequence) -> tuple[EchelonedSpace, list]:
    """The space that pair values induce on m points, and its levels.

    ``values`` lists one value per pair in ``_colex_pairs(m)`` order.
    Equal values share a rank and ranks rise with the values, so rank r is
    ``levels[r - 1]``.  Every level is some pair's value, so the ranks are
    dense and the space needs no check.  Values that are not mutually
    comparable raise TypeError."""
    levels = sorted(set(values))
    rank_of = {v: r for r, v in enumerate(levels, start=1)}
    ranks = map(rank_of.__getitem__, values)
    return _trusted(m, len(levels), _colex_reader(m)(ranks)), levels


class Subspace(NamedTuple):
    space: EchelonedSpace
    points: tuple[int, ...]  # original ids, ascending; new id k is points[k]
    rank_map: RankMap  # rank_map[r] = rank in the ambient space


@dataclass(frozen=True)
class CanonicalForm:
    space: EchelonedSpace
    order: tuple[int, ...]  # order[k] = original point placed at position k


def from_rank_table(table: Sequence[Sequence[int]]) -> EchelonedSpace:
    """Build a space from a full square rank table, inferring n."""
    rows = tuple(tuple(row) for row in table)
    m = len(rows)
    n = 0
    for i, row in enumerate(rows):
        for j, r in enumerate(row):
            if i != j and _is_int(r):
                n = max(n, r)
    return EchelonedSpace(m, n, rows)


def from_weights(m: int, weights: Mapping[Pair, object]) -> EchelonedSpace:
    """Echelon a table of mutually comparable pair weights.

    Pairs with equal weights land in the same class; classes are ranked by
    increasing weight.  Only the relative order of the weights matters, so
    any strictly monotone reweighting produces the same space.  A pair key
    is two distinct points below m, each an int that is not a bool; any
    other key is refused with ``weights/key``.
    """
    if not _is_int(m) or m < 1:
        raise ValidationError("space/shape", "point count must be a positive integer")
    norm: dict[Pair, object] = {}
    for key, value in weights.items():
        try:
            i, j = key
        except (TypeError, ValueError):
            raise ValidationError("weights/key", f"bad pair key {key!r}") from None
        if not (_is_int(i) and _is_int(j)) or i == j or not (0 <= i < m and 0 <= j < m):
            raise ValidationError("weights/key", f"bad pair key {key!r}")
        pair = (i, j) if i < j else (j, i)
        if pair in norm and norm[pair] != value:
            raise ValidationError(
                "weights/conflict", f"pair {pair} given two different weights"
            )
        norm[pair] = value
        if value != value:  # NaN defeats total ordering
            raise ValidationError("weights/incomparable", f"weight for {pair} is not orderable")
    missing = [p for p in itertools.combinations(range(m), 2) if p not in norm]
    if missing:
        raise ValidationError("weights/missing", f"no weight for pair {missing[0]}")
    try:
        return _compress(m, [norm[p] for p in _colex_pairs(m)])[0]
    except TypeError:
        raise ValidationError(
            "weights/incomparable", "pair weights are not mutually comparable"
        ) from None


def induced_subspace(space: EchelonedSpace, points: Iterable[int]) -> Subspace:
    """Restrict to a point subset and re-compress ranks.

    Returns the subspace (points relabelled 0..k-1 in ascending original
    order), the original ids, and the rank map of the inclusion, which is
    an embedding witness: rank r of the subspace comes from rank
    ``rank_map[r]`` of the ambient space.
    """
    points = tuple(points)
    if not all(map(_is_int, points)):
        raise ValidationError("space/shape", "subspace points must be ints")
    ids = tuple(sorted(set(points)))
    if not ids:
        raise ValidationError("space/shape", "a subspace needs at least one point")
    for p in ids:
        if not (0 <= p < space.m):
            raise ValidationError("space/shape", f"point {p} is not in the space")
    values = [r for k, b in enumerate(ids) for r in map(space.table[b].__getitem__, ids[:k])]
    sub, levels = _compress(len(ids), values)
    return Subspace(sub, ids, (0, *levels))


def _check_point_map(source_m: int, target_m: int, h: Sequence[int]) -> PointMap:
    h = tuple(h)
    if len(h) != source_m:
        raise MorphismError("morphism/map", f"point map must list {source_m} images")
    for x, y in enumerate(h):
        if not _is_int(y) or not (0 <= y < target_m):
            raise MorphismError("morphism/map", f"image of point {x} is not a target point")
    return h


def _rank_witness(source, target, h: PointMap, strict: bool) -> Optional[RankMap]:
    """The rank map w with w[0] = 0 and rank(h x, h y) = w[rank(x, y)] for
    all pairs if there is one and it is non-decreasing (increasing if
    ``strict``), else None; ``h`` is a checked point map."""
    witness: list[Optional[int]] = [None] * (source.n + 1)
    witness[0] = 0
    for x, y in itertools.combinations(range(source.m), 2):
        r = source.rank(x, y)
        s = target.rank(h[x], h[y]) if h[x] != h[y] else 0
        if witness[r] is None:
            witness[r] = s
        elif witness[r] != s:
            return None
    for r in range(1, source.n + 1):
        if witness[r] < witness[r - 1] or strict and witness[r] == witness[r - 1]:  # type: ignore[operator]
            return None
    return tuple(witness)  # type: ignore[arg-type]


def homomorphism_rank_map(source, target, h: Sequence[int]) -> Optional[RankMap]:
    """Rank-map witness that h is a homomorphism, or None.

    The witness w satisfies w[0] = 0 and rank(h x, h y) = w[rank(x, y)] for
    all pairs, and is monotone (non-decreasing).  Constant maps yield the
    all-zero witness.  ``target`` may be any object exposing ``m`` and
    ``rank``; ``source`` additionally needs ``n``.
    """
    return _rank_witness(source, target, _check_point_map(source.m, target.m, h), strict=False)


def is_homomorphism(source, target, h: Sequence[int]) -> bool:
    return homomorphism_rank_map(source, target, h) is not None


def embedding_rank_map(source, target, h: Sequence[int]) -> Optional[RankMap]:
    """Rank-map witness that h is an embedding, or None.

    Requires h injective and the homomorphism witness strictly increasing,
    so distinct source ranks stay distinct and comparisons are reflected.
    """
    h = _check_point_map(source.m, target.m, h)
    if len(set(h)) != len(h):
        return None
    return _rank_witness(source, target, h, strict=True)


def is_embedding(source, target, h: Sequence[int]) -> bool:
    return embedding_rank_map(source, target, h) is not None


def _refine(rows: Sequence[Sequence[int]], cells: Sequence[list[int]]) -> list[list[int]]:
    """Stable refinement of an ordered partition of the points under
    iterated rank-profile refinement.

    ``cells`` lists the cells in order, each ascending; neither it nor its
    cells are changed, since sibling nodes of the search share them.
    ``rows[v][u]`` is rank(v, u) * (m + 1), and a point's colour is the
    number of points in the cells before its own, at most m - 1, so the key
    ``rows[v][u] + colour(u)`` orders as the pair (rank, colour).  A round
    keys the members of each cell of two or more points by their sorted
    keys, all against the colours the round began with, and splits the
    cell into its distinct keys in increasing order; singleton cells carry
    over unkeyed.  A point's sorted keys start with its own colour, below
    every other key, so a split never moves a cell past another.  The
    first round that splits no cell ends the refinement; on a discrete
    partition it builds no keys."""
    cells = list(cells)
    cols = [0] * len(rows)
    start = 0
    for cell in cells:
        for v in cell:
            cols[v] = start
        start += len(cell)
    while True:
        splits = []
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                pieces: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    pieces.setdefault(tuple(sorted(map(add, rows[v], cols))), []).append(v)
                if len(pieces) > 1:
                    splits.append((i, [pieces[k] for k in sorted(pieces)]))
        if not splits:
            return cells
        for i, pieces in reversed(splits):
            start = cols[cells[i][0]]
            cells[i : i + 1] = pieces
            for piece in pieces:
                for v in piece:
                    cols[v] = start
                start += len(piece)


def _flat(table: Sequence[Sequence[int]], order: Sequence[int]) -> tuple[int, ...]:
    """The ranks of the pairs of positions a < b of ``order``, row by row."""
    return tuple(
        [r for a, v in enumerate(order) for r in map(table[v].__getitem__, order[a + 1 :])]
    )


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _canon_search(
    space: EchelonedSpace, target: Optional[tuple[int, ...]] = None
) -> Optional[tuple[int, ...]]:
    """The order of the first leaf, in depth-first order, whose flattened
    table is least in the individualization-refinement tree.

    The root refines the one-cell partition.  A node individualizes each
    point of its first cell of two or more points in turn: the child
    refines the node's cells with that point moved out of its cell into a
    new last one.  A node of m cells is a leaf, and its order lists the
    cells' points in sequence.  Two leaves with equal tables give an
    automorphism; a child is skipped when the automorphisms found so far
    that fix the node's path generate one mapping an explored sibling onto
    it, since its subtree is that sibling's image and holds no table the
    sibling's lacks (McKay & Piperno, J. Symb. Comput. 60, 2014).  The
    first least leaf is therefore never skipped and the result is the one
    the unpruned tree gives.

    Given the flattened canonical table of another space as ``target``,
    the search stops at the first leaf whose table is at most the target,
    and returns its order if its table is the target, else None.  Every
    earlier leaf was larger, so an equal leaf is the first least one and
    its order is the one the full search returns; a smaller leaf, or none
    at most the target, means the two spaces are not isomorphic.
    """
    m = space.m
    rows = [[r * (m + 1) for r in row] for row in space.table]
    best: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None  # first least leaf so far
    automorphisms: list[tuple[int, ...]] = []

    def visit(cells: list[list[int]], path: tuple[int, ...]) -> bool:
        """Searches the subtree of the node whose refined partition is
        ``cells``; True once a leaf meets the target."""
        nonlocal best
        if len(cells) == m:
            order = tuple(itertools.chain.from_iterable(cells))
            flat = _flat(space.table, order)
            if best is None or flat < best[0]:
                best = flat, order
                return target is not None and flat <= target
            if flat == best[0]:
                g = [0] * m
                for a, b in zip(best[1], order):
                    g[a] = b
                automorphisms.append(tuple(g))
            return False
        i = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        cell = cells[i]
        parent = list(range(m))  # orbits of the automorphisms fixing path
        merged = 0
        explored: list[int] = []
        for v in cell:
            for g in automorphisms[merged:]:
                if all(g[p] == p for p in path):
                    for x in range(m):
                        parent[_find(parent, x)] = _find(parent, g[x])
            merged = len(automorphisms)
            root = _find(parent, v)
            if any(_find(parent, u) == root for u in explored):
                continue
            explored.append(v)
            rest = [u for u in cell if u != v]
            if visit(_refine(rows, [*cells[:i], rest, *cells[i + 1 :], [v]]), path + (v,)):
                return True
        return False

    visit(_refine(rows, [list(range(m))]), ())
    flat, order = best  # type: ignore[misc]
    return order if target is None or flat == target else None


def canonical_form(space: EchelonedSpace) -> CanonicalForm:
    """Canonical relabelling: equal canonical tables iff isomorphic.

    Colour refinement on the rank-labelled complete graph, re-keying only
    the cells of two or more points, with individualization backtracking
    when refinement leaves ties; among the discrete branches the
    lexicographically least flattened table wins, and ``order`` is the
    first such branch in depth-first order.  The search prunes siblings
    that an automorphism found so far maps onto an explored one, so
    symmetric spaces such as uniform ones stay fast.
    """
    order = _canon_search(space)
    table = tuple([tuple(map(space.table[v].__getitem__, order)) for v in order])
    return CanonicalForm(_trusted(space.m, space.n, table), order)  # a relabelling


def are_isomorphic(x: EchelonedSpace, y: EchelonedSpace) -> Optional[PointMap]:
    """An isomorphism x -> y as a point map, or None.

    x's canonical search runs in full; y's stops at its first leaf whose
    flattened table is at most x's canonical one.  Equal tables are the
    proof, and the map sends the point at each canonical position of x to
    the point at that position of y: the witness two full searches give.
    """
    if x.m != y.m or x.n != y.n:
        return None
    ox = _canon_search(x)
    oy = _canon_search(y, _flat(x.table, ox))
    if oy is None:
        return None
    iso = [0] * x.m
    for k in range(x.m):
        iso[ox[k]] = oy[k]
    return tuple(iso)


def _dense_rank_strings(k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every string of length k whose values are exactly 1..top for some
    top, paired with its top, in lexicographic order.

    Depth first, each position taking the values 1..k in increasing order.
    A prefix is extended only while the ranks below its maximum that it
    misses fit in the positions left, so every prefix visited completes
    and no string outside the answer is built (Knuth, TAOCP 4A, 7.2.1)."""
    if not k:
        return iter([((), 0)])
    ranks = [0] * k

    def grow(i: int, top: int, used: int) -> Iterator[tuple[tuple[int, ...], int]]:
        left = k - 1 - i  # positions after this one
        for v in range(1, k + 1):
            t, u = max(top, v), used | 1 << v  # bit r of u: rank r is used
            if t - u.bit_count() <= left:
                ranks[i] = v
                if left:
                    yield from grow(i + 1, t, u)
                else:
                    yield tuple(ranks), t

    return grow(0, 0, 0)


def enumerate_spaces(m: int, up_to_iso: bool = False) -> Iterator[EchelonedSpace]:
    """All labelled echeloned spaces on m points; optionally one per
    isomorphism class.

    A labelled space is exactly an ordered set partition of the pair set
    (blocks = rank classes, block order = rank order), so spaces are
    emitted as dense rank strings over the lexicographically ordered pair
    list, in lexicographic string order.  The strings are generated
    directly rather than filtered from all strings over the ranks, and
    the tables, valid by construction, are not checked again.  With
    ``up_to_iso`` the first space of each canonical form is kept.
    Exhaustive; refuses m beyond ``ENUMERATE_CAP`` (the count is the
    Fubini number of C(m,2), which explodes).
    """
    if not _is_int(m) or m < 1:
        raise ValidationError("space/shape", "point count must be a positive integer")
    if m > ENUMERATE_CAP:
        raise CapExceeded("enumerate/cap", f"m={m} exceeds the exhaustive cap {ENUMERATE_CAP}")
    read = _table_reader(m, itertools.combinations(range(m), 2))
    seen: set[tuple[int, ...]] = set()
    for ranks, top in _dense_rank_strings(m * (m - 1) // 2):
        space = _trusted(m, top, read(ranks))
        if up_to_iso:
            key = canonical_form(space).space.table
            if key in seen:
                continue
            seen.add(key)
        yield space
