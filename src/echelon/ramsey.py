"""Desk-scale partition search on ordered echeloned spaces.

Points carry a total order, so a copy of A inside C is just a point subset
(the increasing bijection is the only order-compatible candidate, and
either it embeds or nothing does).  A pattern is compiled once: its pairs
sorted by rank.  Each subset of C's points is resolved to the point pairs
of that chain and walked over C's rank table, dropped at the first pair
that breaks the pattern.  ``arrow_check`` decides whether every
k-colouring of the A-copies of C leaves a monochromatic B-copy, by
backtracking over colourings: each colour choice updates only the
B-copies that hold that A-copy, a branch dies as soon as it completes a
monochromatic B-copy, and colourings that differ only by a permutation of
the colours are tried once.  ``witness_search`` hunts for such a C by
exhaustive enumeration up to size 4, over spaces enumerated once per
process and kept, and by seeded random sampling beyond: it compiles A and
B once per call, tests each candidate's bare rank table, and wraps only
the witness it returns as an ordered space.  A C without B-copies cannot
arrow, so neither consults the colouring budget for it: ``arrow_check``
answers False and ``witness_search`` skips it.

The translation to ordered edge-coloured simple graphs erases one chosen
colour class to "non-edge" and keeps the rest; it is inverse to filling
the non-edges back in, and it changes nothing about embeddings.
``graph_embeddings`` is the same subset walk with colour equality in place
of rank rise: graphs match colours exactly, while spaces accept any rising
rank map, so the two share the walk and not the step test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceeded, ValidationError
from .prng import SplitMix64Stream
from .space import ENUMERATE_CAP, EchelonedSpace, PointMap, _compress, _is_int, enumerate_spaces

ARROW_BUDGET = 1 << 20


@dataclass(frozen=True)
class OrderedEchelonedSpace:
    space: EchelonedSpace
    order: tuple[int, ...]  # every point once, in increasing precedence

    def __post_init__(self):
        if not all(map(_is_int, self.order)) or sorted(self.order) != list(range(self.space.m)):
            raise ValidationError("ordered/shape", "order must list every point exactly once")

    @property
    def m(self) -> int:
        return self.space.m


def _pattern(a: OrderedEchelonedSpace) -> tuple[int, list[tuple[int, int, bool]], list[int]]:
    """a compiled for the subset walk: its point count, its position pairs
    sorted by rank (each flagged when its rank equals the previous one's),
    and where each point of a stands in a's order."""
    at, k = a.space.table, len(a.order)
    chain = sorted(
        (at[a.order[p]][a.order[q]], p, q) for p, q in itertools.combinations(range(k), 2)
    )
    steps = [(p, q, i > 0 and r == chain[i - 1][0]) for i, (r, p, q) in enumerate(chain)]
    return k, steps, _positions(a.order)


def _positions(order: Sequence[int]) -> list[int]:
    """The inverse permutation: entry x is where x stands in ``order``."""
    return sorted(range(len(order)), key=order.__getitem__)


def _subsets(pattern, points) -> list[tuple[tuple[tuple[int, int, object], ...], PointMap]]:
    """Each k-subset of ``points`` (taken in the given order) with the
    pattern's steps (p, q, test) resolved to point pairs (u, v, test), and
    the point map it would be."""
    k, steps, position = pattern
    return [
        (
            tuple((combo[p], combo[q], same) for p, q, same in steps),
            tuple(map(combo.__getitem__, position)),
        )
        for combo in itertools.combinations(points, k)
    ]


def _walk(subsets, table) -> list:
    """The payloads of the subsets whose ranks in ``table`` follow the
    pattern: equal where its ranks are equal, strictly rising where they
    rise.  A subset is dropped at the first pair that fails."""
    out = []
    for pairs, payload in subsets:
        last = 0  # distinct points sit above the diagonal's rank 0
        for u, v, same in pairs:
            r = table[u][v]
            if r != last if same else r <= last:
                break
            last = r
        else:
            out.append(payload)
    return out


def ordered_embeddings(
    a: OrderedEchelonedSpace, c: OrderedEchelonedSpace
) -> list[PointMap]:
    """All order-preserving embeddings of a into c, as point maps, in
    lexicographic order of the sets of c-positions they use.

    Order-preserving injections correspond to position subsets of c taken
    in order, and such an injection embeds exactly when its rank map is
    well defined and strictly increasing.  So a's position pairs are sorted
    by rank once, and a subset passes when c's ranks along that chain stay
    equal where a's do and rise strictly where a's rise; it is dropped at
    the first pair that fails (forward checking, Ullmann 1976).  Both
    spaces were checked when built, so no map is checked per subset.
    """
    return _walk(_subsets(_pattern(a), c.order), c.space.table)


def copy_set(a: OrderedEchelonedSpace, c: OrderedEchelonedSpace) -> tuple[frozenset[int], ...]:
    """The copies of a inside c, each identified by its point set."""
    return tuple(frozenset(h) for h in ordered_embeddings(a, c))


def _decide(copies_a: Sequence[frozenset[int]], copies_b: Sequence[frozenset[int]], k: int) -> bool:
    """Whether every k-colouring of ``copies_a`` leaves some B-copy whose
    A-copies all share a colour.  A B-copy that contains no A-copy counts
    as monochromatic (its empty set of A-copies shares any colour), so it
    makes the answer True; with no B-copy at all the answer is False.
    With one colour every B-copy is monochromatic, so the answer is True
    before any search.

    Backtracking, in copy order, over the A-copies that lie in some
    B-copy (the colours of the others cannot matter).  Each B-copy keeps
    its count of uncoloured A-copies and its one colour so far, or ``k``
    once it has seen two; colouring an A-copy updates only its own
    B-copies and is undone on backtrack.  A branch dies when it completes
    a monochromatic B-copy, and a bad colouring is found once every
    B-copy has seen two colours.  Permuting the colours of a bad
    colouring gives another, so each A-copy tries only the colours up to
    one above the largest used so far.
    """
    if not copies_b:
        return False
    if k == 1:
        return True
    holders: list[list[int]] = [[] for _ in copies_a]  # holders[i]: the B-copies containing A-copy i
    left = []  # left[j]: uncoloured A-copies of B-copy j
    for j, cb in enumerate(copies_b):
        members = [i for i, ca in enumerate(copies_a) if ca <= cb]
        if not members:
            return True
        for i in members:
            holders[i].append(j)
        left.append(len(members))
    steps = [h for h in holders if h]
    seen = [-1] * len(copies_b)  # seen[j]: -1 before any colour, then the colour, k once two
    live = len(copies_b)  # B-copies that have not seen two colours

    def bad_colouring_exists(i: int, top: int) -> bool:
        nonlocal live
        step = steps[i]
        for col in range(min(k, top + 2)):
            first, ruined, mono = [], [], False
            for j in step:
                was = seen[j]
                left[j] -= 1
                if was < 0:
                    seen[j] = col
                    first.append(j)
                elif was != col:
                    if was < k:
                        seen[j] = k
                        ruined.append((j, was))
                    continue
                if not left[j]:
                    mono = True
            live -= len(ruined)
            if not mono and (not live or bad_colouring_exists(i + 1, max(top, col))):
                return True
            live += len(ruined)
            for j in step:
                left[j] += 1
            for j in first:
                seen[j] = -1
            for j, was in ruined:
                seen[j] = was
        return False

    return not bad_colouring_exists(0, -1)


def _refuse_bad_arguments(k: int, budget: int) -> None:
    """The refusals of ``arrow_check`` and ``witness_search``, made before
    any copy is listed: a budget below 1, which no colouring fits, then
    fewer than one colour."""
    if not _is_int(budget) or budget < 1:
        raise BudgetExceeded("arrow/budget", f"the budget {budget} admits no colouring")
    if not _is_int(k) or k < 1:
        raise ValidationError("arrow/colours", "at least one colour required")


def _arrow(
    c: OrderedEchelonedSpace,
    a: OrderedEchelonedSpace,
    b: OrderedEchelonedSpace,
    k: int,
    budget: int,
) -> tuple[bool, tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
    """``arrow_check``'s answer with the A-copies and B-copies it decided it
    on.  The budget binds only when C has a B-copy: without one the answer
    is False, whatever the number of colourings."""
    _refuse_bad_arguments(k, budget)
    copies_a, copies_b = copy_set(a, c), copy_set(b, c)
    n = len(copies_a)
    if copies_b and k**n > budget:
        raise BudgetExceeded("arrow/budget", f"{k}^{n} colourings exceed the budget {budget}")
    return _decide(copies_a, copies_b, k), copies_a, copies_b


def arrow_check(
    c: OrderedEchelonedSpace,
    a: OrderedEchelonedSpace,
    b: OrderedEchelonedSpace,
    k: int,
    budget: int = ARROW_BUDGET,
) -> bool:
    """Whether every k-colouring of the A-copies of C has a B-copy all of
    whose A-copies share a colour.  Exhaustive with pruning.  A C with no
    B-copy answers False at once; one that has a B-copy and more than
    ``budget`` colourings is refused, and so are a budget below 1 and
    fewer than one colour, before any copy is listed."""
    return _arrow(c, a, b, k, budget)[0]


def _random_space(m: int, stream: SplitMix64Stream) -> EchelonedSpace:
    pairs = m * (m - 1) // 2
    levels = stream.randrange(pairs) + 1
    values = [0] * pairs
    # draws in lexicographic pair order, each written to its _colex_pairs slot
    for i, j in itertools.combinations(range(m), 2):
        values[j * (j - 1) // 2 + i] = stream.randrange(levels)
    return _compress(m, values)[0]


@functools.lru_cache(maxsize=ENUMERATE_CAP)
def _exhaustive(m: int) -> tuple[EchelonedSpace, ...]:
    """Every space on m <= ENUMERATE_CAP points, built on first use and
    kept for the process (4,698 small tables in all): witness_search's
    candidates of that size."""
    return tuple(enumerate_spaces(m))


def witness_search(
    a: OrderedEchelonedSpace,
    b: OrderedEchelonedSpace,
    k: int,
    size_cap: int = 4,
    seed: int = 0,
    samples: int = 200,
    budget: int = ARROW_BUDGET,
) -> Optional[OrderedEchelonedSpace]:
    """Smallest-first hunt for C with C -> (B) in k colours over A-copies.

    Sizes up to ``ENUMERATE_CAP`` (4) are searched exhaustively (identity
    order loses nothing: relabelling by the order turns any ordered space
    into one on the natural order, and distinct tables are distinct
    types); the spaces of each such size are enumerated once per process
    and kept.  Larger sizes, if allowed, are probed by seeded random
    sampling.

    A and B are compiled once per call, and their subsets of each size are
    resolved once; a candidate is a bare rank table until it arrows, and
    only the witness returned is wrapped as an ordered space.  Each
    candidate's B-copies are listed first: one with none is skipped before
    the budget is consulted, since it cannot arrow.  A candidate whose
    k^(A-copies) colourings exceed the budget is skipped, not decided.  A
    budget below 1, which every candidate would exceed, and fewer than one
    colour are refused before the search, as ``arrow_check`` refuses them.
    """
    _refuse_bad_arguments(k, budget)
    pattern_a, pattern_b = _pattern(a), _pattern(b)
    for m in range(b.space.m, size_cap + 1):
        points = range(m)
        subsets_a = [(pairs, frozenset(h)) for pairs, h in _subsets(pattern_a, points)]
        subsets_b = [(pairs, frozenset(h)) for pairs, h in _subsets(pattern_b, points)]
        if m <= ENUMERATE_CAP:
            candidates = _exhaustive(m)
        else:
            stream = SplitMix64Stream((seed << 8) ^ m)
            candidates = (_random_space(m, stream) for _ in range(samples))
        for sp in candidates:
            copies_b = _walk(subsets_b, sp.table)
            if not copies_b:
                continue
            copies_a = _walk(subsets_a, sp.table)
            if k ** len(copies_a) > budget:
                continue
            if _decide(copies_a, copies_b, k):
                return OrderedEchelonedSpace(sp, tuple(points))
    return None


# --- translation to ordered edge-coloured simple graphs ---


@dataclass(frozen=True)
class OrderedEdgeColouredGraph:
    """Simple graph with ordered vertices and coloured edges.

    ``edges`` maps pairs (i, j), i < j, to colours; absent pairs are
    non-edges.  Complete instances double as ordered coloured graphs.
    """

    v: int
    order: tuple[int, ...]
    edges: tuple[tuple[tuple[int, int], object], ...]

    def __post_init__(self):
        if not all(map(_is_int, (self.v, *self.order))) or sorted(self.order) != list(range(self.v)):
            raise ValidationError("ordered/shape", "order must list every vertex exactly once")
        colours = {}
        for (i, j), c in self.edges:
            if not (_is_int(i) and _is_int(j) and 0 <= i < j < self.v):
                raise ValidationError("graph/shape", f"bad edge ({i},{j})")
            if (i, j) in colours:
                raise ValidationError("graph/shape", f"edge ({i},{j}) listed twice")
            colours[(i, j)] = c
        object.__setattr__(self, "_colours", colours)

    def colour(self, i: int, j: int):
        return self._colours.get((i, j) if i < j else (j, i))

    def is_complete(self) -> bool:
        return len(self.edges) == self.v * (self.v - 1) // 2


def ordered_space_graph(s: OrderedEchelonedSpace) -> OrderedEdgeColouredGraph:
    """The complete graph of a space, edges coloured by rank."""
    edges = tuple(
        (((i, j)), s.space.rank(i, j)) for i, j in itertools.combinations(range(s.m), 2)
    )
    return OrderedEdgeColouredGraph(s.m, s.order, edges)


def phi_translate(g: OrderedEdgeColouredGraph, colour: object) -> OrderedEdgeColouredGraph:
    """Erase one colour class to non-edges; requires a complete graph."""
    if not g.is_complete():
        raise ValidationError("graph/complete", "translation starts from a complete graph")
    kept = tuple((pair, c) for pair, c in g.edges if c != colour)
    return OrderedEdgeColouredGraph(g.v, g.order, kept)


def phi_inverse(h: OrderedEdgeColouredGraph, colour: object) -> OrderedEdgeColouredGraph:
    """Fill every non-edge with the erased colour."""
    edges = tuple(
        (pair, h._colours.get(pair, colour)) for pair in itertools.combinations(range(h.v), 2)
    )
    return OrderedEdgeColouredGraph(h.v, h.order, edges)


def graph_embeddings(a: OrderedEdgeColouredGraph, c: OrderedEdgeColouredGraph) -> list[PointMap]:
    """Order-preserving injections matching edge colours and non-edges, in
    lexicographic order of the sets of c-positions they use.

    The subset walk of ``ordered_embeddings`` with colour equality in place
    of rank rise: a's position pairs are compiled once with their colours,
    each position subset of c resolves them to point pairs, and a subset
    passes when c gives every pair the same colour (None at a non-edge).
    """
    steps = [
        (p, q, a.colour(a.order[p], a.order[q]))
        for p, q in itertools.combinations(range(a.v), 2)
    ]
    subsets = _subsets((a.v, steps, _positions(a.order)), c.order)
    return [h for pairs, h in subsets if all(c.colour(u, v) == colour for u, v, colour in pairs)]
