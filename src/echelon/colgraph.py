"""Complete edge-coloured graphs, random colourings, and star demands.

Homomorphisms in this world are injective (colour-preserving on edges);
that convention is deliberately distinct from echeloned-space
homomorphisms, which may collapse points.  The two notions live in
different modules and are never unified.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from . import prng
from .errors import CapExceeded, DemandError, ValidationError
from .rationals import as_probability
from .space import _is_int


def pair_index(i: int, j: int) -> int:
    """Position of pair {i, j} in the flat lower-triangular layout."""
    if i == j:
        raise ValidationError("graph/loop", "complete graphs here carry no loops")
    a, b = (i, j) if i < j else (j, i)
    return b * (b - 1) // 2 + a


@dataclass(frozen=True)
class ColouredGraph:
    """Complete graph on vertices 0..v-1 with a colour on every edge.

    ``chi`` is the flat lower-triangular table; entry for {i, j} with i < j
    sits at index j*(j-1)//2 + i.  Immutable once built.
    """

    v: int
    chi: tuple = field(repr=False)

    def __post_init__(self):
        if not _is_int(self.v) or self.v < 1:
            raise ValidationError("graph/shape", "vertex count must be positive")
        expected = self.v * (self.v - 1) // 2
        if len(self.chi) != expected:
            raise ValidationError(
                "graph/shape", f"edge table must have {expected} entries, got {len(self.chi)}"
            )
        object.__setattr__(self, "chi", tuple(self.chi))

    def colour(self, i: int, j: int):
        return self.chi[pair_index(i, j)]

    @cached_property
    def colours(self) -> tuple:
        """Distinct colours present, in their total order."""
        try:
            return tuple(sorted(set(self.chi)))
        except TypeError:
            raise ValidationError(
                "graph/colours", "edge colours are not mutually comparable"
            ) from None


@dataclass(frozen=True)
class StarDemand:
    """Disjoint vertex sets U_1..U_k, each with a required edge colour."""

    sets: tuple[frozenset[int], ...]
    colours: tuple

    def __post_init__(self):
        if len(self.sets) != len(self.colours):
            raise DemandError("demand/shape", "one colour per vertex set required")
        seen: set[int] = set()
        for u in self.sets:
            if seen & u:
                raise DemandError("demand/overlap", "demand sets must be pairwise disjoint")
            seen |= u

    def vertices(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for u in self.sets:
            out |= u
        return out


def star_demand(sets: Sequence[Sequence[int]], colours: Sequence[object]) -> StarDemand:
    return StarDemand(tuple(frozenset(u) for u in sets), tuple(colours))


def check_star(graph: ColouredGraph, demand: StarDemand) -> Optional[int]:
    """First vertex z outside all demand sets seeing U_i in colour c_i for
    every i, or None.  An empty demand is satisfied by vertex 0."""
    taken = demand.vertices()
    for p in taken:
        if not (_is_int(p) and 0 <= p < graph.v):
            raise DemandError("demand/range", f"vertex {p} is not in the graph")
    wanted = [(u, c) for u_set, c in zip(demand.sets, demand.colours) for u in u_set]
    for z in range(graph.v):
        if z not in taken and all(graph.colour(z, u) == c for u, c in wanted):
            return z
    return None


@dataclass(frozen=True)
class GeometricColouring:
    """Seeded edge-colouring law: colour i with probability (1-p)^(i-1) p.

    Each edge draws independently via the per-edge SplitMix64 key, so the
    colouring is a pure function of (p, seed, edge) and identical however
    the edges are enumerated.
    """

    p: Fraction
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "p", as_probability(self.p))

    @cached_property
    def _law(self) -> tuple[tuple[int, ...], int]:
        """The thresholds and the seed's key, read once per colouring."""
        return prng._law(self.p.numerator, self.p.denominator).thresholds, prng.seed_key(self.seed)

    def edge_colour(self, u: int, v: int) -> int:
        """The colour of the pair {u, v}: the scalar path that the colour
        kernels of ``prng`` replay.  The pair's :func:`prng.keyed_bits`
        under the seed's key, inverted by binary search over the law's
        thresholds."""
        if u == v:
            raise ValidationError("graph/loop", "no colour on a loop")
        thresholds, key = self._law
        return bisect_right(thresholds, prng.keyed_bits(key, u, v)) + 1


def random_coloured_graph(n: int, colouring: GeometricColouring) -> ColouredGraph:
    """Materialize the seeded colouring on n vertices.

    Bulk path is the vectorized replay of the scalar per-edge function;
    the two are pinned equal by tests.  ``chi`` is read straight from the
    kernel's narrow colour array: one ``struct.unpack`` of its buffer, in
    the array's native item format, gives the tuple of exact ints with no
    copy of the array and no list in between, for every colour dtype, and
    ``ColouredGraph`` keeps that tuple without a copy.
    """
    if not _is_int(n) or n < 1:
        raise ValidationError("graph/shape", "vertex count must be positive")
    view = memoryview(prng.all_edge_colours(colouring.p, colouring.seed, n))
    return ColouredGraph(n, struct.unpack(f"{len(view)}{view.format}", view))


class WitnessFailure(NamedTuple):
    per_vertex: Fraction  # probability one candidate fails the demand
    total: Fraction  # probability all n candidates fail


# Largest bit length the exact answer of witness_failure_probability may
# reach: (1-p)^exp_q p^exp_p and its n-th power grow with the exponents, n
# and the size of p, so each of them is bounded by this too.
WITNESS_BITS_CAP = 1 << 20


def witness_failure_probability(
    p: object, indices: Sequence[int], sizes: Sequence[int], n: int
) -> WitnessFailure:
    """Exact failure probabilities for a star demand against the geometric
    law: a fresh candidate serves colour index i to a whole set of size s
    with probability (1-p)^((i-1)s) p^s, independently across the sets,
    and n candidates all fail with the complementary probability to the
    n-th power.  Raises CapExceeded before any power is taken when the
    exact answer could pass ``WITNESS_BITS_CAP`` bits."""
    if not _is_int(n) or n < 0:
        raise ValidationError("prob/range", "candidate count must be a non-negative integer")
    pf = as_probability(p)
    if len(indices) != len(sizes):
        raise DemandError("demand/shape", "one size per colour index required")
    exp_q = 0
    exp_p = 0
    for c, size in zip(indices, sizes):
        if not _is_int(c) or c < 1:
            raise DemandError("demand/colour", "colour indices must be positive integers")
        if not _is_int(size) or size < 0:
            raise DemandError("demand/shape", "set sizes must be non-negative integers")
        exp_q += (c - 1) * size
        exp_p += size
    # neither 1-p nor p has a numerator or denominator longer than p's
    bits = ((exp_q + exp_p) * pf.denominator.bit_length() + 1) * max(n, 1)
    if bits > WITNESS_BITS_CAP:
        raise CapExceeded(
            "prob/cap",
            f"exact probabilities could reach {bits} bits, past the cap of {WITNESS_BITS_CAP}",
        )
    success = (1 - pf) ** exp_q * pf**exp_p
    per_vertex = 1 - success
    return WitnessFailure(per_vertex, per_vertex**n)
