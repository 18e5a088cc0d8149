"""Complete edge-coloured graphs, random colourings, and star demands.

Homomorphisms in this world are injective (colour-preserving on edges);
that convention is deliberately distinct from echeloned-space
homomorphisms, which may collapse points.  The two notions live in
different modules and are never unified.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import prng
from .errors import CapExceeded, DemandError, ValidationError
from .space import EchelonedSpace, from_weights


def pair_index(i: int, j: int) -> int:
    """Position of pair {i, j} in the flat lower-triangular layout."""
    if i == j:
        raise ValidationError("graph/loop", "complete graphs here carry no loops")
    a, b = (i, j) if i < j else (j, i)
    return b * (b - 1) // 2 + a


class ColouredGraph:
    """Complete graph on vertices 0..v-1 with a colour on every edge.

    ``chi`` is the flat lower-triangular table; entry for {i, j} with i < j
    sits at index j*(j-1)//2 + i.  Immutable once built.
    """

    __slots__ = ("v", "chi", "_colours")

    def __init__(self, v: int, chi: Sequence[object]):
        if v < 1:
            raise ValidationError("graph/shape", "vertex count must be positive")
        expected = v * (v - 1) // 2
        if len(chi) != expected:
            raise ValidationError(
                "graph/shape", f"edge table must have {expected} entries, got {len(chi)}"
            )
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "chi", tuple(chi))
        object.__setattr__(self, "_colours", None)

    def __setattr__(self, name, value):
        raise AttributeError("ColouredGraph is immutable")

    def colour(self, i: int, j: int):
        return self.chi[pair_index(i, j)]

    @property
    def colours(self) -> tuple:
        """Distinct colours present, in their total order."""
        if self._colours is None:
            try:
                object.__setattr__(self, "_colours", tuple(sorted(set(self.chi))))
            except TypeError:
                raise ValidationError(
                    "graph/colours", "edge colours are not mutually comparable"
                ) from None
        return self._colours

    def __eq__(self, other):
        return (
            isinstance(other, ColouredGraph) and self.v == other.v and self.chi == other.chi
        )

    def __hash__(self):
        return hash((self.v, self.chi))

    def __repr__(self):
        return f"ColouredGraph(v={self.v})"


@dataclass(frozen=True)
class SimpleGraph:
    v: int
    edges: frozenset[tuple[int, int]]  # pairs (i, j) with i < j

    def adjacent(self, u: int, w: int) -> bool:
        a, b = (u, w) if u < w else (w, u)
        return (a, b) in self.edges


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
    for p in demand.vertices():
        if not (0 <= p < graph.v):
            raise DemandError("demand/range", f"vertex {p} is not in the graph")
    taken = demand.vertices()
    for z in range(graph.v):
        if z in taken:
            continue
        ok = True
        for u_set, c in zip(demand.sets, demand.colours):
            for u in u_set:
                if graph.colour(z, u) != c:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return z
    return None


def as_probability(p: object) -> Fraction:
    """Exact probability in (0, 1).  Floats convert by their exact binary
    value (0.5 is exactly 1/2); prefer Fraction or strings elsewhere."""
    if isinstance(p, bool):
        raise ValidationError("prob/range", "probability must be a number in (0,1)")
    if isinstance(p, float):
        p = Fraction(p)
    elif isinstance(p, (int, str)):
        p = Fraction(p)
    if not isinstance(p, Fraction) or not (0 < p < 1):
        raise ValidationError("prob/range", "probability must lie strictly between 0 and 1")
    return p


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

    def edge_colour(self, u: int, v: int) -> int:
        if u == v:
            raise ValidationError("graph/loop", "no colour on a loop")
        return prng.edge_colour(self.p, self.seed, u, v)


def random_coloured_graph(n: int, colouring: GeometricColouring) -> ColouredGraph:
    """Materialize the seeded colouring on n vertices.

    Bulk path is the vectorized replay of the scalar per-edge function;
    the two are pinned equal by tests.
    """
    if n < 1:
        raise ValidationError("graph/shape", "vertex count must be positive")
    flat = prng.all_edge_colours(colouring.p, colouring.seed, n).tolist()
    return ColouredGraph(n, flat)


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
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError("prob/range", "candidate count must be a non-negative integer")
    pf = as_probability(p)
    if len(indices) != len(sizes):
        raise DemandError("demand/shape", "one size per colour index required")
    exp_q = 0
    exp_p = 0
    for c, size in zip(indices, sizes):
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            raise DemandError("demand/colour", "colour indices must be positive integers")
        if not isinstance(size, int) or isinstance(size, bool) or size < 0:
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


def rado_slice(graph: ColouredGraph, colour: object) -> SimpleGraph:
    """Simple graph keeping exactly the edges of one colour."""
    edges = set()
    for j in range(graph.v):
        for i in range(j):
            if graph.chi[j * (j - 1) // 2 + i] == colour:
                edges.add((i, j))
    return SimpleGraph(graph.v, frozenset(edges))


def to_coloured_graph(space: EchelonedSpace) -> ColouredGraph:
    """View a space as a complete graph coloured by ranks 1..n."""
    flat = []
    for j in range(space.m):
        for i in range(j):
            flat.append(space.rank(i, j))
    return ColouredGraph(space.m, flat)


def from_coloured_graph(graph: ColouredGraph) -> EchelonedSpace:
    """Echelon a complete coloured graph by the order of its colours.

    Fails if the colour labels are not mutually comparable."""
    weights = {}
    for j in range(graph.v):
        for i in range(j):
            weights[(i, j)] = graph.chi[j * (j - 1) // 2 + i]
    return from_weights(graph.v, weights)
