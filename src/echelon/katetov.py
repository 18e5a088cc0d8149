"""One-point-extension functor on finite echeloned spaces.

For a space X with ranks 1..n the extension chain C(X) lists every rank a
new point could put a pair at, in order:

    bot < apart < slot(1,0) .. slot(m,0) < rank(1) < slot(1,1) .. slot(m,1)
        < rank(2) < ... < rank(n) < slot(1,n) .. slot(m,n)

``bot`` is the diagonal, ``rank(i)`` the image of the existing rank i,
``slot(k,j)`` the k-th fresh value falling strictly between rank(j) and
rank(j+1) (gap 0 sits below rank(1), gap n above rank(n)), and ``apart``
the common rank separating any two distinct extension functions.  The
chain has n + 2 + (n+1)m elements.

The extension space K(X) has the points of X plus one point per function
from X into the nonbottom chain labels ((|C(X)|-1)^|X| of them, ordered
lexicographically by their value tuples).  Its rank table realizes the
chain exactly: the rank of a pair is the chain position of its label, and
every position is attained.  K acts on embeddings, giving a functor, and
every one-point extension of X embeds into K(X) over the identical
embedding of X.

An extension point's code (its id minus |X|) is a mixed-radix number: one
digit per base point, the first base point most significant, digit value
``position - 1`` in base ``width = |C(X)| - 1``.  So K(phi) needs no
per-point work: the image of a code is a constant (|Y| plus the ``apart``
digits of the points outside phi's image) plus one term per base point,
read from a table of ``width`` entries, and the image codes are the sums
over the product of those tables.  The chain depends only on (m, n), so
one frozen ``KatetovChain`` per (m, n) is shared by every K(X) built on
it, with its label-to-position dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceeded, MorphismError
from .space import (
    EchelonedSpace,
    PointMap,
    embedding_rank_map,
    enumerate_spaces,
    induced_subspace,
)

Label = tuple

# Largest base K(X) is built for: the point count |X| + (n + 1 + (n+1)|X|)^|X|
# is 4,099 at three points with three ranks and 1,500,629 at four with six.
KATETOV_CAP = 3

BOT: Label = ("bot",)
APART: Label = ("apart",)


def slot(k: int, j: int) -> Label:
    return ("slot", k, j)


def rank_label(i: int) -> Label:
    return ("rank", i)


@dataclass(frozen=True)
class KatetovChain:
    """The extension chain of a space with m points and n ranks."""

    m: int
    n: int
    labels: tuple[Label, ...]

    @staticmethod
    def of(m: int, n: int) -> "KatetovChain":
        out: list[Label] = [BOT, APART]
        out.extend(slot(k, 0) for k in range(1, m + 1))
        for i in range(1, n + 1):
            out.append(rank_label(i))
            out.extend(slot(k, i) for k in range(1, m + 1))
        return KatetovChain(m, n, tuple(out))

    def __len__(self) -> int:
        return len(self.labels)

    def position(self, label: Label) -> int:
        return self._positions[label]

    def label_at(self, pos: int) -> Label:
        return self.labels[pos]

    @cached_property
    def _positions(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


@lru_cache(maxsize=256)
def _shared_chain(m: int, n: int) -> KatetovChain:
    return KatetovChain.of(m, n)


def katetov_chain(space: EchelonedSpace) -> KatetovChain:
    """The extension chain of a space, shared by all spaces with its (m, n)."""
    return _shared_chain(space.m, space.n)


class KatetovSpace:
    """The extension space K(X), with ranks computed on demand.

    Point ids: 0..X.m-1 are the original points (the identical embedding);
    the remaining ids enumerate the extension functions in lexicographic
    order of their value tuples (chain positions 1..width per coordinate).
    The full table is only materialized on request, since the point count
    is exponential in |X|.
    """

    __slots__ = ("base", "chain", "width", "m", "n", "_pos")

    def __init__(self, base: EchelonedSpace):
        self.base = base
        self.chain = katetov_chain(base)
        self.width = len(self.chain) - 1  # nonbottom labels
        self.m = base.m + self.width**base.m
        self.n = len(self.chain) - 1  # ranks coincide with chain positions
        self._pos = self.chain._positions

    def function_count(self) -> int:
        return self.width**self.base.m

    def function_values(self, point: int) -> tuple[int, ...]:
        """Chain positions (1..width) of an extension point's values."""
        code = point - self.base.m
        if not (0 <= code < self.function_count()):
            raise MorphismError("katetov/point", f"{point} is not an extension point")
        out = []
        for _ in range(self.base.m):
            out.append(code % self.width + 1)
            code //= self.width
        return tuple(reversed(out))

    def function_point(self, values: Sequence[int]) -> int:
        """Point id of the extension function with the given value tuple."""
        if len(values) != self.base.m:
            raise MorphismError("katetov/point", "one value per base point required")
        code = 0
        for pos in values:
            if not (1 <= pos <= self.width):
                raise MorphismError("katetov/point", f"chain position {pos} out of range")
            code = code * self.width + (pos - 1)
        return self.base.m + code

    def rank(self, u: int, v: int) -> int:
        if u == v:
            return 0
        base_m = self.base.m
        if u < base_m and v < base_m:
            return self._pos[rank_label(self.base.rank(u, v))]
        if u >= base_m and v >= base_m:
            return self._pos[APART]
        x, f = (u, v) if u < base_m else (v, u)
        return self.function_values(f)[x]

    def identity_embedding(self) -> PointMap:
        return tuple(range(self.base.m))

    def materialize(self, cap: int = 512) -> EchelonedSpace:
        if self.m > cap:
            raise CapExceeded(
                "katetov/materialize", f"{self.m} points exceed the table cap {cap}"
            )
        table = [[self.rank(u, v) for v in range(self.m)] for u in range(self.m)]
        return EchelonedSpace(self.m, self.n, tuple(tuple(row) for row in table))


def katetov_space(space: EchelonedSpace) -> KatetovSpace:
    """Build K(X).  Refuses |X| beyond ``KATETOV_CAP``."""
    if space.m > KATETOV_CAP:
        raise CapExceeded("katetov/cap", f"|X|={space.m} exceeds the cap {KATETOV_CAP}")
    return KatetovSpace(space)


def chain_label_map(
    source: EchelonedSpace, target: EchelonedSpace, phi: Sequence[int]
) -> Optional[dict[Label, Label]]:
    """How an embedding transports extension-chain labels, or None.

    bot and apart are fixed, gap-0 slots keep their index, rank(i) follows
    the embedding's rank map, and slot(k,i) moves to the same slot index in
    the image gap."""
    w = embedding_rank_map(source, target, phi)
    if w is None:
        return None
    out: dict[Label, Label] = {BOT: BOT, APART: APART}
    for k in range(1, source.m + 1):
        out[slot(k, 0)] = slot(k, 0)
    for i in range(1, source.n + 1):
        out[rank_label(i)] = rank_label(w[i])
        for k in range(1, source.m + 1):
            out[slot(k, i)] = slot(k, w[i])
    return out


def katetov_map(
    kx: KatetovSpace, ky: KatetovSpace, phi: Sequence[int]
) -> PointMap:
    """The functor's action K(phi) : K(X) -> K(Y) as a point map.

    Original points follow phi.  An extension function h moves to the
    function sending phi(x) to the transported value of h(x) and every
    point outside the image to ``apart``.

    Built digit by digit on the mixed-radix codes (see the module
    docstring), with the first base point as the most significant digit,
    so the codes come out in the order of K(X)'s points.  Each mapped
    position must be a nonbottom position of K(Y)'s chain, or a digit would
    spill into its neighbour; the transport fixes only bot to bot, so this
    always holds, and one check over the width-sized table keeps the
    guarantee that ``function_point`` gave per point.
    """
    x, y = kx.base, ky.base
    label_map = chain_label_map(x, y, phi)
    if label_map is None:
        raise MorphismError("katetov/not-embedding", "the point map is not an embedding")
    phi = tuple(phi)
    pos_map = {kx._pos[lab]: ky._pos[mapped] for lab, mapped in label_map.items()}
    digits = [pos_map[d] - 1 for d in range(1, kx.width + 1)]
    if not all(0 <= d < ky.width for d in digits):
        raise MorphismError("katetov/point", "a transported chain position is out of range")
    place = [ky.width ** (y.m - 1 - py) for py in range(y.m)]
    apart = ky._pos[APART] - 1
    outside = set(range(y.m)).difference(phi)
    codes = [y.m + sum(apart * place[py] for py in outside)]
    for px in range(x.m):
        step = [d * place[phi[px]] for d in digits]
        codes = [c + t for c in codes for t in step]
    return phi + tuple(codes)


class Realization(NamedTuple):
    katetov: KatetovSpace
    g: PointMap  # embedding of the extension into K(X), identity on X


def realize_extension(space: EchelonedSpace, extension: EchelonedSpace) -> Realization:
    """Embed a one-point extension of X into K(X) over the identity.

    ``extension`` must have the points of X plus one final point, and must
    restrict to X exactly.  The new point's distances decompose along the
    extension chain: ranks shared with X land on rank labels, new ranks on
    the slots of the gap they fall into, which pins down the extension
    function the new point maps to.
    """
    if extension.m != space.m + 1:
        raise MorphismError("extend/shape", "extension must add exactly one point")
    sub = induced_subspace(extension, range(space.m))
    if sub.space != space:
        raise MorphismError("extend/restriction", "extension does not restrict to the space")
    e_hat = sub.rank_map  # space rank i -> extension rank
    image = set(e_hat[1:])
    # Gap and slot index for every rank the new point introduces.
    fresh = [d for d in range(1, extension.n + 1) if d not in image]
    placement: dict[int, Label] = {}
    taken: dict[int, int] = {}  # slots used so far per gap; fresh is ascending
    for d in fresh:
        gap = sum(1 for i in range(1, space.n + 1) if e_hat[i] < d)
        taken[gap] = taken.get(gap, 0) + 1
        placement[d] = slot(taken[gap], gap)
    for i in range(1, space.n + 1):
        placement[e_hat[i]] = rank_label(i)

    kx = katetov_space(space)
    new_point = space.m
    values = [
        kx._pos[placement[extension.rank(new_point, px)]] for px in range(space.m)
    ]
    g = tuple(range(space.m)) + (kx.function_point(values),)
    assert embedding_rank_map(extension, kx, g) is not None
    return Realization(kx, g)


def one_point_extensions(space: EchelonedSpace):
    """All labelled one-point extensions of a space, new point last.

    Filters the exhaustive enumeration on m+1 points by exact restriction,
    so every extension type over the identical embedding shows up (possibly
    with several labellings of its rank chain).  Desk scale: inherits the
    enumeration cap.
    """
    for cand in enumerate_spaces(space.m + 1):
        if induced_subspace(cand, range(space.m)).space == space:
            yield cand
