"""One-point-extension functor on finite echeloned spaces.

For a space X with m points and ranks 1..n the extension chain C(X) lists
every rank a new point could put a pair at, in order:

    bot < apart < slot(1,0) .. slot(m,0) < rank(1) < slot(1,1) .. slot(m,1)
        < rank(2) < ... < rank(n) < slot(1,n) .. slot(m,n)

``bot`` is the diagonal, ``rank(i)`` the image of the existing rank i,
``slot(k,j)`` the k-th fresh value falling strictly between rank(j) and
rank(j+1) (gap 0 sits below rank(1), gap n above rank(n)), and ``apart``
the common rank separating any two distinct extension functions.  The
chain has n + 2 + (n+1)m elements.

This module works on chain positions; labels are a view for JSON and the
label API.  Bot is 0, and ``1 + j(m+1) + k`` is apart if j = k = 0, rank(j)
if k = 0 < j and slot(k,j) if k > 0.  An embedding into a space of m'
points with rank map w sends ``1 + j(m+1) + k`` to ``1 + w[j](m'+1) + k``.

The extension space K(X) has the points of X plus one point per function
from X into the nonbottom positions ((|C(X)|-1)^|X| of them, ordered
lexicographically by their value tuples).  Its rank table realizes the
chain exactly: the rank of a pair is the chain position of its label, and
every position is attained.  K acts on embeddings, giving a functor, and
every one-point extension of X embeds into K(X) over the identical
embedding of X, so the extensions are read off K(X).

An extension point's code (its id minus |X|) has one digit per base point,
the first most significant: ``position - 1`` in base ``width = (n+1)(m+1)``,
at the place value ``width ** (m - 1 - x)`` for base point x.  So the rank
between x and an extension point reads that point's one digit, and K(phi)
maps a code to |Y| (points outside phi's image take ``apart``, digit 0)
plus one term per base point, read from the transported digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceeded, MorphismError
from .space import (
    ENUMERATE_CAP,
    EchelonedSpace,
    PointMap,
    _colex_pairs,
    _compress,
    _is_int,
    embedding_rank_map,
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
        bare = KatetovChain(m, n, ())
        return KatetovChain(m, n, tuple(map(bare.label_at, range(len(bare)))))

    def __len__(self) -> int:
        return (self.n + 1) * (self.m + 1) + 1

    def position(self, label: Label) -> int:
        """The chain position of a label; KeyError for a label not on the chain."""
        nums = label[1:]  # (j,) for rank(j), (k, j) for slot(k, j)
        if all(type(v) is int for v in nums):
            j = nums[-1] if nums else 0
            k = nums[0] if len(nums) > 1 else 0
            pos = 0 if label == BOT else 1 + j * (self.m + 1) + k
            if 0 <= pos < len(self) and self.label_at(pos) == label:
                return pos
        raise KeyError(label)

    def label_at(self, pos: int) -> Label:
        if not 0 <= pos < len(self):
            raise IndexError(f"chain position {pos} out of range")
        if pos == 0:
            return BOT
        j, k = divmod(pos - 1, self.m + 1)
        if k:
            return slot(k, j)
        return rank_label(j) if j else APART


def katetov_chain(space: EchelonedSpace) -> KatetovChain:
    """The extension chain of a space."""
    return KatetovChain.of(space.m, space.n)


class KatetovSpace:
    """The extension space K(X), with ranks computed on demand.

    Point ids: 0..X.m-1 are the original points (the identical embedding);
    the remaining ids enumerate the extension functions in lexicographic
    order of their value tuples (chain positions 1..width per coordinate).
    The full table is only materialized on request, since the point count
    is exponential in |X|.
    """

    __slots__ = ("base", "width", "m", "n", "_place")

    def __init__(self, base: EchelonedSpace):
        self.base = base
        # the nonbottom chain positions, which are also the ranks of K(X)
        self.width = self.n = (base.n + 1) * (base.m + 1)
        self.m = base.m + self.width**base.m
        # the place value of each base point's digit, the first most significant
        self._place = tuple(self.width ** (base.m - 1 - x) for x in range(base.m))

    @property
    def chain(self) -> KatetovChain:
        return katetov_chain(self.base)

    def function_count(self) -> int:
        return self.width**self.base.m

    def _code(self, point: int) -> int:
        code = point - self.base.m
        if not (0 <= code < self.function_count()):
            raise MorphismError("katetov/point", f"{point} is not an extension point")
        return code

    def function_values(self, point: int) -> tuple[int, ...]:
        """Chain positions (1..width) of an extension point's values."""
        code = self._code(point)
        return tuple(code // place % self.width + 1 for place in self._place)

    def function_point(self, values: Sequence[int]) -> int:
        """Point id of the extension function with the given value tuple."""
        if len(values) != self.base.m:
            raise MorphismError("katetov/point", "one value per base point required")
        code = 0
        for pos in values:
            if not (_is_int(pos) and 1 <= pos <= self.width):
                raise MorphismError("katetov/point", f"chain position {pos} out of range")
            code = code * self.width + (pos - 1)
        return self.base.m + code

    def rank(self, u: int, v: int) -> int:
        """The rank of the pair (u, v) in K(X).  Points 0..m-1 are taken
        unchecked: a negative point counts as a base point and reads from
        the end, as Python's indexing does, and only an extension point's
        code is range-checked.  Callers check outside point maps with
        ``space._check_point_map`` first, as the CLI does."""
        if u == v:
            return 0
        base_m = self.base.m
        if u < base_m and v < base_m:
            return 1 + self.base.rank(u, v) * (base_m + 1)
        if u >= base_m and v >= base_m:
            return 1  # apart
        x, f = (u, v) if u < base_m else (v, u)
        return self._code(f) // self._place[x] % self.width + 1

    def identity_embedding(self) -> PointMap:
        return tuple(range(self.base.m))

    def materialize(self, cap: int = 512) -> EchelonedSpace:
        if self.m > cap:
            raise CapExceeded(
                "katetov/materialize", f"{self.m} points exceed the table cap {cap}"
            )
        # every chain position is a rank of K(X), so compressing keeps them
        return _compress(self.m, [self.rank(u, v) for u, v in _colex_pairs(self.m)])[0]


def katetov_space(space: EchelonedSpace) -> KatetovSpace:
    """Build K(X).  Refuses |X| beyond ``KATETOV_CAP``."""
    if space.m > KATETOV_CAP:
        raise CapExceeded("katetov/cap", f"|X|={space.m} exceeds the cap {KATETOV_CAP}")
    return KatetovSpace(space)


def _transport(w: Sequence[int], m: int, target_m: int) -> list[int]:
    """The images of the positions 1..width of an m-point space's chain."""
    return [1 + wj * (target_m + 1) + k for wj in w for k in range(m + 1)]


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
    moved = [0] + _transport(w, source.m, target.m)  # bot stays
    return dict(zip(katetov_chain(source).labels, map(katetov_chain(target).label_at, moved)))


def katetov_map(
    kx: KatetovSpace, ky: KatetovSpace, phi: Sequence[int]
) -> PointMap:
    """The functor's action K(phi) : K(X) -> K(Y) as a point map.

    Original points follow phi.  An extension function h moves to the
    function sending phi(x) to the transported value of h(x) and every
    point outside the image to ``apart``.

    Built digit by digit on the codes (see the module docstring), so they
    come out in the order of K(X)'s points.  A transported position off
    K(Y)'s nonbottom chain would spill a digit into its neighbour; an
    embedding's transport never does, and one check over the digits keeps
    the guarantee ``function_point`` gives per point.
    """
    x, y = kx.base, ky.base
    w = embedding_rank_map(x, y, phi)
    if w is None:
        raise MorphismError("katetov/not-embedding", "the point map is not an embedding")
    phi = tuple(phi)
    digits = [p - 1 for p in _transport(w, x.m, y.m)]
    if not all(0 <= d < ky.width for d in digits):
        raise MorphismError("katetov/point", "a transported chain position is out of range")
    codes = [y.m]
    for px in range(x.m):
        step = [d * ky._place[phi[px]] for d in digits]
        codes = [c + t for c in codes for t in step]
    return phi + tuple(codes)


class Realization(NamedTuple):
    katetov: KatetovSpace
    g: PointMap  # embedding of the extension into K(X), identity on X


def realize_extension(space: EchelonedSpace, extension: EchelonedSpace) -> Realization:
    """Embed a one-point extension of X into K(X) over the identity.

    ``extension`` must have the points of X plus one final point, and must
    restrict to X exactly.  The new point's distances decompose along the
    extension chain: ranks shared with X land on rank positions, new ranks
    on the slots of the gap they fall into, which pins down the extension
    function the new point maps to.
    """
    if extension.m != space.m + 1:
        raise MorphismError("extend/shape", "extension must add exactly one point")
    # the identity embeds X exactly when the extension restricts to X, and
    # its rank map sends X's rank i to the extension's, increasing
    e_hat = embedding_rank_map(space, extension, range(space.m))
    if e_hat is None:
        raise MorphismError("extend/restriction", "extension does not restrict to the space")
    # Walk the extension's ranks upward: the rank e_hat[i] of X opens gap i,
    # and each rank the new point introduces takes the next slot of its gap.
    position = [0]
    gap = k = 0
    for d in range(1, extension.n + 1):
        opens = gap < space.n and e_hat[gap + 1] == d
        gap, k = (gap + 1, 0) if opens else (gap, k + 1)
        position.append(1 + gap * (space.m + 1) + k)

    kx = katetov_space(space)
    values = [position[extension.rank(space.m, px)] for px in range(space.m)]
    g = tuple(range(space.m)) + (kx.function_point(values),)
    assert embedding_rank_map(extension, kx, g) is not None
    return Realization(kx, g)


def one_point_extensions(space: EchelonedSpace) -> list[EchelonedSpace]:
    """All labelled one-point extensions of a space, new point last.

    The distinct spaces that X and one point of K(X) induce, listed by
    table, which is the rank-string order of ``enumerate_spaces(m + 1)``.
    Desk scale: refuses m + 1 points beyond ``ENUMERATE_CAP``.
    """
    m = space.m
    if m + 1 > ENUMERATE_CAP:
        raise CapExceeded("enumerate/cap", f"m={m + 1} exceeds the exhaustive cap {ENUMERATE_CAP}")
    kx = KatetovSpace(space)
    # X's rank string, then the new point's row: the pairs of m + 1 points
    base = tuple(kx.rank(a, b) for a, b in _colex_pairs(m))
    points = product(range(1, kx.width + 1), repeat=m)
    found = {_compress(m + 1, base + h)[0] for h in points}
    return sorted(found, key=lambda ext: ext.table)
