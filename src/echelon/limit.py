"""Seeded generative models of the universal homogeneous echeloned space.

A model is an unbounded point supply with a positive-rational rank label on
every pair (0 on the diagonal); any finite prefix compresses to an
echeloned space.  Two interchangeable modes:

* random: the label of {u, v} is the i-th positive rational in Calkin-Wilf
  order, i drawn geometrically (parameter p) from the pair's own SplitMix64
  key.  Labels are a pure function of (p, seed, pair): growth never touches
  old pairs and witnesses are found by scanning, growing the prefix in
  blocks when needed, up to a hard cap.  The colour index comes from a
  64-bit inverse CDF, so the label alphabet is finite:
  ``len(prng.geometric_thresholds(p)) + 1`` labels, 65 at p = 1/2.  The
  model works on colour indices: prefixes rank-compress the labels' ranks
  within the alphabet, and a witness scan tests blocks of candidates
  against a table of the colours each demand entry admits.  A demand that
  no label of the alphabet meets, such as ``OpenInterval(1, 7/6)``, has
  probability 0 and ends in the witness-cap error once the whole capped
  range is scanned (about 0.1 s at the default cap).

* deterministic: labels are constructed.  Auto-growth alternates a fresh
  point (labels above everything, so the first two points share label 1)
  with a point whose label to point 0 falls in the bottom gap, between the
  two least labels; witnesses are built directly, choosing fresh in-gap
  labels by Stern-Brocot selection.

A witness demand fixes, per base point, either an exact label or an open
interval.  Interval entries carry a tier: equal bounds and equal tier mean
equal labels, equal bounds and increasing tier mean strictly increasing
labels.  That is exactly the expressiveness back-and-forth needs when one
new point brings several fresh label classes into the same gap.

Back-and-forth keeps its state per side, indexed 0 (first model) and 1
(second): the matched points, the covered set and a cursor on the least
uncovered point, which only moves forward because covered sets only grow.
One step body serves both sides.  The label bijection between the two
sides is an order isomorphism, so it is kept as two aligned sorted lists,
the i-th known label of one side matching the i-th of the other.  One
bisection of a label answers both whether it is known (and its image) and,
if not, which gap it falls in: the gap's bounds are the images of its
neighbours.  The lists grow by the new pairs after each witness.  The
moving side's new labels are the ones its demand read, and only the
witness side's are read after the witness, so during the search each side
reads each matched pair once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, pairwise
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import prng
from .colgraph import GeometricColouring
from .errors import CapExceeded, DemandError, EchelonError, ValidationError
from .rationals import as_probability, exact_rational, nth_rational, simplest_between
from .space import EchelonedSpace, _colex_pairs, _compress, _is_int

WITNESS_CAP = 1 << 20
GROW_BLOCK = 64


@dataclass(frozen=True)
class ExactLabel:
    value: Fraction


@dataclass(frozen=True)
class OpenInterval:
    lo: Fraction
    hi: Optional[Fraction]  # None: unbounded above
    tier: int = 0


Entry = Union[ExactLabel, OpenInterval]


@dataclass(frozen=True)
class Demand:
    """Ordered (point, requirement) entries over existing points."""

    entries: tuple[tuple[int, Entry], ...]


def _as_label(value: object, code: str) -> Fraction:
    q = exact_rational(value)
    if q is None:
        raise DemandError(code, f"labels are exact rationals, got {value!r}")
    return q


def _validate_demand(demand: Demand, size: int) -> list[tuple[int, Entry]]:
    if not isinstance(demand, Demand):
        raise DemandError("demand/shape", "a Demand instance is required")
    seen: set[int] = set()
    out = []
    for point, entry in demand.entries:
        if not _is_int(point) or not (0 <= point < size):
            raise DemandError("demand/point", f"point {point!r} is not materialized")
        if point in seen:
            raise DemandError("demand/duplicate", f"point {point} demanded twice")
        seen.add(point)
        if isinstance(entry, ExactLabel):
            value = _as_label(entry.value, "demand/label")
            if value <= 0:
                raise DemandError("demand/label", "exact labels must be positive")
            entry = ExactLabel(value)
        elif isinstance(entry, OpenInterval):
            lo = _as_label(entry.lo, "demand/interval")
            hi = None if entry.hi is None else _as_label(entry.hi, "demand/interval")
            if lo < 0 or (hi is not None and hi <= lo):
                raise DemandError("demand/interval", "need 0 <= lo < hi")
            if not _is_int(entry.tier) or entry.tier < 0:
                raise DemandError("demand/interval", "tier must be a non-negative integer")
            entry = OpenInterval(lo, hi, entry.tier)
        else:
            raise DemandError("demand/shape", f"unknown demand entry {entry!r}")
        out.append((point, entry))
    return out


class LimitModel:
    """Common prefix bookkeeping; concrete labelling left to the modes."""

    mode: str
    seed: int

    def __init__(self):
        self.size = 0

    def limit_points(self, n: int) -> tuple[int, ...]:
        """Materialize (at least) the first n points; returns their ids."""
        if not _is_int(n) or n < 0:
            raise ValidationError("limit/count", "point count must be a non-negative int")
        while self.size < n:
            self._extend()
        return tuple(range(n))

    def rank_label(self, u: int, v: int) -> Fraction:
        if not (0 <= u < self.size and 0 <= v < self.size):
            raise ValidationError("limit/unmaterialized", "both points must be materialized")
        if u == v:
            return Fraction(0)
        return self._label(u, v)

    def sample_prefix(self, n: int) -> EchelonedSpace:
        """The echeloned space on the first n points (rank-compressed)."""
        if not _is_int(n) or n < 1:
            raise ValidationError("limit/count", "a prefix needs a positive int point count")
        self.limit_points(n)
        return _compress(n, self._prefix_values(n))[0]

    def _prefix_values(self, n: int) -> Sequence:
        """Values ordered as the labels of the first n points' pairs, one
        per pair in ``_colex_pairs(n)`` order."""
        return [self._label(u, v) for u, v in _colex_pairs(n)]

    def existing_labels(self) -> list[Fraction]:
        """Sorted distinct labels among materialized pairs."""
        out = {
            self._label(u, v) for u in range(self.size) for v in range(u + 1, self.size)
        }
        return sorted(out)

    def ensure_witness(self, demand: Demand) -> int:
        raise NotImplementedError

    def _label(self, u: int, v: int) -> Fraction:
        raise NotImplementedError

    def _extend(self) -> None:
        raise NotImplementedError


def _tier_pattern_ok(entries: Sequence[tuple[int, Entry]], label_of) -> bool:
    """Equal (bounds, tier) must agree; within bounds, labels rise with tier.

    The distinct (tier, label) pairs of one bounds group, sorted, must rise
    strictly in both: a tier with two labels shows as a repeated tier."""
    groups: dict[tuple, set[tuple[int, Fraction]]] = {}
    for point, entry in entries:
        if isinstance(entry, OpenInterval):
            groups.setdefault((entry.lo, entry.hi), set()).add((entry.tier, label_of(point)))
    steps = (pairwise(sorted(pairs)) for pairs in groups.values())
    return all(t < u and a < b for group in steps for (t, a), (u, b) in group)


class _Alphabet(NamedTuple):
    labels: tuple[Fraction, ...]  # labels[c] = nth_rational(c); labels[0] = 0, the diagonal
    ordered: list[Fraction]  # the same labels, ascending
    rank: np.ndarray  # rank[c] = position of labels[c] in ordered


@lru_cache(maxsize=None)
def _alphabet(p: Fraction) -> _Alphabet:
    """Every label the random model can give at colour rate p."""
    colours = len(prng.geometric_thresholds(p)) + 1
    labels = (Fraction(0),) + tuple(nth_rational(c) for c in range(1, colours + 1))
    ordered = sorted(labels)
    position = {q: r for r, q in enumerate(ordered)}
    rank = np.array([position[q] for q in labels], dtype=np.int64)
    rank.setflags(write=False)
    return _Alphabet(labels, ordered, rank)


def _rank_bounds(ordered: Sequence[Fraction], entry: Entry) -> tuple[int, int]:
    """The half-open range of alphabet positions whose labels meet entry."""
    if isinstance(entry, ExactLabel):
        r = bisect_left(ordered, entry.value)
        return (r, r + 1) if r < len(ordered) and ordered[r] == entry.value else (0, 0)
    hi = len(ordered) if entry.hi is None else bisect_left(ordered, entry.hi)
    return bisect_right(ordered, entry.lo), hi


class RandomLimitModel(LimitModel):
    """Labels read off the seeded geometric colouring, Calkin-Wilf indexed."""

    mode = "random"

    def __init__(self, seed: int, p: object = Fraction(1, 2), cap: int = WITNESS_CAP):
        super().__init__()
        if not _is_int(cap) or cap < 1:
            raise ValidationError("limit/count", "the witness cap must be an int of at least 1")
        self.seed = seed
        self.p = as_probability(p)
        self.cap = cap

    @cached_property
    def alphabet(self) -> tuple[Fraction, ...]:
        """The label of each colour index; index 0 is the diagonal's 0.
        Read from ``_alphabet`` once per model and kept on the instance, so
        a pair's label is one tuple lookup by its colour."""
        return _alphabet(self.p).labels

    @cached_property
    def _colouring(self) -> GeometricColouring:
        """The seeded colouring whose colours index the labels; it reads
        its law once, so a pair's scalar colour costs no cache lookup."""
        return GeometricColouring(self.p, self.seed)

    def _label(self, u: int, v: int) -> Fraction:
        return self.alphabet[self._colouring.edge_colour(u, v)]

    def _prefix_values(self, n: int) -> list[int]:
        """Each pair's label rank within the alphabet, from the colour
        kernel, which lists the pairs in ``_colex_pairs(n)`` order."""
        return _alphabet(self.p).rank[prng.all_edge_colours(self.p, self.seed, n)].tolist()

    def _extend(self) -> None:
        self.size += 1

    def existing_labels(self) -> list[Fraction]:
        """Sorted distinct labels among materialized pairs.

        ``prng._colour_blocks``, the row walk behind ``all_edge_colours``,
        colours the pairs in blocks of rows, and each colour seen marks its
        alphabet label.  The work is still quadratic in ``size``, so a
        prefix left at the witness cap (2^20 points) stays out of reach."""
        alphabet = _alphabet(self.p)
        seen = np.zeros(len(alphabet.labels), dtype=bool)
        for _, colours in prng._colour_blocks(self.p, self.seed, self.size):
            seen[colours] = True
        return sorted(alphabet.labels[c] for c in np.flatnonzero(seen).tolist())

    def colour_index(self, u: int, v: int) -> int:
        """The geometric colour behind a pair's label."""
        if not (0 <= u < self.size and 0 <= v < self.size) or u == v:
            raise ValidationError("limit/unmaterialized", "need two distinct materialized points")
        return self._colouring.edge_colour(u, v)

    def ensure_witness(self, demand: Demand) -> int:
        """The least point outside the demand's base that meets it, among
        the materialized points and, past them, up to the hard cap.

        Candidates are coloured in blocks by the pair kernel and tested
        against a table of the colour indices each entry admits; the tier
        pattern is checked only on the candidates that pass.  The prefix
        then grows in ``GROW_BLOCK`` steps until it holds the witness, or
        to the cap before the cap error."""
        entries = _validate_demand(demand, self.size)
        alphabet = _alphabet(self.p)
        points = np.array([point for point, _ in entries], dtype=np.int64)
        bounds = np.array(
            [_rank_bounds(alphabet.ordered, entry) for _, entry in entries], dtype=np.int64
        ).reshape(-1, 2)
        admits = (alphabet.rank >= bounds[:, :1]) & (alphabet.rank < bounds[:, 1:])
        rows = np.arange(len(entries))
        widest = max(GROW_BLOCK, prng.BLOCK_PAIRS // max(len(entries), 1))
        width = min(max(self.size, GROW_BLOCK), widest)
        start, end = 0, max(self.size, self.cap)
        while start < end:
            stop = min(start + width, end)
            candidates = np.arange(start, stop, dtype=np.int64)
            colours = prng.pair_colours(self.p, self.seed, candidates[:, None], points)
            ok = admits[rows, colours].all(axis=1)
            inside = points[(points >= start) & (points < stop)]
            ok[inside - start] = False
            for i in np.flatnonzero(ok).tolist():
                labels = [alphabet.labels[c] for c in colours[i].tolist()]
                if _tier_pattern_ok(entries, dict(zip(points.tolist(), labels)).__getitem__):
                    z = start + i
                    if z >= self.size:
                        blocks = -(-(z + 1 - self.size) // GROW_BLOCK)
                        self.size = min(self.size + blocks * GROW_BLOCK, self.cap)
                    return z
            start = stop
            width = min(2 * width, widest)
        self.size = end
        raise CapExceeded(
            "limit/witness-cap",
            f"no witness among the first {self.size} points (cap {self.cap})",
        )


def _insert(ordered: list[Fraction], label: Fraction) -> bool:
    """Insert label into the ascending distinct list unless it is there
    already, with one bisection; report whether it was inserted."""
    i = bisect_left(ordered, label)
    if absent := i == len(ordered) or ordered[i] != label:
        ordered.insert(i, label)
    return absent


class DeterministicLimitModel(LimitModel):
    """Constructed labels: every demand is realized by appending a point.

    Growth alternates a fresh point, labelled above every label so far,
    with a point whose label to point 0 falls in the bottom gap, between
    the two least labels.

    The distinct labels are indexed incrementally in one sorted list,
    updated as each pair label is written: fresh labels are appended at the
    top, and an in-gap or exact label is placed by one bisection, which
    also tells whether it is there already.  Nothing is rebuilt per point,
    so growth to n points costs O(n^2) label writes.  The pair labels are
    one flat list in ``_colex_pairs`` order: each new point appends its
    row, and a prefix's labels are a slice."""

    mode = "deterministic"

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed  # recorded; the construction is canonical
        self._labels: list[Fraction] = []
        self._sorted: list[Fraction] = []
        self._schedule_step = 0

    def _label(self, u: int, v: int) -> Fraction:
        u, v = (u, v) if u < v else (v, u)
        return self._labels[v * (v - 1) // 2 + u]

    def _prefix_values(self, n: int) -> list[Fraction]:
        return self._labels[: n * (n - 1) // 2]

    def existing_labels(self) -> list[Fraction]:
        return list(self._sorted)

    def _extend(self) -> None:
        self._schedule_step += 1
        demand = Demand(())
        if self._schedule_step % 2 == 0 and len(self._sorted) > 1:
            demand = Demand(((0, OpenInterval(self._sorted[0], self._sorted[1])),))
        self.ensure_witness(demand)

    def ensure_witness(self, demand: Demand) -> int:
        entries = _validate_demand(demand, self.size)
        # One fresh label per (bounds, tier), tiers ascending within bounds:
        # the simplest rational above the last choice (or the collision it
        # hit) and below hi that ``_insert`` finds absent, which indexes it
        # at once, so later choices in this call avoid it.  Exact labels are
        # indexed after every in-gap choice, which they never displace.
        groups: dict[tuple, set[int]] = {}
        for point, entry in entries:
            if isinstance(entry, OpenInterval):
                groups.setdefault((entry.lo, entry.hi), set()).add(entry.tier)
        interval_labels: dict[tuple, Fraction] = {}
        for (lo, hi), tiers in groups.items():
            lab = lo
            for tier in sorted(tiers):
                while not _insert(self._sorted, lab := simplest_between(lab, hi)):
                    pass
                interval_labels[(lo, hi, tier)] = lab
        chosen: dict[int, Fraction] = {}
        for point, entry in entries:
            if isinstance(entry, ExactLabel):
                chosen[point] = entry.value
                _insert(self._sorted, entry.value)
            else:
                chosen[point] = interval_labels[(entry.lo, entry.hi, entry.tier)]
        z = self.size
        self.size += 1
        next_fresh = (self._sorted[-1] if self._sorted else Fraction(0)) + 1
        for v in range(z):
            if v in chosen:
                self._labels.append(chosen[v])
            else:
                self._labels.append(next_fresh)
                self._sorted.append(next_fresh)
                next_fresh += 1
        return z


def limit_new(mode: str, seed: int, p: object = Fraction(1, 2)) -> LimitModel:
    """A fresh model with an empty prefix."""
    if mode == "random":
        return RandomLimitModel(seed, p)
    if mode == "deterministic":
        return DeterministicLimitModel(seed)
    raise ValidationError("limit/mode", f"unknown mode {mode!r}")


@dataclass(frozen=True)
class BackAndForthCertificate:
    """A verified finite partial isomorphism between two models.

    ``left_labels`` and ``right_labels`` list the labels of the matched
    pairs in lexicographic pair order, (0, 1), (0, 2), ..., (0, k-1),
    (1, 2), ..., the one exception to the row-by-row ``_colex_pairs``
    order of flat pair values; the ``bnf`` document keeps it."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    left_space: EchelonedSpace
    right_space: EchelonedSpace
    left_labels: tuple[Fraction, ...] = field(default=(), compare=False)
    right_labels: tuple[Fraction, ...] = field(default=(), compare=False)


def _build_demand(
    source: LimitModel,
    src_known: Sequence[Fraction],
    tgt_known: Sequence[Fraction],
    src_matched: Sequence[int],
    tgt_matched: Sequence[int],
    u: int,
) -> tuple[Demand, list[Fraction]]:
    """Transport u's label classes along the current correspondence, the
    aligned sorted lists ``src_known`` and ``tgt_known``.  One bisection
    per distinct label finds it among the known labels, or the gap i it
    opens, whose bounds are the images of its neighbours; the new labels
    of one gap take tiers 0, 1, ... in ascending order.  Returns the
    demand with the labels it read, u's to each of ``src_matched`` in
    order."""
    labels = [source.rank_label(u, v) for v in src_matched]
    entry_of: dict[Fraction, Entry] = {}
    placed: dict[int, int] = {}  # gap -> new labels already given a tier in it
    for lab in sorted(set(labels)):
        i = bisect_left(src_known, lab)
        if i < len(src_known) and src_known[i] == lab:
            entry_of[lab] = ExactLabel(tgt_known[i])
        else:
            lo = tgt_known[i - 1] if i else Fraction(0)
            hi = tgt_known[i] if i < len(tgt_known) else None
            placed[i] = placed.get(i, -1) + 1
            entry_of[lab] = OpenInterval(lo, hi, placed[i])
    return Demand(tuple((t, entry_of[lab]) for t, lab in zip(tgt_matched, labels))), labels


def back_and_forth(
    first: LimitModel, second: LimitModel, depth: int
) -> BackAndForthCertificate:
    """Grow a partial isomorphism covering the first ``depth`` points of
    both models, alternating witness demands between the two sides.

    Each side keeps a cursor on its least uncovered point.  A side whose
    cursor point is already materialized goes first on its turn; a side
    whose uncovered points only exist by demand waits for the other side's
    witnesses to cover them and is force-grown only when both sides would
    otherwise stall.  The label bijection is two aligned sorted lists of
    known labels, one per side, extended by the new pairs after each
    witness: the moving side's labels are those its demand read, and the
    witness side's are read once.  A pair whose labels cannot take the same
    place in both lists breaks the correspondence and raises
    ``limit/certificate``.  The finished correspondence is re-verified
    before returning: the two sides' matched points must induce the same
    table.
    """
    if not _is_int(depth) or depth < 1:
        raise ValidationError("limit/depth", "depth must be an int of at least 1")
    models = (first, second)
    matched: tuple[list[int], list[int]] = ([], [])
    covered: tuple[set[int], set[int]] = (set(), set())
    cursor = [0, 0]
    known: tuple[list[Fraction], list[Fraction]] = ([], [])  # known[0][i] matches known[1][i]
    turn = 0
    while min(cursor) < depth:
        order = (turn % 2, 1 - turn % 2)
        ready = [s for s in order if cursor[s] < min(depth, models[s].size)]
        side = ready[0] if ready else next(s for s in order if cursor[s] < depth)
        other = 1 - side
        u = cursor[side]
        models[side].limit_points(u + 1)
        demand, labels = _build_demand(
            models[side], known[side], known[other], matched[side], matched[other], u
        )
        z = models[other].ensure_witness(demand)
        mine, theirs = known[side], known[other]
        for a, b in zip(labels, [models[other].rank_label(v, z) for v in matched[other]]):
            i = bisect_left(mine, a)
            if i < len(mine) and mine[i] == a:  # a known a keeps its image
                if theirs[i] != b:
                    raise EchelonError("limit/certificate", "correspondence lost label classes")
                continue
            j = bisect_left(theirs, b)  # a new a needs a new b in the same gap
            if j < len(theirs) and theirs[j] == b:
                raise EchelonError("limit/certificate", "correspondence lost label classes")
            if j != i:
                raise EchelonError("limit/certificate", "back-and-forth produced a non-isomorphism")
            mine.insert(i, a)
            theirs.insert(i, b)
        for s, point in ((side, u), (other, z)):
            matched[s].append(point)
            covered[s].add(point)
            while cursor[s] in covered[s]:
                cursor[s] += 1
        turn += 1

    k = len(matched[0])
    pairs = list(combinations(range(k), 2))  # the certificate's label order
    labels = [
        tuple(model.rank_label(points[i], points[j]) for i, j in pairs)
        for model, points in zip(models, matched)
    ]
    colex = sorted(range(len(pairs)), key=lambda s: pairs[s][::-1])  # _colex_pairs(k) order
    spaces = [_compress(k, [side[s] for s in colex])[0] for side in labels]
    # the identity embeds each compressed space into the other exactly when
    # their tables are equal
    if spaces[0] != spaces[1]:
        raise EchelonError("limit/certificate", "back-and-forth produced a non-isomorphism")
    return BackAndForthCertificate(
        tuple(matched[0]), tuple(matched[1]), spaces[0], spaces[1], labels[0], labels[1]
    )
