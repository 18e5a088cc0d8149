"""Seeded generators, reference implementations and fixtures shared by the
unit and acceptance suites.

Everything draws from SplitMix64Stream so a seed pins the whole case."""

import contextlib
import itertools
import json
import signal
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Container, Optional

import numpy as np

from echelon import (
    AmalgamResult,
    ChainAmalgam,
    EchelonedSpace,
    OrderedEchelonedSpace,
    canonical_form,
    copy_set,
    embedding_rank_map,
    enumerate_spaces,
    from_rank_table,
    from_weights,
    induced_subspace,
    is_embedding,
)
from echelon import jsonio, limit, prng, ramsey
from echelon.colgraph import ColouredGraph, as_probability
from echelon.errors import BudgetExceeded, CapExceeded, EchelonError, MetricError, MorphismError, ValidationError
from echelon.katetov import APART, BOT, Realization, katetov_space, rank_label, slot
from echelon.limit import (
    GROW_BLOCK,
    BackAndForthCertificate,
    Demand,
    ExactLabel,
    LimitModel,
    OpenInterval,
    _validate_demand,
)
from echelon.metrize import Metric, _as_fraction
from echelon.prng import SplitMix64Stream
from echelon.ramsey import _positions, _subsets
from echelon.rationals import nth_rational, simplest_between
from echelon.space import PointMap, RankMap, _colex_pairs, _compress, _is_int


@contextlib.contextmanager
def deadline(seconds):
    """Turn a runaway computation into a failure instead of a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def permute_table(table, perm):
    m = len(table)
    out = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            out[perm[i]][perm[j]] = table[i][j]
    return tuple(tuple(row) for row in out)


def random_space(stream: SplitMix64Stream, m: int) -> EchelonedSpace:
    if m == 1:
        return EchelonedSpace(1, 0, ((0,),))
    pairs = list(itertools.combinations(range(m), 2))
    levels = stream.randrange(len(pairs)) + 1
    weights = {p: stream.randrange(levels) + 1 for p in pairs}
    return from_weights(m, weights)


def random_superspace(stream: SplitMix64Stream, base: EchelonedSpace, m_total: int):
    """A space on m_total points containing base on a random point set,
    together with the witnessing embedding."""
    # doubling base ranks keeps their relative order; odd weights let new
    # pairs land strictly between, below, or above them
    weights = {}
    for i in range(base.m):
        for j in range(i + 1, base.m):
            weights[(i, j)] = 2 * base.rank(i, j)
    ceiling = 2 * base.n + 2
    for i in range(m_total):
        for j in range(max(i + 1, base.m), m_total):
            weights[(i, j)] = stream.randrange(ceiling) + 1
    big = from_weights(m_total, weights)
    perm = list(range(m_total))
    for i in range(m_total - 1, 0, -1):
        k = stream.randrange(i + 1)
        perm[i], perm[k] = perm[k], perm[i]
    shuffled = from_rank_table(permute_table(big.table, perm))
    embedding = tuple(perm[i] for i in range(base.m))
    return shuffled, embedding


def random_amalgam_triple(stream: SplitMix64Stream, max_b: int = 5):
    """(A, B1, B2, f1, f2) with A embedded in both sides."""
    a_size = stream.randrange(3) + 1
    shared = random_space(stream, a_size)
    b1, f1 = random_superspace(stream, shared, a_size + stream.randrange(max_b - a_size + 1))
    b2, f2 = random_superspace(stream, shared, a_size + stream.randrange(max_b - a_size + 1))
    return shared, b1, b2, f1, f2


def random_embedding_chain(stream: SplitMix64Stream, sizes):
    """Spaces of the given sizes with embeddings between consecutive ones."""
    spaces = [random_space(stream, sizes[0])]
    maps = []
    for size in sizes[1:]:
        bigger, emb = random_superspace(stream, spaces[-1], size)
        spaces.append(bigger)
        maps.append(emb)
    return spaces, maps


def reference_refine(space, colours):
    """Stable point partition under iterated rank-profile refinement, one
    (rank, colour) tuple per pair: the kernel that space._refine must
    reproduce."""
    cols = list(colours)
    m = space.m
    while True:
        sigs = []
        for v in range(m):
            profile = sorted((space.rank(v, u), cols[u]) for u in range(m) if u != v)
            sigs.append((cols[v], tuple(profile)))
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == cols:
            return tuple(cols)
        cols = new


def reference_flat(space, order):
    return tuple(
        space.rank(order[a], order[b])
        for a, b in itertools.combinations(range(space.m), 2)
    )


def reference_canon_search(space, colours):
    """Unpruned individualization-refinement search, kept as the reference
    that canonical_form must reproduce: (flat, order) of the first least
    leaf in depth-first order."""
    colours = reference_refine(space, colours)
    m = space.m
    cells = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, []).append(v)
    split = [c for c in sorted(cells) if len(cells[c]) > 1]
    if not split:
        order = tuple(sorted(range(m), key=lambda v: colours[v]))
        return reference_flat(space, order), order
    best = None
    for v in cells[split[0]]:
        child = list(colours)
        child[v] = m  # fresh colour above all, individualizes v
        cand = reference_canon_search(space, tuple(child))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def reference_are_isomorphic(x, y):
    """Two full canonical searches, the composed map and a checked
    embedding: the isomorphism test whose witness are_isomorphic must
    reproduce."""
    if x.m != y.m or x.n != y.n:
        return None
    cx = canonical_form(x)
    cy = canonical_form(y)
    if cx.space != cy.space:
        return None
    iso = [0] * x.m
    for k in range(x.m):
        iso[cx.order[k]] = cy.order[k]
    assert embedding_rank_map(x, y, iso) is not None
    return tuple(iso)


def reference_simplest_between(lo, hi):
    """One-mediant-per-step Stern-Brocot walk, kept as the reference that
    simplest_between must reproduce (callers keep hi > 0, where it ends)."""
    if hi is not None and lo >= hi:
        raise ValueError("empty interval")
    ln, ld = 0, 1
    rn, rd = 1, 0
    while True:
        mn, md = ln + rn, ld + rd
        mid = Fraction(mn, md)
        if mid <= lo:
            ln, ld = mn, md
        elif hi is not None and mid >= hi:
            rn, rd = mn, md
        else:
            return mid


def rational_index(q: Fraction) -> int:
    """Inverse of :func:`nth_rational`."""
    if q <= 0:
        raise ValueError("only positive rationals are enumerated")
    num, den = q.numerator, q.denominator
    bits = []
    while (num, den) != (1, 1):
        if num > den:
            bits.append("1")
            num -= den
        else:
            bits.append("0")
            den -= num
    i = 1
    for bit in reversed(bits):
        i = 2 * i + (1 if bit == "1" else 0)
    return i


def rational_between(
    lo: Fraction, hi: Optional[Fraction], forbidden: Container[Fraction] = ()
) -> Fraction:
    """A rational strictly inside (lo, hi) not in ``forbidden``.

    Deterministic: repeatedly takes the simplest rational in the remaining
    sub-interval above the last collision.  Terminates because the forbidden
    collection is finite and every retry strictly raises the lower bound.
    ``forbidden`` is only probed with ``in``, never copied.
    """
    cur_lo = lo
    while True:
        q = simplest_between(cur_lo, hi)
        if q not in forbidden:
            return q
        cur_lo = q


class PairwiseLimitModel(LimitModel):
    """A limit model whose prefix values and levels are read one
    ``_label`` per pair: the base of the reference models."""

    def _prefix_values(self, n):
        """The labels of the first n points' pairs in ``_colex_pairs(n)`` order."""
        return [self._label(u, v) for u, v in _colex_pairs(n)]

    def _levels(self):
        """The sorted distinct labels among materialized pairs."""
        return sorted({self._label(u, v) for u in range(self.size) for v in range(u + 1, self.size)})


class ReferenceDeterministicLimitModel(PairwiseLimitModel):
    """The deterministic model with its labels rebuilt from every pair
    on each step, kept as the reference that DeterministicLimitModel's
    incremental label index must reproduce exactly."""

    mode = "deterministic"

    def __init__(self):
        super().__init__()
        self._labels = {}
        self.pending = deque()
        self._schedule_step = 0
        self._split_done = set()

    def _label(self, u, v):
        return self._labels[(u, v) if u < v else (v, u)]

    def _extend(self):
        if not self.pending:
            self.pending.append(self._next_scheduled())
        self._construct(self.pending.popleft())

    def _next_scheduled(self):
        self._schedule_step += 1
        if self._schedule_step % 2 == 0:
            labels = self.existing_labels()
            for lo, hi in zip(labels, labels[1:]):
                if (lo, hi) not in self._split_done:
                    self._split_done.add((lo, hi))
                    return Demand(((0, OpenInterval(lo, hi)),))
        return Demand(())

    def ensure_witness(self, demand):
        return self._construct(demand)

    def _construct(self, demand):
        entries = _validate_demand(demand, self.size)
        existing = set()
        for lab in self._labels.values():
            existing.add(lab)
        chosen = {}
        interval_keys = {}
        for point, entry in entries:
            if isinstance(entry, OpenInterval):
                interval_keys.setdefault((entry.lo, entry.hi), []).append(entry.tier)
        interval_labels = {}
        for (lo, hi), tiers in interval_keys.items():
            cur_lo = lo
            for tier in sorted(set(tiers)):
                lab = rational_between(cur_lo, hi, existing | set(interval_labels.values()))
                interval_labels[(lo, hi, tier)] = lab
                cur_lo = lab
        for point, entry in entries:
            if isinstance(entry, ExactLabel):
                chosen[point] = entry.value
            else:
                chosen[point] = interval_labels[(entry.lo, entry.hi, entry.tier)]
        z = self.size
        self.size += 1
        ceiling = max(existing | set(chosen.values()), default=Fraction(0))
        next_fresh = ceiling + 1
        for v in range(z):
            if v in chosen:
                self._labels[(v, z)] = chosen[v]
            else:
                self._labels[(v, z)] = next_fresh
                next_fresh += 1
        return z


def reference_tier_pattern_ok(entries, label_of):
    """The tier check with one dict of labels per tier in each bounds
    group: a tier seen twice must repeat its label, and the groups' labels
    must rise strictly in tier order.  Kept as the reference that the
    sorted (tier, label) pairs of limit._tier_pattern_ok must reproduce."""
    groups = {}
    for point, entry in entries:
        if not isinstance(entry, OpenInterval):
            continue
        key = (entry.lo, entry.hi)
        tiers = groups.setdefault(key, {})
        lab = label_of(point)
        if entry.tier in tiers:
            if tiers[entry.tier] != lab:
                return False
        else:
            tiers[entry.tier] = lab
    for tiers in groups.values():
        ordered = [tiers[t] for t in sorted(tiers)]
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            return False
    return True


def _entry_satisfied(entry, label):
    if isinstance(entry, ExactLabel):
        return label == entry.value
    if label <= entry.lo:
        return False
    return entry.hi is None or label < entry.hi


class ReferenceRandomLimitModel(PairwiseLimitModel):
    """The random model on scalar colours: one reference_edge_colour and
    one nth_rational per pair, prefixes compressed from the exact labels and a
    witness scan that tests one candidate at a time while the prefix grows
    in GROW_BLOCK steps, up to ``limit.WITNESS_CAP`` as it reads it then.
    Kept as the reference that RandomLimitModel's colour-index kernel must
    reproduce exactly."""

    mode = "random"

    def __init__(self, seed, p=Fraction(1, 2)):
        super().__init__()
        self.seed = seed
        self.p = as_probability(p)

    def _label(self, u, v):
        return nth_rational(reference_edge_colour(self.p, self.seed, u, v))

    def _extend(self):
        self.size += 1

    def sample_prefix(self, n):
        self.limit_points(n)
        return from_weights(n, {(u, v): self._label(u, v) for u, v in itertools.combinations(range(n), 2)})

    def ensure_witness(self, demand):
        entries = _validate_demand(demand, self.size)
        base = {point for point, _ in entries}
        scanned = 0
        while True:
            while scanned < self.size:
                z = scanned
                scanned += 1
                if z in base:
                    continue
                if all(
                    _entry_satisfied(entry, self._label(z, point))
                    for point, entry in entries
                ) and reference_tier_pattern_ok(entries, lambda point: self._label(z, point)):
                    return z
            cap = limit.WITNESS_CAP
            if self.size >= cap:
                raise CapExceeded(
                    "limit/witness-cap",
                    f"no witness among the first {self.size} points (cap {cap})",
                )
            self.size = min(self.size + GROW_BLOCK, cap)


@lru_cache(maxsize=None)
def reference_geometric_thresholds(p):
    """The CDF thresholds by the Fraction power loop (a gcd every step),
    kept as the reference for the plain-integer loop.  Cached per rate:
    the reference colour reads them once per pair."""
    scale = 1 << 64
    q = 1 - p
    acc = q  # q^i
    out = []
    while True:
        tail = -(-(acc.numerator * scale) // acc.denominator)  # ceil(q^i * 2^64)
        t = scale - tail
        if out and t <= out[-1]:
            break
        out.append(t)
        if tail <= 1:
            break
        acc *= q
    return tuple(out)


_MASK64 = (1 << 64) - 1


def _reference_mix64(z):
    """The SplitMix64 finalizer, with its published constants."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def reference_edge_bits(seed, u, v):
    """Scheme "splitmix64/edge-v1" as three chained finalizer rounds, one
    per absorbed value (the seed mod 2^64, then the lesser and the greater
    endpoint), on a finalizer of its own."""
    a, b = (u, v) if u < v else (v, u)
    z = _reference_mix64((seed & _MASK64) ^ 0x9E3779B97F4A7C15)
    z = _reference_mix64(z ^ (((a + 1) * 0x9E3779B97F4A7C15) & _MASK64))
    return _reference_mix64(z ^ (((b + 1) * 0xBF58476D1CE4E5B9) & _MASK64))


def reference_colour(p, r):
    """The colour of 64 uniform bits r: one binary search over the
    reference thresholds."""
    return bisect_right(reference_geometric_thresholds(p), r) + 1


def reference_edge_colour(p, seed, u, v):
    """The colour of the pair {u, v} under seed at rate p, from code that
    the package does not run: the oracle that the scalar colour and the
    colour kernels are pinned to."""
    return reference_colour(p, reference_edge_bits(seed, u, v))


def _reference_colours(p, keys, greater):
    """The last finalizer round on each pair, then one binary search over
    the thresholds per pair."""
    with np.errstate(over="ignore"):
        bits = prng._mix64_vec(keys ^ ((greater.astype(np.uint64) + np.uint64(1)) * np.uint64(prng.MIX1)))
    thresholds = np.array(reference_geometric_thresholds(p), dtype=np.uint64)
    return np.searchsorted(thresholds, bits, side="right") + 1


def reference_pair_colours(p, seed, u, v):
    """The pair kernel before the guide table."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = np.where(u < v, prng._point_keys(seed, u), prng._point_keys(seed, v))
    return _reference_colours(p, keys, np.maximum(u, v))


def reference_all_edge_colours(p, seed, n):
    """The bulk kernel before the guide table: both endpoints of every pair
    as index arrays, and one binary search per pair."""
    points = np.arange(n, dtype=np.int64)
    j = np.repeat(points, points)  # row j holds the j pairs below it
    i = np.arange(j.size, dtype=np.int64) - np.repeat(points * (points - 1) // 2, points)
    return _reference_colours(p, prng._point_keys(seed, points)[i], j)


def _first_unmatched(limit, matched):
    for i in range(limit):
        if i not in matched:
            return i
    return None


def _reference_build_demand(source, target, src_matched, tgt_matched, u):
    """Transport u's label classes along the current correspondence."""
    k = len(src_matched)
    src_to_tgt = {}
    for i in range(k):
        for j in range(i + 1, k):
            a = source.rank_label(src_matched[i], src_matched[j])
            b = target.rank_label(tgt_matched[i], tgt_matched[j])
            if a in src_to_tgt and src_to_tgt[a] != b:
                raise EchelonError("limit/certificate", "correspondence lost label classes")
            src_to_tgt[a] = b
    known = sorted(src_to_tgt)
    new_labels = sorted(
        {
            source.rank_label(u, v)
            for v in src_matched
            if source.rank_label(u, v) not in src_to_tgt
        }
    )
    gap_tiers = {}
    gap_counts = {}
    for lab in new_labels:
        lo = Fraction(0)
        hi = None
        for known_lab in known:
            if known_lab < lab:
                lo = max(lo, src_to_tgt[known_lab])
            elif hi is None or src_to_tgt[known_lab] < hi:
                hi = src_to_tgt[known_lab]
        tier = gap_counts.get((lo, hi), 0)
        gap_counts[(lo, hi)] = tier + 1
        gap_tiers[lab] = (lo, hi, tier)
    entries = []
    for pos, v in enumerate(src_matched):
        lab = source.rank_label(u, v)
        if lab in src_to_tgt:
            entries.append((tgt_matched[pos], ExactLabel(src_to_tgt[lab])))
        else:
            lo, hi, tier = gap_tiers[lab]
            entries.append((tgt_matched[pos], OpenInterval(lo, hi, tier)))
    return Demand(tuple(entries))


def reference_back_and_forth(first, second, depth):
    """The back-and-forth with each side's step written out, the next
    uncovered point found by scanning and the label correspondence rebuilt
    from every matched pair on each step, kept as the reference that
    back_and_forth must reproduce exactly."""
    if depth < 1:
        raise ValidationError("limit/depth", "depth must be at least 1")
    left = []
    right = []
    matched1 = set()
    matched2 = set()
    turn = 0
    while True:
        any1 = _first_unmatched(depth, matched1)
        any2 = _first_unmatched(depth, matched2)
        if any1 is None and any2 is None:
            break
        ready1 = _first_unmatched(min(depth, first.size), matched1)
        ready2 = _first_unmatched(min(depth, second.size), matched2)
        if turn % 2 == 0:
            order = ((1, ready1, any1), (2, ready2, any2))
        else:
            order = ((2, ready2, any2), (1, ready1, any1))
        pick = None
        for side, ready, _ in order:
            if ready is not None:
                pick = (side, ready)
                break
        if pick is None:
            for side, _, pending in order:
                if pending is not None:
                    model = first if side == 1 else second
                    model.limit_points(pending + 1)
                    pick = (side, pending)
                    break
        assert pick is not None
        side, u = pick
        if side == 1:
            first.limit_points(u + 1)
            demand = _reference_build_demand(first, second, left, right, u)
            z = second.ensure_witness(demand)
            left.append(u)
            right.append(z)
            matched1.add(u)
            if z < depth:
                matched2.add(z)
        else:
            second.limit_points(u + 1)
            demand = _reference_build_demand(second, first, right, left, u)
            z = first.ensure_witness(demand)
            right.append(u)
            left.append(z)
            matched2.add(u)
            if z < depth:
                matched1.add(z)
        turn += 1

    k = len(left)
    weights1 = {
        (i, j): first.rank_label(left[i], left[j])
        for i in range(k)
        for j in range(i + 1, k)
    }
    weights2 = {
        (i, j): second.rank_label(right[i], right[j])
        for i in range(k)
        for j in range(i + 1, k)
    }
    space1 = from_weights(k, weights1)
    space2 = from_weights(k, weights2)
    ident = tuple(range(k))
    if not (is_embedding(space1, space2, ident) and is_embedding(space2, space1, ident)):
        raise EchelonError("limit/certificate", "back-and-forth produced a non-isomorphism")
    return BackAndForthCertificate(
        tuple(left),
        tuple(right),
        space1,
        space2,
        tuple(weights1[(i, j)] for i in range(k) for j in range(i + 1, k)),
        tuple(weights2[(i, j)] for i in range(k) for j in range(i + 1, k)),
    )


def _reference_as_fraction(value, where):
    if isinstance(value, bool) or isinstance(value, float):
        raise MetricError("metric/shape", f"{where}: exact rational required, got {value!r}")
    if isinstance(value, (int, str, Fraction)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MetricError("metric/shape", f"{where}: unparsable rational {value!r}") from None
    raise MetricError("metric/shape", f"{where}: exact rational required, got {type(value).__name__}")


def reference_validate_metric(d):
    """The metric check with the full m^3 Fraction triangle loop, kept as
    the reference that validate_metric must reproduce, errors included."""
    m = len(d)
    if m < 1 or any(len(row) != m for row in d):
        raise MetricError("metric/shape", "distance table must be square and non-empty")
    t = tuple(
        tuple(_reference_as_fraction(v, f"entry ({i},{j})") for j, v in enumerate(row))
        for i, row in enumerate(d)
    )
    for i in range(m):
        if t[i][i] != 0:
            raise MetricError("metric/diagonal", f"d({i},{i}) must be 0")
        for j in range(i + 1, m):
            if t[i][j] != t[j][i]:
                raise MetricError("metric/symmetry", f"d({i},{j}) != d({j},{i})")
            if t[i][j] <= 0:
                raise MetricError("metric/positivity", f"d({i},{j}) must be positive")
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if t[i][k] > t[i][j] + t[j][k]:
                    raise MetricError(
                        "metric/triangle",
                        f"d({i},{k}) > d({i},{j}) + d({j},{k})",
                    )
    return t


def reference_checked(d):
    """The metric check as one integer pass: every entry read, all m^2
    distances scaled by the lcm of their denominators, then the axioms pair
    by pair, kept as the reference that metrize._checked must reproduce,
    result or first fault.  Entries are read by the library's own reader, so
    a Fraction subclass stays as it is."""
    m = len(d)
    if m < 1 or any(len(row) != m for row in d):
        raise MetricError("metric/shape", "distance table must be square and non-empty")
    t = tuple(tuple(_as_fraction(v, i, j) for j, v in enumerate(row)) for i, row in enumerate(d))
    scale = lcm(*{q.denominator for row in t for q in row})
    s = tuple(tuple(q.numerator * (scale // q.denominator) for q in row) for row in t)
    for i in range(m):
        if s[i][i] != 0:
            raise MetricError("metric/diagonal", f"d({i},{i}) must be 0")
        for j in range(i + 1, m):
            if s[i][j] != s[j][i]:
                raise MetricError("metric/symmetry", f"d({i},{j}) != d({j},{i})")
            if s[i][j] <= 0:
                raise MetricError("metric/positivity", f"d({i},{j}) must be positive")
    values = [x for j, row in enumerate(s) for x in row[:j]]
    dull = not values or max(values) <= 2 * min(values)
    if not dull:
        for i in range(m):
            si = s[i]
            for j in range(m):
                sij, sj = si[j], s[j]
                for k in range(i + 1, m):
                    if si[k] > sij + sj[k]:
                        raise MetricError(
                            "metric/triangle",
                            f"d({i},{k}) > d({i},{j}) + d({j},{k})",
                        )
    return t, values, dull


def reference_from_metric(d):
    t = reference_validate_metric(d)
    m = len(t)
    weights = {(i, j): t[i][j] for i in range(m) for j in range(i + 1, m)}
    return from_weights(m, weights)


def reference_metrize_dull(space):
    m, n = space.m, space.n
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i != j:
                out[i][j] = 1 + Fraction(space.rank(i, j), n + 1)
    return tuple(tuple(row) for row in out)


def reference_is_dull(d):
    t = reference_validate_metric(d)
    m = len(t)
    values = [t[i][j] for i in range(m) for j in range(i + 1, m)]
    if not values:
        return True
    return max(values) <= 2 * min(values)


def reference_is_one_lipschitz(d_source, d_target, h):
    s = reference_validate_metric(d_source)
    t = reference_validate_metric(d_target)
    h = tuple(h)
    if len(h) != len(s) or any(not (0 <= y < len(t)) for y in h):
        raise MorphismError("morphism/map", "point map does not fit the two metrics")
    m = len(s)
    return all(
        t[h[i]][h[j]] <= s[i][j] for i in range(m) for j in range(i + 1, m)
    )


def one_lipschitz_not_homomorphism_example() -> tuple[Metric, Metric, tuple[int, ...]]:
    """Three-point witness that 1-Lipschitz maps need not preserve echelons.

    Source distances (2, 4, 4), target distances (2, 1, 1), identity on
    indices: distances never grow, but the closest source pair is sent to
    the farthest target pair, so no monotone rank map exists.
    """
    two, four, one = Fraction(2), Fraction(4), Fraction(1)
    zero = Fraction(0)
    d_m: Metric = (
        (zero, two, four),
        (two, zero, four),
        (four, four, zero),
    )
    d_n: Metric = (
        (zero, two, one),
        (two, zero, one),
        (one, one, zero),
    )
    return d_m, d_n, (0, 1, 2)


def reference_enumerate_spaces(m, up_to_iso=False):
    """Every rank string in k^k filtered for density, each table checked on
    construction: the enumeration that enumerate_spaces must reproduce,
    order included."""
    pair_list = list(itertools.combinations(range(m), 2))
    k = len(pair_list)
    if k == 0:
        yield EchelonedSpace(1, 0, ((0,),))
        return
    seen = set()
    for ranks in itertools.product(range(1, k + 1), repeat=k):
        top = max(ranks)
        if set(ranks) != set(range(1, top + 1)):
            continue
        table = [[0] * m for _ in range(m)]
        for (i, j), r in zip(pair_list, ranks):
            table[i][j] = table[j][i] = r
        space = EchelonedSpace(m, top, tuple(tuple(row) for row in table))
        if up_to_iso:
            key = reference_flat(canonical_form(space).space, range(m))
            if key in seen:
                continue
            seen.add(key)
        yield space


def reference_ordered_embeddings(a, c):
    """Every order-preserving subset of c run through the fully checked
    embedding_rank_map: the list ordered_embeddings must reproduce, order
    included."""
    out = []
    for combo in itertools.combinations(range(c.m), a.m):
        h = [0] * a.m
        for i in range(a.m):
            h[a.order[i]] = c.order[combo[i]]
        if embedding_rank_map(a.space, c.space, h) is not None:
            out.append(tuple(h))
    return out


def reference_decide(copies_a, copies_b, k):
    """Whether every k-colouring of ``copies_a`` leaves some B-copy whose
    A-copies all share a colour: backtracking over colourings in copy
    order, every B-copy rescanned at every node, every colour tried for
    every A-copy.  The kernel ramsey._decide must reproduce."""
    members = [[i for i, ca in enumerate(copies_a) if ca <= cb] for cb in copies_b]
    if not members:
        return False
    colour = [None] * len(copies_a)

    def bad_colouring_exists(i):
        alive = False
        for group in members:
            seen = {colour[j] for j in group if colour[j] is not None}
            if len(seen) > 1:
                continue
            if all(colour[j] is not None for j in group):
                return False  # monochromatic B-copy already forced
            alive = True
        if not alive:
            return True  # every B-copy ruined; any completion is a counterexample
        for col in range(k):
            colour[i] = col
            if bad_colouring_exists(i + 1):
                colour[i] = None
                return True
        colour[i] = None
        return False

    return not bad_colouring_exists(0)


def reference_arrow_check(c, a, b, k, budget=ramsey.ARROW_BUDGET):
    """arrow_check with its refusals, decided by reference_decide."""
    if k < 1:
        raise ValidationError("arrow/colours", "at least one colour required")
    copies_a = copy_set(a, c)
    n = len(copies_a)
    if k**n > budget:
        raise BudgetExceeded("arrow/budget", f"{k}^{n} colourings exceed the budget {budget}")
    return reference_decide(copies_a, copy_set(b, c), k)


def reference_witness_search(a, b, k, size_cap=4, seed=0, samples=200, budget=ramsey.ARROW_BUDGET):
    """Every candidate wrapped as an ordered space, enumerated afresh, and
    decided by reference_arrow_check, which lists A-copies before B-copies:
    the search witness_search must reproduce, witness, None and errors
    included.  It checks k only inside the arrow check, so with fewer than
    one colour and a cap below |B| it examines nothing and returns None."""
    if budget < 1:
        raise BudgetExceeded("arrow/budget", f"the budget {budget} admits no colouring")
    for m in range(b.space.m, size_cap + 1):
        if m <= 4:
            candidates = (
                OrderedEchelonedSpace(sp, tuple(range(m))) for sp in enumerate_spaces(m)
            )
        else:
            stream = SplitMix64Stream((seed << 8) ^ m)
            candidates = (
                OrderedEchelonedSpace(ramsey._random_space(m, stream), tuple(range(m)))
                for _ in range(samples)
            )
        for cand in candidates:
            try:
                if reference_arrow_check(cand, a, b, k, budget=budget):
                    return cand
            except BudgetExceeded:
                continue
    return None


# --- translation to ordered edge-coloured simple graphs ---
# The translation erases one chosen colour class to "non-edge" and keeps
# the rest; it is inverse to filling the non-edges back in, and it changes
# nothing about embeddings.  ``graph_embeddings`` is the same subset walk
# as ``ordered_embeddings`` with colour equality in place of rank rise:
# graphs match colours exactly, while spaces accept any rising rank map, so
# the two share the walk and not the step test.


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


def enumerate_embeddings(
    source: EchelonedSpace, target
) -> list[tuple[PointMap, RankMap]]:
    """All embeddings source -> target with their rank maps, in lexicographic
    order of the point maps.  Exhaustive over injective maps; meant for desk
    scale."""
    out = []
    for h in itertools.permutations(range(target.m), source.m):
        w = embedding_rank_map(source, target, h)
        if w is not None:
            out.append((h, w))
    return out


def reference_chain_labels(m, n):
    """The extension chain of a space with m points and n ranks, built
    label by label in chain order."""
    out = [BOT, APART]
    out.extend(slot(k, 0) for k in range(1, m + 1))
    for i in range(1, n + 1):
        out.append(rank_label(i))
        out.extend(slot(k, i) for k in range(1, m + 1))
    return tuple(out)


def reference_chain_label_map(source, target, phi):
    """How an embedding transports chain labels, or None, built one label
    at a time: bot and apart are fixed, gap-0 slots keep their index,
    rank(i) follows the embedding's rank map, and slot(k,i) moves to the
    same slot index in the image gap."""
    w = embedding_rank_map(source, target, phi)
    if w is None:
        return None
    out = {BOT: BOT, APART: APART}
    for k in range(1, source.m + 1):
        out[slot(k, 0)] = slot(k, 0)
    for i in range(1, source.n + 1):
        out[rank_label(i)] = rank_label(w[i])
        for k in range(1, source.m + 1):
            out[slot(k, i)] = slot(k, w[i])
    return out


def reference_one_point_extensions(space):
    """Every labelled one-point extension of a space, new point last, by
    filtering the exhaustive enumeration on m+1 points by exact restriction."""
    for cand in enumerate_spaces(space.m + 1):
        if induced_subspace(cand, range(space.m)).space == space:
            yield cand


def reference_function_values(kx, point):
    """The chain positions (1..width) of an extension point's values, its
    code written out digit by digit in base ``kx.width``, the first base
    point's digit most significant: the decoder that ``KatetovSpace.rank``
    reads one digit of.  A point that is not an extension point is
    refused as ``KatetovSpace.rank`` refuses it."""
    code = point - kx.base.m
    if not (0 <= code < kx.width**kx.base.m):
        raise MorphismError("katetov/point", f"{point} is not an extension point")
    digits = []
    for _ in range(kx.base.m):
        code, digit = divmod(code, kx.width)
        digits.append(digit + 1)
    return tuple(reversed(digits))


def reference_katetov_map(kx, ky, phi):
    """K(phi) one extension point at a time, through the checked
    ``reference_function_values`` and ``function_point``, with the label transport
    and the chain positions of the label-list references above."""
    x, y = kx.base, ky.base
    label_map = reference_chain_label_map(x, y, phi)
    if label_map is None:
        raise MorphismError("katetov/not-embedding", "the point map is not an embedding")
    phi = tuple(phi)
    here = {lab: i for i, lab in enumerate(reference_chain_labels(x.m, x.n))}
    there = {lab: i for i, lab in enumerate(reference_chain_labels(y.m, y.n))}
    pos_map = {here[lab]: there[mapped] for lab, mapped in label_map.items()}
    apart_pos = there[APART]
    out = list(phi)
    for f in range(x.m, kx.m):
        values = reference_function_values(kx, f)
        image_values = [apart_pos] * y.m
        for px in range(x.m):
            image_values[phi[px]] = pos_map[values[px]]
        out.append(ky.function_point(image_values))
    return tuple(out)


def reference_realize_extension(space, extension):
    """A one-point extension embedded into K(X) over the identity, with the
    restriction checked by comparing the induced subspace on X's points
    with X and e-hat read from that subspace's rank map."""
    if extension.m != space.m + 1:
        raise MorphismError("extend/shape", "extension must add exactly one point")
    sub = induced_subspace(extension, range(space.m))
    if sub.space != space:
        raise MorphismError("extend/restriction", "extension does not restrict to the space")
    e_hat = sub.rank_map  # space rank i -> extension rank, increasing
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


def reference_dumps(doc):
    """The standard library's rendering that ``jsonio.dumps`` reproduces."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_SCALARS = {str: jsonio._encode_str, int: int.__repr__}


def reference_render(x, newline):
    """The emitter before the column renderer, one recursive call per value:
    the JSON text of ``x``, its lines after the first starting with
    ``newline``.  ``reference_render(doc, "\\n") + "\\n"`` is ``dumps(doc)``
    on every document it can take."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(x.items()):
            encode = _SCALARS.get(type(value))
            items.append(jsonio._encode_str(key) + ": " + (encode(value) if encode else reference_render(value, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = newline + "  "
        if type(x) is not list:
            x = list(x)
        if {*map(type, x)} == {int}:  # a bool is not an int here
            return "[" + inner + repr(x)[1:-1].replace(", ", "," + inner) + newline + "]"
        return "[" + inner + ("," + inner).join([reference_render(item, inner) for item in x]) + newline + "]"
    if isinstance(x, str):
        return jsonio._encode_str(x)
    return repr(x) if type(x) is int else json.dumps(x)  # bool, None, float, int subclasses


def reference_space_list(doc):
    """The members of a ``space-list`` document validated one by one, as
    before the column screen; the first member refused names the fault."""
    spaces = doc.get("spaces")
    jsonio._require(isinstance(spaces, list), "space-list needs a spaces array")
    return [jsonio.validate(member) for member in spaces]


def reference_table(doc, size, key, cell, zero):
    """The table reader before ``jsonio._rows``: the symmetric table a
    document stores as a strict lower triangle, row i of ``doc[key]``
    listing the entries against points 0..i-1, built square here."""
    m = doc.get(size)
    jsonio._require(jsonio._is_int(m) and m >= 1, f"{size} must be a positive integer")
    rows = doc.get(key)
    jsonio._require(isinstance(rows, list) and len(rows) == m - 1, f"{key} needs {m - 1} rows")
    table = [[zero] * m for _ in range(m)]
    for i, row in enumerate(rows, start=1):
        jsonio._require(isinstance(row, list) and len(row) == i, f"{key} row {i} needs {i} entries")
        for j, x in enumerate(row):
            table[i][j] = table[j][i] = cell(x)
    return table


def reference_space_from_json(doc):
    """The space reader before the one-check reader: ``reference_table``
    parses the rows, then ``from_rank_table`` and ``__post_init__`` check
    the table."""
    table = reference_table(doc, "points", "eta", jsonio._integer, 0)
    space = from_rank_table(tuple(tuple(row) for row in table))
    declared = doc.get("ranks")
    if declared is not None and not (jsonio._is_int(declared) and declared == space.n):
        raise ValidationError("json/schema", f"declared ranks {declared} but table has {space.n}")
    return space


def reference_graph_from_json(doc):
    """The graph reader before it read ``chi`` row by row: a v x v table first."""
    chi = reference_table(doc, "v", "chi", jsonio._integer, 0)
    return ColouredGraph(len(chi), tuple(chi[i][j] for i in range(1, len(chi)) for j in range(i)))


def reference_chain_amalgam(size_a, size_b1, size_b2, h1, h2):
    """The chain amalgam before one gap loop served both sides: each side
    fills its own gap after each shared position, first side first."""
    if size_a < 1:
        raise ValidationError("chain/map", "the shared chain cannot be empty")
    for size_b, h, name in ((size_b1, tuple(h1), "first chain map"), (size_b2, tuple(h2), "second chain map")):
        if len(h) != size_a:
            raise ValidationError("chain/map", f"{name} must place all {size_a} chain elements")
        if h[0] != 0:
            raise ValidationError("chain/map", f"{name} must fix the bottom")
        for a in range(1, size_a):
            if h[a] <= h[a - 1]:
                raise ValidationError("chain/map", f"{name} must be strictly increasing")
        if h[-1] >= size_b:
            raise ValidationError("chain/map", f"{name} runs past the target chain")
    g1 = [0] * size_b1
    g2 = [0] * size_b2
    pos = 0
    for a in range(size_a):
        g1[h1[a]] = pos
        g2[h2[a]] = pos
        pos += 1
        hi1 = h1[a + 1] if a + 1 < size_a else size_b1
        hi2 = h2[a + 1] if a + 1 < size_a else size_b2
        for r in range(h1[a] + 1, hi1):
            g1[r] = pos
            pos += 1
        for r in range(h2[a] + 1, hi2):
            g2[r] = pos
            pos += 1
    return ChainAmalgam(pos + 1, tuple(g1), tuple(g2), pos)


def reference_amalgamate(shared, left, right, f1, f2):
    """The amalgam before one carrier map: the shared image, the right
    side's ids and their inverse kept apart, and a membership test of both
    points of every pair past the left side."""
    w1 = embedding_rank_map(shared, left, f1)
    if w1 is None:
        raise MorphismError("amalgam/not-embedding", "first map is not an embedding")
    w2 = embedding_rank_map(shared, right, f2)
    if w2 is None:
        raise MorphismError("amalgam/not-embedding", "second map is not an embedding")
    chain = reference_chain_amalgam(shared.n + 1, left.n + 1, right.n + 1, w1, w2)

    f1 = tuple(f1)
    f2 = tuple(f2)
    shared_image = {f2[x]: f1[x] for x in range(shared.m)}
    g2_list = []
    next_id = left.m
    into_right = {}  # carrier id -> point of the right space
    for y in range(right.m):
        if y in shared_image:
            g2_list.append(shared_image[y])
        else:
            g2_list.append(next_id)
            next_id += 1
        into_right[g2_list[-1]] = y
    g1 = tuple(range(left.m))
    g2 = tuple(g2_list)
    total = next_id

    values = []
    for u, v in _colex_pairs(total):
        if v < left.m:
            values.append(chain.g1[left.rank(u, v)])
        elif u in into_right and v in into_right:
            values.append(chain.g2[right.rank(into_right[u], into_right[v])])
        else:
            values.append(chain.top)
    space = _compress(total, values)[0]
    return AmalgamResult(space, g1, g2, chain)


def reference_jep(left, right):
    """``jep`` over ``reference_amalgamate``."""
    return reference_amalgamate(EchelonedSpace(1, 0, ((0,),)), left, right, (0,), (0,))
