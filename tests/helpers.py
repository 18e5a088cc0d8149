"""Seeded generators shared by the unit and acceptance suites.

Everything draws from SplitMix64Stream so a seed pins the whole case."""

import contextlib
import itertools
import signal
from collections import deque
from fractions import Fraction

from echelon import EchelonedSpace, from_rank_table, from_weights, is_embedding
from echelon.errors import EchelonError, MetricError, MorphismError, ValidationError
from echelon.limit import (
    BackAndForthCertificate,
    Demand,
    ExactLabel,
    LimitModel,
    OpenInterval,
    _validate_demand,
)
from echelon.prng import SplitMix64Stream
from echelon.rationals import rational_between


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


def reference_canon_search(space, colours):
    """Unpruned individualization-refinement search, kept as the reference
    that canonical_form must reproduce: (flat, order) of the first least
    leaf in depth-first order."""
    from echelon.space import _flat, _refine

    colours = _refine(space, colours)
    m = space.m
    cells = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, []).append(v)
    split = [c for c in sorted(cells) if len(cells[c]) > 1]
    if not split:
        order = tuple(sorted(range(m), key=lambda v: colours[v]))
        return _flat(space, order), order
    best = None
    for v in cells[split[0]]:
        child = list(colours)
        child[v] = m  # fresh colour above all, individualizes v
        cand = reference_canon_search(space, tuple(child))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


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


class ReferenceDeterministicLimitModel(LimitModel):
    """The deterministic model with its labels rebuilt from every pair
    on each step, kept as the reference that DeterministicLimitModel's
    incremental label index must reproduce exactly."""

    mode = "deterministic"

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed
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
