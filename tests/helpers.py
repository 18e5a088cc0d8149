"""Seeded generators shared by the unit and acceptance suites.

Everything draws from SplitMix64Stream so a seed pins the whole case."""

import itertools
from collections import deque
from fractions import Fraction

from echelon import EchelonedSpace, from_rank_table, from_weights
from echelon.limit import Demand, ExactLabel, LimitModel, OpenInterval, _validate_demand
from echelon.prng import SplitMix64Stream
from echelon.rationals import rational_between


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
