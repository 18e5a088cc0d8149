"""Workload ``search``: canonical forms with deep individualization trees,
and desk-scale partition arrows.

canonical_form on uniform spaces m = 5..8 (every vertex stays tied after
refinement, so the search tree has m! leaves), and canonical_form /
are_isomorphic on vertex-transitive spaces (Paley 13, Petersen,
cycle-distance spaces) each paired with six seeded relabellings and a
non-isomorphic partner with the same (m, n).  Uniform spaces have no
partner: n = 1 forces the uniform table.  Then arrow_check and
witness_search instances with pinned answers.  Same canonical_form layer as
``desk``, used where automorphism pruning pays; per-node overhead of pruning
shows in ``desk`` instead.
"""

from __future__ import annotations

import itertools

import golden
from harness import Task, expect
from inputs import embeds, pair_profile, permutation, relabel, space_of, table_from, top_rank

NAME = "search"
MIN_PASSES = 2
UNIFORM = (5, 6, 7, 8)
UNIFORM_ISO = (5, 6)  # are_isomorphic doubles the tree; m = 7, 8 would dominate the pass
CYCLES = tuple(range(9, 17))
RELABELLINGS = 6  # per vertex-transitive space; also puts the p90 tail inside the block of Petersen isomorphism tests


def uniform(m):
    return table_from(m, lambda i, j: 1)


def paley13():
    squares = {x * x % 13 for x in range(1, 13)}
    return table_from(13, lambda i, j: 1 if (j - i) % 13 in squares else 2)


def circulant13():
    """6-regular circulant on 13 points that is not the Paley graph."""
    return table_from(13, lambda i, j: 1 if min((j - i) % 13, (i - j) % 13) in (1, 2, 5) else 2)


def petersen():
    v = list(itertools.combinations(range(5), 2))
    return table_from(10, lambda i, j: 1 if not set(v[i]) & set(v[j]) else 2)


def prism10():
    """Pentagonal prism: cubic on 10 points like Petersen, but with 4-cycles."""

    def adjacent(i, j):
        (ri, ki), (rj, kj) = divmod(i, 5), divmod(j, 5)
        return (ri == rj and (ki - kj) % 5 in (1, 4)) or (ri != rj and ki == kj)

    return table_from(10, lambda i, j: 1 if adjacent(i, j) else 2)


def cycle(m):
    return table_from(m, lambda i, j: min((i - j) % m, (j - i) % m))


def cycle_swapped(m):
    """Cycle distances with ranks 1 and 2 exchanged."""
    swap = {1: 2, 2: 1}
    return table_from(m, lambda i, j: swap.get(cycle(m)[i][j], cycle(m)[i][j]))


def _ordered(E, table):
    return E.OrderedEchelonedSpace(space_of(E, table), tuple(range(len(table))))


def _copies(a, c):
    """A-copies in C under the identity orders, counted by the oracle."""
    m = len(a)
    return sum(
        1
        for combo in itertools.combinations(range(len(c)), m)
        if embeds(a, lambda u, v, combo=combo: c[u][v], combo)
    )


def setup(E, rng, workdir):
    space = lambda t: space_of(E, t)
    pairs = [("paley13", paley13(), circulant13()), ("petersen", petersen(), prism10())]
    pairs += [(f"cycle{m}", cycle(m), cycle_swapped(m)) for m in CYCLES]
    symmetric = []
    for name, table, partner in pairs:
        if pair_profile(table) == pair_profile(partner) or top_rank(table) != top_rank(partner):
            raise RuntimeError(f"{name}: partner is not certified non-isomorphic with equal (m, n)")
        relabelled = [relabel(table, permutation(rng, len(table))) for _ in range(RELABELLINGS)]
        partner = relabel(partner, permutation(rng, len(table)))
        symmetric.append((name, table, relabelled, space(table), [space(t) for t in relabelled], space(partner)))
    uniforms = [(m, space(uniform(m)), space(relabel(uniform(m), permutation(rng, m)))) for m in UNIFORM]
    arrows = []
    for key, (kind, c, a, b, k, extra) in golden.RAMSEY.items():
        arrows.append((key, kind, _ordered(E, c) if c else None, _ordered(E, a), _ordered(E, b), k, extra, _copies(a, c) if c else 0))
    return {"symmetric": symmetric, "uniform": uniforms, "arrows": arrows}


def warm(E, inp):
    _, sp, relabelled = inp["uniform"][0]
    E.are_isomorphic(sp, relabelled)
    point = inp["arrows"][0][3]
    E.arrow_check(point, point, point, 1)


def _uniform_group(E, m, sp, relabelled):
    def canon(tr):
        return tr("space.canonical_form", E.canonical_form, sp, tag=f"uniform_m{m}")

    def canon_check(cf, tr):
        tr.count("space.canonical_form.calls")
        expect(cf.space == sp and sorted(cf.order) == list(range(m)), "space", f"uniform m={m} canonical form changed")

    group = [Task("canon.uniform", "space", canon, canon_check)]
    if m in UNIFORM_ISO:
        group.append(_iso_task(E, sp, relabelled, sp.table, relabelled.table))
    return group


def _iso_task(E, x, y, tx, ty):
    def run(tr):
        return tr("space.are_isomorphic", E.are_isomorphic, x, y)

    def check(w, tr):
        expect(w is not None, "space", "isomorphic relabelling reported as non-isomorphic")
        expect(E.is_embedding(x, y, w) and embeds(tx, lambda u, v: ty[u][v], w), "space", "isomorphism witness is not an embedding")

    return Task("iso", "space", run, check)


def _symmetric_group(E, case):
    name, table, relabelled_tables, sp, relabelled, partner = case
    state = {}

    def canon(x, key):
        def run(tr):
            return tr("space.canonical_form", E.canonical_form, x)

        def check(cf, tr):
            tr.count("space.canonical_form.calls")
            order = cf.order
            expect(
                all(cf.space.rank(a, b) == x.rank(order[a], order[b]) for a, b in itertools.combinations(range(x.m), 2)),
                "space",
                f"{name}: canonical table is not a relabelling",
            )
            if key == "x":
                state["x"] = cf.space
            else:
                expect(cf.space == state["x"], "space", f"{name}: relabelling changed the canonical table")

        return Task("canon", "space", run, check)

    def apart(tr):
        return tr("space.are_isomorphic", E.are_isomorphic, sp, partner)

    def apart_check(w, tr):
        expect(w is None, "space", f"{name}: non-isomorphic partner reported isomorphic")

    group = [canon(sp, "x")]
    for y, ty in zip(relabelled, relabelled_tables):
        group += [canon(y, "y"), _iso_task(E, sp, y, table, ty)]
    return group + [Task("iso", "space", apart, apart_check)]


def _arrow_task(E, case):
    key, kind, c, a, b, k, extra, copies = case

    if kind == "check":

        def run(tr):
            return tr("ramsey.arrow_check", E.arrow_check, c, a, b, k)

        def check(arrows, tr):
            tr.count("ramsey.arrow_check.a_copies", copies)
            expect(arrows is extra, "ramsey", f"{key}: arrow_check gave {arrows}, pinned {extra}")

        return Task("arrow_check", "ramsey", run, check)

    size_cap, pinned = extra

    def run(tr):
        return tr("ramsey.witness_search", E.witness_search, a, b, k, size_cap)

    def check(found, tr):
        table = None if found is None else found.space.table
        expect(table == pinned, "ramsey", f"{key}: witness_search found {table}, pinned {pinned}")
        if found is not None:
            expect(found.order == tuple(range(found.m)) and E.arrow_check(found, a, b, k), "ramsey", f"{key}: witness does not arrow")

    return Task("witness_search", "ramsey", run, check)


def build(E, inp):
    groups = [_uniform_group(E, m, sp, relabelled) for m, sp, relabelled in inp["uniform"]]
    groups.extend(_symmetric_group(E, case) for case in inp["symmetric"])
    groups.extend([_arrow_task(E, case)] for case in inp["arrows"])
    return groups, None
