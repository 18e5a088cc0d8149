"""Workload ``desk``: the exhaustive m <= 4 sweep.

Each of the 4,683 labelled 4-point spaces is one task: metrize_dull ->
validate_metric -> from_metric -> is_dull, then canonical_form, then
realize_extension over the space's restriction to points 0..2.  One task
per pass times the enumeration itself; seeded strong-amalgamation triples
and loop-hoisted functor-law chains (bases of at most 3 points) are mixed
in.  It loads space, metrize, katetov and amalgam and never touches limit,
colgraph or ramsey; its canonical forms are small, so it is the no-change
control for canonical-form pruning and for the limit-model work.
"""

from __future__ import annotations

import itertools

from harness import Fail, Task, expect
from inputs import (
    all_tables,
    embeds,
    permutation,
    random_table,
    relabel,
    restrict,
    space_of as space,
    superspace,
)

NAME = "desk"
MIN_PASSES = 3
ISO_CLASSES_M4 = 225  # S4-orbits of the 4,683 labelled tables, counted by brute force
TRIPLES = 200
CHAINS = 100
# (|shared|, |b1|, |b2|) cycled over the amalgamation triples.
TRIPLE_SHAPES = ((1, 3, 3), (2, 4, 3), (3, 5, 4), (2, 5, 5), (3, 4, 4), (1, 4, 5))
# (|x|, |y|, |z|) cycled over the functor chains, crossed with the rank count
# of z, so the mapped point counts are the same for every seed.
CHAIN_SHAPES = ((1, 2, 3), (2, 3, 3), (3, 3, 3), (1, 3, 3), (2, 2, 3))


def _triple(rng, shape):
    sa, s1, s2 = shape
    a = random_table(rng, sa, rng.randint(1, sa * (sa - 1) // 2) if sa > 1 else 0)
    b1, f1 = superspace(rng, a, s1)
    b2, f2 = superspace(rng, a, s2)
    return a, b1, b2, f1, f2


def _chain(rng, shape, zn):
    sx, sy, sz = shape
    z = random_table(rng, sz, zn)
    s2 = sorted(rng.sample(range(sz), sy))
    y = restrict(z, s2)
    pi = permutation(rng, sy)
    y_relabelled = relabel(y, pi)
    p2 = [0] * sy
    for k in range(sy):
        p2[pi[k]] = s2[k]
    t1 = sorted(rng.sample(range(sy), sx))
    x = restrict(y, t1)
    p1 = tuple(pi[t] for t in t1)
    return x, y_relabelled, z, p1, tuple(p2)


def setup(E, rng, workdir):
    tables = all_tables(4)
    bases = {}
    cases = []
    for t in tables:
        key = restrict(t, range(3))
        if key not in bases:
            bases[key] = space(E, key)
        cases.append((space(E, t), bases[key]))
    triples = []
    for i in range(TRIPLES):
        a, b1, b2, f1, f2 = _triple(rng, TRIPLE_SHAPES[i % len(TRIPLE_SHAPES)])
        triples.append((space(E, a), space(E, b1), space(E, b2), f1, f2, b1, b2))
    chains = []
    for i in range(CHAINS):
        shape = CHAIN_SHAPES[i % len(CHAIN_SHAPES)]
        zn = 1 + (i // len(CHAIN_SHAPES)) % 3
        x, y, z, p1, p2 = _chain(rng, shape, zn)
        chains.append((space(E, x), space(E, y), space(E, z), p1, p2))
    return {"tables": tables, "cases": cases, "triples": triples, "chains": chains}


def warm(E, inp):
    sp, base = inp["cases"][-1]
    E.from_metric(E.metrize_dull(sp))
    E.realize_extension(base, sp)
    E.canonical_form(sp)
    list(E.enumerate_spaces(2))
    a, b1, b2, f1, f2 = inp["triples"][0][:5]
    E.amalgamate(a, b1, b2, f1, f2)
    x = inp["chains"][0][0]
    kx = E.katetov_space(x)
    E.katetov_map(kx, kx, tuple(range(x.m)))


def _space_task(E, sp, base, canon_tables):
    def run(tr):
        d = tr("metrize.metrize_dull", E.metrize_dull, sp)
        t = tr("metrize.validate_metric", E.validate_metric, d)
        back = tr("metrize.from_metric", E.from_metric, t)
        dull = tr("metrize.is_dull", E.is_dull, t)
        cf = tr("space.canonical_form", E.canonical_form, sp)
        real = tr("katetov.realize_extension", E.realize_extension, base, sp)
        return back, dull, cf, real

    def check(out, tr):
        back, dull, cf, real = out
        tr.count("space.canonical_form.calls")
        expect(back == sp, "metrize", f"from_metric(metrize_dull(sp)) != sp for {sp.table}")
        expect(dull is True, "metrize", f"metric of {sp.table} is not dull")
        order = cf.order
        expect(sorted(order) == list(range(sp.m)), "space", "canonical order is not a permutation")
        expect(
            all(cf.space.rank(a, b) == sp.rank(order[a], order[b]) for a, b in itertools.combinations(range(sp.m), 2)),
            "space",
            f"canonical table is not a relabelling of {sp.table}",
        )
        canon_tables.add(cf.space.table)
        expect(
            tuple(real.g[: base.m]) == tuple(range(base.m))
            and E.embedding_rank_map(sp, real.katetov, real.g) is not None,
            "katetov",
            f"realization of {sp.table} is not an embedding over the identity",
        )

    return Task("space", "metrize", run, check)


def _enum_task(E, tables):
    def run(tr):
        return tr("space.enumerate_spaces", lambda: list(E.enumerate_spaces(4)))

    def check(out, tr):
        tr.count("space.enumerate_spaces.emitted", len(out))
        expect(len(out) == 4683, "space", f"enumeration emitted {len(out)} spaces, not 4683")
        expect([s.table for s in out] == tables, "space", "enumeration order or tables changed")

    return Task("enumerate", "space", run, check)


def _amalgam_task(E, case):
    a, b1, b2, f1, f2, tb1, tb2 = case

    def run(tr):
        return tr("amalgam.amalgamate", E.amalgamate, a, b1, b2, f1, f2)

    def check(res, tr):
        g1, g2, rank = res.g1, res.g2, res.space.rank
        expect(all(g1[f1[i]] == g2[f2[i]] for i in range(a.m)), "amalgam", "amalgam does not commute")
        expect(embeds(tb1, rank, g1) and embeds(tb2, rank, g2), "amalgam", "a leg is not an embedding")
        expect(set(g1) & set(g2) == {g1[f1[i]] for i in range(a.m)}, "amalgam", "overlap is not exact")

    return Task("amalgamate", "amalgam", run, check)


def _functor_task(E, chain):
    x, y, z, p1, p2 = chain
    comp = tuple(p2[v] for v in p1)

    def run(tr):
        kx = tr("katetov.katetov_space", E.katetov_space, x)
        ky = tr("katetov.katetov_space", E.katetov_space, y)
        kz = tr("katetov.katetov_space", E.katetov_space, z)
        direct = tr("katetov.katetov_map", E.katetov_map, kx, kz, comp)
        first = tr("katetov.katetov_map", E.katetov_map, kx, ky, p1)
        second = tr("katetov.katetov_map", E.katetov_map, ky, kz, p2)
        return direct, first, second

    def check(out, tr):
        direct, first, second = out
        tr.count("katetov.katetov_map.points", len(direct) + len(first) + len(second))
        expect(tuple(first[: x.m]) == p1, "katetov", "K(phi) does not extend phi")
        expect(direct == tuple(second[v] for v in first), "katetov", "K(g o f) != K(g) o K(f)")

    return Task("functor", "katetov", run, check)


def build(E, inp):
    canon_tables: set = set()
    groups = [[_space_task(E, sp, base, canon_tables)] for sp, base in inp["cases"]]
    groups.append([_enum_task(E, inp["tables"])])
    groups.extend([_amalgam_task(E, case)] for case in inp["triples"])
    groups.extend([_functor_task(E, chain)] for chain in inp["chains"])

    def finish():
        if len(canon_tables) != ISO_CLASSES_M4:
            raise Fail("space", f"{len(canon_tables)} canonical tables for {ISO_CLASSES_M4} classes")

    return groups, finish
