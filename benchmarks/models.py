"""Workload ``models``: the generative side, criteria 5, 6 and 7 enlarged.

Deterministic growth to 32/64/128 points; density demands for every gap
after a 12- and a 14-point prefix; random-model prefixes of 64/128/256
points; random-model witness demands whose six exact labels force the scan
past the materialized prefix; back-and-forth certificates between fresh
models; seeded 1024-vertex coloured graphs with a star demand, and a scalar
replay of a slice of each graph's edges.  It loads limit, rationals, prng
and colgraph, and uses space only through from_weights: this is where the
deterministic model's growth cost shows, and it is the control for the
metrize, canonical-form and CLI work.

Seed-dependent work (witness scans, certificates) is batched four to a task,
which keeps those tasks well above the median task.  The 203 tasks of a pass
put the p99 tail inside the block of 64-point deterministic growths for any
pass count from 5 to 10.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import golden
from harness import Task, expect
from inputs import permutation, restrict

NAME = "models"
MIN_PASSES = 5
DET_GROWTH = (32, 64, 128)
DENSITY_GAPS = {12: 65, 14: 90}  # gaps between adjacent labels after the prefix
RANDOM_PREFIX = (64, 128, 256)
WITNESS_TASKS = 25
WITNESSES_PER_TASK = 4  # summing four scans keeps a task's cost close to its mean for every seed
# Colour-1 and colour-2 labels of the random model (1st and 2nd Calkin-Wilf
# rationals); five of the first and one of the second make each candidate
# succeed with probability 2^-7, so the scan always outgrows the 6-point base.
WITNESS_LABELS = (Fraction(1),) * 5 + (Fraction(1, 2),)
BNF_TASKS = 5
BNF_PER_TASK = 4
BNF_DEPTH = 8
GRAPHS = 10
GRAPH_N = 1024
REPLAY_VERTICES = 64  # replay the edges among the first 64 vertices: 2,016 colours
STAR_SETS = ((0, 1), (2, 3))
STAR_COLOURS = (1, 2)


def label_digest(model, n: int) -> str:
    text = ",".join(
        f"{q.numerator}/{q.denominator}"
        for q in (model.rank_label(u, v) for u in range(n) for v in range(u + 1, n))
    )
    return hashlib.sha256(text.encode()).hexdigest()


def setup(E, rng, workdir):
    seeds = lambda k: [rng.getrandbits(32) for _ in range(k)]
    return {
        "prefix_seed": seeds(1)[0],
        "witnesses": [
            [(s, permutation(rng, len(WITNESS_LABELS))) for s in seeds(WITNESSES_PER_TASK)] for _ in range(WITNESS_TASKS)
        ],
        "bnf_seeds": [seeds(BNF_PER_TASK) for _ in range(BNF_TASKS)],
        "colourings": [E.GeometricColouring(Fraction(1, 2), s) for s in seeds(GRAPHS)],
        "star": E.star_demand(STAR_SETS, STAR_COLOURS),
    }


def warm(E, inp):
    E.RandomLimitModel(0).sample_prefix(4)
    E.DeterministicLimitModel().limit_points(4)
    E.back_and_forth(E.RandomLimitModel(1), E.DeterministicLimitModel(), 2)
    g = E.random_coloured_graph(8, inp["colourings"][0])
    E.check_star(g, inp["star"])


def _growth_task(E, n, digests):
    def run(tr):
        model = E.DeterministicLimitModel()
        tr("limit.deterministic.limit_points", model.limit_points, n, tag=f"n{n}")
        return model

    def check(model, tr):
        tr.count("limit.deterministic.labels", model.size * (model.size - 1) // 2)
        expect(model.size == n, "limit", f"limit_points({n}) materialized {model.size} points")
        for k, digest in digests.items():
            if k <= n:  # the pinned n = 64 digest, and each smaller model's labels
                expect(label_digest(model, k) == digest, "limit", f"the first {k} points of the {n}-point model changed")
        digests[n] = label_digest(model, n)

    return Task("det.limit_points", "limit", run, check)


def _density_group(E, n):
    state = {}

    def prefix(tr):
        model = E.DeterministicLimitModel()
        tr("limit.deterministic.limit_points", model.limit_points, n, tag=f"prefix{n}")
        labels = tr("limit.deterministic.existing_labels", model.existing_labels)
        state["model"], state["gaps"] = model, list(zip(labels, labels[1:]))
        return model

    def prefix_check(model, tr):
        tr.count("limit.deterministic.labels", model.size * (model.size - 1) // 2)
        expect(len(state["gaps"]) == DENSITY_GAPS[n], "limit", f"{len(state['gaps'])} gaps after {n} points")

    def gap_task(i):
        def run(tr):
            lo, hi = state["gaps"][i]
            demand = E.Demand(((0, E.OpenInterval(lo, hi)),))
            return tr("limit.deterministic.ensure_witness", state["model"].ensure_witness, demand)

        def check(z, tr):
            model = state["model"]
            tr.count("limit.deterministic.labels", model.size - 1)
            lo, hi = state["gaps"][i]
            if i == DENSITY_GAPS[n] - 1:
                state.clear()  # release the model before the rest of the pass
            expect(lo < model.rank_label(z, 0) < hi, "limit", f"witness label misses the gap ({lo}, {hi})")

        return Task("det.density", "limit", run, check)

    return [Task("det.density", "limit", prefix, prefix_check)] + [gap_task(i) for i in range(DENSITY_GAPS[n])]


def _prefix_group(E, seed):
    tables = {}

    def task(n):
        def run(tr):
            return tr("limit.random.sample_prefix", E.RandomLimitModel(seed).sample_prefix, n, tag=f"n{n}")

        def check(sp, tr):
            expect(sp.m == n, "limit", f"sample_prefix({n}) has {sp.m} points")
            if n != RANDOM_PREFIX[-1]:
                tables[n] = sp.table
            if n // 2 in tables:
                expect(restrict(sp.table, range(n // 2)) == tables.pop(n // 2), "limit", f"prefix of {n} is not the {n // 2}-point sample")

        return Task("rnd.sample_prefix", "limit", run, check)

    return [task(n) for n in RANDOM_PREFIX]


def _witness_task(E, cases):
    demands = [(seed, [WITNESS_LABELS[k] for k in perm]) for seed, perm in cases]
    base = len(WITNESS_LABELS)

    def run(tr):
        found = []
        for seed, labels in demands:
            model = E.RandomLimitModel(seed)
            model.limit_points(base)
            demand = E.Demand(tuple((i, E.ExactLabel(lab)) for i, lab in enumerate(labels)))
            found.append((model, labels, tr("limit.random.ensure_witness", model.ensure_witness, demand)))
        return found

    def check(found, tr):
        for model, labels, z in found:
            tr.count("limit.random.points_scanned", z + 1 - base)
            tr.count("limit.random.witnesses")
            expect(z >= base, "limit", "witness is a base point")
            expect(all(model.rank_label(z, i) == lab for i, lab in enumerate(labels)), "limit", "witness misses an exact label")

    return Task("rnd.ensure_witness", "limit", run, check)


def _bnf_task(E, seeds):
    def run(tr):
        return [
            tr("limit.back_and_forth", E.back_and_forth, E.RandomLimitModel(s), E.DeterministicLimitModel(), BNF_DEPTH)
            for s in seeds
        ]

    def check(certs, tr):
        depth = set(range(BNF_DEPTH))
        for cert in certs:
            tr.count("limit.back_and_forth.pairs", len(cert.left))
            expect(set(cert.left) >= depth and set(cert.right) >= depth, "limit", "certificate does not cover the depth")
            expect(cert.left_space == cert.right_space, "limit", "certificate sides differ")

    return Task("bnf", "limit", run, check)


def _graph_task(E, colouring, star):
    wanted = list(zip(STAR_SETS, STAR_COLOURS))
    taken = {u for us in STAR_SETS for u in us}

    def sees(z):
        return all(colouring.edge_colour(z, u) == c for us, c in wanted for u in us)

    def replay():
        edge_colour = colouring.edge_colour
        return [edge_colour(i, j) for j in range(1, REPLAY_VERTICES) for i in range(j)]

    def run(tr):
        g = tr("colgraph.random_coloured_graph", E.random_coloured_graph, GRAPH_N, colouring)
        z = tr("colgraph.check_star", E.check_star, g, star)
        return g, z, tr("prng.edge_colour", replay)

    def check(out, tr):
        g, z, colours = out
        expect(g.v == GRAPH_N and len(g.chi) == GRAPH_N * (GRAPH_N - 1) // 2, "colgraph", "graph has the wrong shape")
        expect(colours == list(g.chi[: len(colours)]), "prng", "scalar and vectorized colours disagree")
        tr.count("colgraph.check_star.calls")
        if z is None:
            expect(not any(sees(v) for v in range(GRAPH_N) if v not in taken), "colgraph", "check_star missed a witness")
            return
        tr.count("colgraph.check_star.hits")
        expect(z not in taken and sees(z), "colgraph", f"vertex {z} does not meet the star demand")

    return Task("graph", "colgraph", run, check)


def build(E, inp):
    digests = {64: golden.DET_LABELS_N64}
    groups = [[_growth_task(E, n, digests) for n in DET_GROWTH]]
    groups.extend(_density_group(E, n) for n in DENSITY_GAPS)
    groups.append(_prefix_group(E, inp["prefix_seed"]))
    groups.extend([_witness_task(E, cases)] for cases in inp["witnesses"])
    groups.extend([_bnf_task(E, seeds)] for seeds in inp["bnf_seeds"])
    groups.extend([_graph_task(E, c, inp["star"])] for c in inp["colourings"])
    return groups, None
