"""Acceptance suite: the end-to-end guarantees the package ships with.

Each test covers one numbered criterion, prints a single pass/fail line,
and enforces its runtime bound.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines as they appear."""

import itertools
import math
import time
from fractions import Fraction

from echelon import (
    DeterministicLimitModel,
    Demand,
    EchelonedSpace,
    GeometricColouring,
    OpenInterval,
    OrderedEchelonedSpace,
    RandomLimitModel,
    StarDemand,
    arrow_check,
    back_and_forth,
    canonical_form,
    check_star,
    copy_set,
    enumerate_spaces,
    from_metric,
    from_weights,
    induced_subspace,
    is_dull,
    is_embedding,
    is_homomorphism,
    is_one_lipschitz,
    katetov_map,
    katetov_space,
    one_lipschitz_not_homomorphism_example,
    random_coloured_graph,
    realize_extension,
    witness_failure_probability,
    witness_search,
)
from echelon.prng import SplitMix64Stream

from helpers import random_amalgam_triple, random_embedding_chain
from echelon import amalgamate


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_metrization_roundtrip():
    t0 = time.monotonic()
    total = 0
    for sp in enumerate_spaces(4):
        d = metrize(sp)
        rt = from_metric(d)
        if rt != sp and canonical_form(rt).space != canonical_form(sp).space:
            report(1, False, f"roundtrip changed the space {sp.table}")
        if not is_dull(d):
            report(1, False, f"metric for {sp.table} is not dull")
        total += 1
    elapsed = time.monotonic() - t0
    ok = total == 4683 and elapsed < 60
    report(1, ok, f"{total} spaces roundtripped, all metrics dull, {elapsed:.1f}s")


def metrize(sp):
    from echelon import metrize_dull, validate_metric

    return validate_metric(metrize_dull(sp))


def test_criterion_2_lipschitz_fixture():
    d_m, d_n, h = one_lipschitz_not_homomorphism_example()
    lip = is_one_lipschitz(d_m, d_n, h)
    hom = is_homomorphism(from_metric(d_m), from_metric(d_n), h)
    report(2, lip and not hom, f"is_one_lipschitz={lip}, is_homomorphism={hom}")


def test_criterion_3_amalgamation():
    t0 = time.monotonic()
    stream = SplitMix64Stream(2026)
    good = 0
    for _ in range(200):
        shared, b1, b2, f1, f2 = random_amalgam_triple(stream, max_b=5)
        result = amalgamate(shared, b1, b2, f1, f2)
        commutes = all(
            result.g1[f1[i]] == result.g2[f2[i]] for i in range(shared.m)
        )
        legs = is_embedding(b1, result.space, result.g1) and is_embedding(
            b2, result.space, result.g2
        )
        overlap = set(result.g1) & set(result.g2) == {
            result.g1[f1[i]] for i in range(shared.m)
        }
        if commutes and legs and overlap:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == 200 and elapsed < 30
    report(3, ok, f"{good}/200 strong amalgams verified, {elapsed:.1f}s")


def test_criterion_4_katetov():
    t0 = time.monotonic()
    point = EchelonedSpace(1, 0, ((0,),))
    bases = [point] + list(enumerate_spaces(2)) + list(enumerate_spaces(3))

    for x in bases:
        kx = katetov_space(x)
        chain_size = x.n + 2 + (x.n + 1) * x.m
        if len(kx.chain.labels) != chain_size:
            report(4, False, f"chain size off for {x.table}")
        if kx.m != x.m + (chain_size - 1) ** x.m:
            report(4, False, f"point count off for {x.table}")
        lam = kx.identity_embedding()
        if tuple(lam) != tuple(range(x.m)):
            report(4, False, "identity embedding must fix base points")

    # every one-point extension of every base realizes inside K(X) over lambda
    realized = 0
    for m in (1, 2, 3):
        small = [point] if m == 1 else list(enumerate_spaces(m))
        kats = {id(b): katetov_space(b) for b in small}
        for ext in enumerate_spaces(m + 1):
            sub = induced_subspace(ext, range(m)).space
            base = next(b for b in small if b == sub)
            kx = kats[id(base)]
            g = realize_extension(base, ext).g
            if tuple(g[:m]) != tuple(kx.identity_embedding()):
                report(4, False, "realization must extend the identity embedding")
            pairs = list(itertools.combinations(range(ext.m), 2))
            for p, q in itertools.product(pairs, pairs):
                lhs = ext.rank(*p) <= ext.rank(*q)
                rhs = kx.rank(g[p[0]], g[p[1]]) <= kx.rank(g[q[0]], g[q[1]])
                if lhs != rhs:
                    report(4, False, f"not an embedding for extension {ext.table}")
            realized += 1

    # functor laws
    for x in bases:
        kx = katetov_space(x)
        if katetov_map(kx, kx, tuple(range(x.m))) != tuple(range(kx.m)):
            report(4, False, f"K(id) is not the identity on {x.table}")
    stream = SplitMix64Stream(404)
    for _ in range(100):
        s1 = 1 + stream.randrange(3)
        s2 = s1 + stream.randrange(4 - s1)
        s3 = s2 + stream.randrange(4 - s2)
        (x, y, z), (p1, p2) = random_embedding_chain(stream, (s1, s2, s3))
        kx, ky, kz = katetov_space(x), katetov_space(y), katetov_space(z)
        comp = tuple(p2[v] for v in p1)
        lhs = katetov_map(kx, kz, comp)
        outer = katetov_map(ky, kz, p2)
        rhs = tuple(outer[v] for v in katetov_map(kx, ky, p1))
        if lhs != rhs:
            report(4, False, "functor composition law failed")
    elapsed = time.monotonic() - t0
    ok = realized == 1 + 13 + 4683 and elapsed < 300
    report(
        4,
        ok,
        f"sizes, {realized} extension realizations, functor laws on 100 pairs, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_random_construction():
    t0 = time.monotonic()
    p = Fraction(1, 2)
    failure = witness_failure_probability(p, (1, 2), (2, 2), 1016)
    theory = float(failure.total)
    if not math.isclose(theory, 1.1e-7, rel_tol=0.05):
        report(5, False, f"theoretical failure probability {theory} out of range")
    demand = StarDemand((frozenset({0, 1}), frozenset({2, 3})), (1, 2))
    hits = 0
    for seed in range(100):
        g = random_coloured_graph(1024, GeometricColouring(p, seed))
        if check_star(g, demand) is not None:
            hits += 1
    elapsed = time.monotonic() - t0
    ok = hits >= 99 and elapsed < 60
    report(
        5,
        ok,
        f"{hits}/100 witnesses found, theoretical failure {theory:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_back_and_forth():
    t0 = time.monotonic()
    good = 0
    for seed in range(20):
        cert = back_and_forth(RandomLimitModel(seed), DeterministicLimitModel(), 8)
        if (
            set(cert.left) >= set(range(8))
            and set(cert.right) >= set(range(8))
            and cert.left_space == cert.right_space
        ):
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == 20 and elapsed < 60
    report(6, ok, f"{good}/20 depth-8 certificates verified, {elapsed:.1f}s")


def test_criterion_7_density():
    det = DeterministicLimitModel()
    det.limit_points(16)
    labels = det.existing_labels()
    gaps = list(zip(labels, labels[1:]))
    filled = 0
    for lo, hi in gaps:
        z = det.ensure_witness(Demand(((0, OpenInterval(lo, hi)),)))
        if lo < det.rank_label(z, 0) < hi:
            filled += 1
    top = det.existing_labels()[-1]
    z = det.ensure_witness(Demand(((0, OpenInterval(top, None)),)))
    above = det.rank_label(z, 0) > top
    ok = filled == len(gaps) and above
    report(7, ok, f"{filled}/{len(gaps)} gaps filled, above-max realizable={above}")


def test_criterion_8_ramsey_desk_scale():
    t0 = time.monotonic()
    a = OrderedEchelonedSpace(EchelonedSpace(1, 0, ((0,),)), (0,))
    b = OrderedEchelonedSpace(from_weights(2, {(0, 1): 1}), (0, 1))
    c = witness_search(a, b, 2)
    size_ok = c is not None and c.space.m == 3
    confirmed = size_ok and arrow_check(c, a, b, 2)
    colourings = 2 ** len(copy_set(a, c)) if size_ok else 0
    negative = not arrow_check(b, a, b, 2)
    elapsed = time.monotonic() - t0
    ok = size_ok and confirmed and colourings == 8 and negative and elapsed < 5
    report(
        8,
        ok,
        f"witness |C|={c.space.m if c else None}, {colourings} colourings "
        f"exhausted, C=B refuted={negative}, {elapsed:.1f}s",
    )


def fubini(n: int) -> int:
    # ordered set partitions of an n-set, by conditioning on the first block
    if n == 0:
        return 1
    return sum(math.comb(n, j) * fubini(n - j) for j in range(1, n + 1))


def test_criterion_9_enumeration_counts():
    counts = {m: sum(1 for _ in enumerate_spaces(m)) for m in (2, 3, 4)}
    want = {m: fubini(m * (m - 1) // 2) for m in (2, 3, 4)}
    ok = counts == want == {2: 1, 3: 13, 4: 4683}
    report(9, ok, f"labeled space counts {counts} vs oracle {want}")
