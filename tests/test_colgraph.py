"""Seeded geometric colourings and star demands.

The scalar per-edge draw is the authority; the vectorized bulk path is
pinned to it exactly.  Marginals are checked against the geometric law
with a chi-square test, and the exact threshold table is verified against
the law's cumulative distribution by integer arithmetic."""

from fractions import Fraction

import pytest
from scipy import stats

from echelon import (
    ColouredGraph,
    GeometricColouring,
    as_probability,
    check_star,
    from_coloured_graph,
    pair_index,
    rado_slice,
    random_coloured_graph,
    star_demand,
    to_coloured_graph,
    witness_failure_probability,
)
from echelon import prng
from echelon.colgraph import WITNESS_BITS_CAP
from echelon.errors import CapExceeded, DemandError, ValidationError

from helpers import deadline

SCALE = 1 << 64


def test_edge_bits_symmetric_and_deterministic():
    assert prng.edge_bits(7, 3, 11) == prng.edge_bits(7, 11, 3)
    assert prng.edge_bits(7, 3, 11) == prng.edge_bits(7, 3, 11)
    assert prng.edge_bits(7, 3, 11) != prng.edge_bits(8, 3, 11)
    assert prng.edge_bits(7, 3, 11) != prng.edge_bits(7, 3, 12)


def test_thresholds_match_geometric_cdf():
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(7, 10)):
        ts = prng.geometric_thresholds(p)
        q = 1 - p
        for i, t in enumerate(ts, start=1):
            # colour <= i exactly when r < t_i; t_i = 2^64 - ceil(q^i 2^64)
            tail = q**i * SCALE
            expected = SCALE - (-(-tail.numerator // tail.denominator))
            assert t == expected
        assert all(a < b for a, b in zip(ts, ts[1:]))


def test_colour_one_has_exact_mass_half():
    ts = prng.geometric_thresholds(Fraction(1, 2))
    assert ts[0] == 1 << 63


def test_geometric_colour_inverts_thresholds():
    p = Fraction(1, 2)
    ts = prng.geometric_thresholds(p)
    assert prng.geometric_colour(p, 0) == 1
    assert prng.geometric_colour(p, ts[0] - 1) == 1
    assert prng.geometric_colour(p, ts[0]) == 2
    assert prng.geometric_colour(p, ts[1]) == 3


def test_vectorized_replay_equals_scalar():
    for seed in (0, 1, 12345):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            n = 40
            bulk = prng.all_edge_colours(p, seed, n)
            flat = []
            for j in range(n):
                for i in range(j):
                    flat.append(prng.edge_colour(p, seed, i, j))
            assert bulk.tolist() == flat


def test_graph_determinism_and_structure():
    colouring = GeometricColouring(Fraction(1, 2), 99)
    g1 = random_coloured_graph(64, colouring)
    g2 = random_coloured_graph(64, colouring)
    assert g1 == g2
    assert g1.colour(3, 5) == g1.colour(5, 3)
    assert g1.colour(3, 5) == colouring.edge_colour(3, 5)
    assert min(g1.colours) == 1


def test_marginals_chi_square():
    # ~2e4 edges; bucket the tail so expected counts stay useful
    g = random_coloured_graph(200, GeometricColouring(Fraction(1, 2), 7))
    buckets = 6
    observed = [0] * buckets
    for c in g.chi:
        observed[min(c, buckets) - 1] += 1
    total = len(g.chi)
    expected = []
    for i in range(1, buckets):
        expected.append(total * float(Fraction(1, 2) ** i))
    expected.append(total * float(Fraction(1, 2) ** (buckets - 1)))
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


def test_pair_index_layout():
    assert pair_index(0, 1) == 0
    assert pair_index(1, 0) == 0
    assert pair_index(0, 2) == 1
    assert pair_index(1, 2) == 2
    assert pair_index(2, 3) == 5
    with pytest.raises(ValidationError):
        pair_index(4, 4)


def test_check_star_finds_the_first_witness():
    # triangle with one odd edge out
    g = ColouredGraph(4, [1, 1, 2, 1, 1, 1])
    d = star_demand([[0]], [1])
    assert check_star(g, d) == 1
    d2 = star_demand([[0], [2]], [1, 1])
    z = check_star(g, d2)
    assert z is not None and g.colour(z, 0) == 1 and g.colour(z, 2) == 1
    assert check_star(g, star_demand([[0, 1], [3]], [1, 9])) is None
    assert check_star(g, star_demand([], [])) == 0


def test_check_star_skips_demand_vertices():
    g = ColouredGraph(3, [1, 1, 1])
    d = star_demand([[0, 1]], [1])
    assert check_star(g, d) == 2


def test_star_demand_validation():
    with pytest.raises(DemandError):
        star_demand([[0], [0]], [1, 2])
    with pytest.raises(DemandError):
        star_demand([[0]], [1, 2])
    g = ColouredGraph(3, [1, 1, 1])
    with pytest.raises(DemandError):
        check_star(g, star_demand([[5]], [1]))


def test_witness_failure_probability_exact_values():
    per_vertex, total = witness_failure_probability(Fraction(1, 2), (1, 2), (2, 2), 1024)
    assert per_vertex == Fraction(63, 64)
    assert total == Fraction(63, 64) ** 1024
    assert 9.8e-8 < float(total) < 1.0e-7
    per_vertex, total = witness_failure_probability(Fraction(1, 2), (1, 2), (2, 2), 1016)
    assert total == Fraction(63, 64) ** 1016
    assert 1.1e-7 < float(total) < 1.15e-7


def test_witness_failure_probability_edge_cases():
    assert witness_failure_probability(Fraction(1, 2), (5,), (0,), 10).total == 0
    assert witness_failure_probability(Fraction(1, 2), (), (), 3).total == 0
    with pytest.raises(DemandError):
        witness_failure_probability(Fraction(1, 2), (0,), (1,), 10)
    with pytest.raises(DemandError):
        witness_failure_probability(Fraction(1, 2), (1, 2), (1,), 10)


def test_witness_failure_probability_cap():
    half = Fraction(1, 2)
    with deadline(2.0):
        # p = 1/2 and one set of size 1 at colour 2 bound the answer by 5n bits
        edge = WITNESS_BITS_CAP // 5
        past = (((1, 2), (2, 2), 10**18), ((10**18,), (1,), 10), ((2,), (1,), edge + 1))
        for indices, sizes, n in past:
            with pytest.raises(CapExceeded) as err:
                witness_failure_probability(half, indices, sizes, n)
            assert err.value.code == "prob/cap"
        # just inside the cap the exact power is taken
        assert witness_failure_probability(half, (2,), (1,), edge).total == Fraction(3, 4) ** edge
    # the candidate count is checked before anything else, the cap included
    for n in (-1, True, 2.0, "3", None):
        with pytest.raises(ValidationError) as err:
            witness_failure_probability(half, (10**18,), (1,), n)
        assert err.value.code == "prob/range"


def test_probability_parsing():
    assert as_probability(0.5) == Fraction(1, 2)
    assert as_probability("2/3") == Fraction(2, 3)
    for bad in (0, 1, Fraction(3, 2), True):
        with pytest.raises(ValidationError):
            as_probability(bad)


def test_rado_slice_keeps_one_colour():
    g = ColouredGraph(4, [1, 2, 1, 1, 2, 3])
    s = rado_slice(g, 2)
    assert s.adjacent(0, 2) and s.adjacent(1, 3)
    assert not s.adjacent(0, 1) and not s.adjacent(2, 3)
    mono = ColouredGraph(3, [4, 4, 4])
    assert len(rado_slice(mono, 4).edges) == 3
    assert len(rado_slice(mono, 1).edges) == 0


def test_rado_slice_satisfies_extension_demands():
    """Colour-1 slice of a big random colouring should behave Rado-like:
    any small (inside, outside) request has a witness."""
    n = 256
    g = random_coloured_graph(n, GeometricColouring(Fraction(1, 2), 21))
    s = rado_slice(g, 1)
    rng = prng.SplitMix64Stream(5)
    failures = 0
    for _ in range(50):
        picks = set()
        while len(picks) < 4:
            picks.add(rng.randrange(n))
        picks = sorted(picks)
        inside, outside = picks[:2], picks[2:]
        hit = None
        for z in range(n):
            if z in picks:
                continue
            if all(s.adjacent(z, u) for u in inside) and not any(
                s.adjacent(z, u) for u in outside
            ):
                hit = z
                break
        if hit is None:
            failures += 1
    # per-vertex success is 1/16 at p=1/2, so a miss across 252
    # candidates has probability (15/16)^252 < 1e-7 per demand
    assert failures == 0


def test_space_graph_roundtrip():
    from echelon import enumerate_spaces

    for sp in enumerate_spaces(3):
        g = to_coloured_graph(sp)
        assert g.colours == tuple(range(1, sp.n + 1))
        assert from_coloured_graph(g) == sp


def test_coloured_graph_immutable_and_validated():
    g = ColouredGraph(3, [1, 2, 1])
    with pytest.raises(AttributeError):
        g.v = 5
    with pytest.raises(ValidationError):
        ColouredGraph(3, [1, 2])
    with pytest.raises(ValidationError):
        ColouredGraph(0, [])
    bad = ColouredGraph(3, [1, "x", 2])
    with pytest.raises(ValidationError):
        bad.colours


def test_stream_randrange_uniform_support():
    rng = prng.SplitMix64Stream(3)
    seen = {rng.randrange(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
