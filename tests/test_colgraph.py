"""Seeded geometric colourings and star demands.

The scalar per-edge draw is the authority; the vectorized bulk path is
pinned to it exactly.  Marginals are checked against the geometric law
with a chi-square test, and the exact threshold table is verified against
the law's cumulative distribution by integer arithmetic."""

import json
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from echelon import (
    ColouredGraph,
    GeometricColouring,
    RandomLimitModel,
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
from echelon import jsonio, prng
from echelon.colgraph import WITNESS_BITS_CAP
from echelon.errors import CapExceeded, DemandError, ValidationError
from echelon.rationals import nth_rational
from echelon.space import _colex_pairs

from helpers import (
    deadline,
    reference_all_edge_colours,
    reference_edge_bits,
    reference_geometric_thresholds,
    reference_pair_colours,
)

SCALE = 1 << 64


def test_edge_bits_symmetric_and_deterministic():
    assert prng.edge_bits(7, 3, 11) == prng.edge_bits(7, 11, 3)
    assert prng.edge_bits(7, 3, 11) == prng.edge_bits(7, 3, 11)
    assert prng.edge_bits(7, 3, 11) != prng.edge_bits(8, 3, 11)
    assert prng.edge_bits(7, 3, 11) != prng.edge_bits(7, 3, 12)


def test_edge_bits_match_the_three_round_chain():
    """Bit for bit against three chained ``mix64`` calls: seeds at both
    ends of 64 bits and past them (masked), pairs in either order, and
    pairs with endpoint 0; the colour is the inversion of those bits."""
    stream = prng.SplitMix64Stream(41)
    seeds = [0, 2**64 - 1, 2**64 + 5, 7] + [stream.next_u64() for _ in range(4)]
    pairs = [(0, 1), (1, 0), (0, 999), (999, 0), (5, 3), (3, 5), (2**20, 17)]
    pairs += [(stream.randrange(5000), stream.randrange(5000)) for _ in range(40)]
    for seed in seeds:
        for u, v in pairs:
            want = reference_edge_bits(seed, u, v)
            assert prng.edge_bits(seed, u, v) == want, (seed, u, v)
            for p in (Fraction(1, 2), Fraction(1, 256)):
                assert prng.edge_colour(p, seed, u, v) == prng.geometric_colour(p, want)
    assert prng.edge_bits(2**64 + 5, 3, 9) == prng.edge_bits(5, 3, 9)


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
    for seed in (0, 1, 12345, 2**64 - 1):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            for n in (0, 1, 2, 40, 70):
                bulk = prng.all_edge_colours(p, seed, n)
                flat = []
                for j in range(n):
                    for i in range(j):
                        flat.append(prng.edge_colour(p, seed, i, j))
                assert bulk.tolist() == flat


def test_pair_kernel_equals_scalar():
    """Pairs in either order, and a block of candidates broadcast against
    fixed points, entry by entry against the scalar colour."""
    stream = prng.SplitMix64Stream(5)
    u = [stream.randrange(70) for _ in range(300)]
    v = [(a + 1 + stream.randrange(69)) % 70 for a in u]
    for seed in (0, 1, 2**64 - 1):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            got = prng.pair_colours(p, seed, u, v)
            assert got.tolist() == [prng.edge_colour(p, seed, a, b) for a, b in zip(u, v)]
            fixed = [3, 0, 69, 41]
            block = prng.pair_colours(p, seed, [[z] for z in range(70)], fixed)
            assert block.shape == (70, 4)
            for z in range(70):
                for k, w in enumerate(fixed):
                    if z != w:
                        assert block[z, k] == prng.edge_colour(p, seed, z, w)


def test_plain_integer_thresholds_equal_the_fraction_loop():
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(255, 256), Fraction(1, 256)):
        assert prng.geometric_thresholds(p) == reference_geometric_thresholds(p)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 256)])
def test_guide_table_inversion_at_every_boundary(p):
    """The vectorized inversion against the scalar one on the draws where
    a guide table can go wrong: each threshold and its neighbours, the
    first and last draw of every bucket, and both ends of the range."""
    ts = prng.geometric_thresholds(p)
    law = prng._law(p.numerator, p.denominator)
    buckets = np.arange(law.guide.size, dtype=np.uint64) << law.shift
    assert 0 < law.guide.size <= 1 << 16 and law.guide.dtype == np.min_scalar_type(len(ts) + 1)
    draws = sorted(
        {r for t in ts for r in (t - 1, t, t + 1) if 0 <= r < SCALE}
        | set(buckets.tolist())
        | set((buckets | ((np.uint64(1) << law.shift) - np.uint64(1))).tolist())
        | {0, SCALE - 1}
    )
    draws += [0] * (len(draws) % 2)  # an even count, for the 2-D block
    want = [prng.geometric_colour(p, r) for r in draws]
    bits = np.array(draws, dtype=np.uint64)
    flat = prng._invert(p, bits)
    assert flat.dtype == law.guide.dtype and flat.tolist() == want
    block = bits.reshape(2, -1)
    assert prng._invert(p, block).tolist() == np.array(want).reshape(2, -1).tolist()
    assert prng._invert(p, block.T).tolist() == np.array(want).reshape(2, -1).T.tolist()
    assert (law.guide == 0).any()  # some draws took the binary search


def test_kernel_equals_the_binary_search_kernel():
    """Entry by entry against the int64 kernel that searched the thresholds
    for every pair, in the law's narrow colour dtype."""
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 256)):
        narrow = np.min_scalar_type(len(prng.geometric_thresholds(p)) + 1)
        for seed in (0, 7, 2**64 - 1):
            for n in (0, 1, 2, 300):
                got = prng.all_edge_colours(p, seed, n)
                want = reference_all_edge_colours(p, seed, n)
                assert want.dtype == np.int64 and got.dtype == narrow and np.array_equal(got, want)
            u = np.arange(200)[:, None]
            v = np.array([0, 5, 199, 4000])
            got = prng.pair_colours(p, seed, u, v)
            want = reference_pair_colours(p, seed, u, v)
            assert got.shape == (200, 4) and got.dtype == narrow and np.array_equal(got, want)
    # many blocks of rows, up to the CLI's cap, and the --p floor, where
    # the most draws miss the guide table
    for p, n in ((Fraction(1, 2), 1024), (Fraction(1, 2), 2048), (Fraction(1, 256), 1024)):
        assert np.array_equal(prng.all_edge_colours(p, 7, n), reference_all_edge_colours(p, 7, n))


def test_bulk_kernel_peak_memory():
    """All pair colours of 1,024 points (523,776) and of the CLI's cap of
    2,048 (2,096,128), in uint8 (p = 1/2) and in uint16 (p = 1/256), at a
    peak of at most 12 bytes a pair, and of at most the output plus three
    int64 arrays of one block of rows."""
    for p in (Fraction(1, 2), Fraction(1, 256)):
        for n in (1024, 2048):
            out = prng.all_edge_colours(p, 11, n)
            tracemalloc.start()
            try:
                prng.all_edge_colours(p, 11, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 * out.size, (p, n, peak)
            assert peak <= out.nbytes + 3 * 8 * prng.BLOCK_PAIRS, (p, n, peak)


def test_bulk_kernel_block_boundaries():
    """The first and last pair of every block of rows against the scalar
    colour, at the CLI's cap."""
    p, n = Fraction(1, 3), 2048
    got = prng.all_edge_colours(p, 3, n)
    blocks, j = 0, 1
    while j < n:
        lo = j * (j - 1) // 2
        stop = j + 1  # rows j..stop-1 while they fit in one block, at least one
        while stop < n and stop * (stop + 1) // 2 - lo <= prng.BLOCK_PAIRS:
            stop += 1
        hi = stop * (stop - 1) // 2
        assert got[lo] == prng.edge_colour(p, 3, 0, j)
        assert got[hi - 1] == prng.edge_colour(p, 3, stop - 2, stop - 1)
        blocks += 1
        j = stop
    assert blocks > 1


def test_graph_determinism_and_structure():
    colouring = GeometricColouring(Fraction(1, 2), 99)
    g1 = random_coloured_graph(64, colouring)
    g2 = random_coloured_graph(64, colouring)
    assert g1 == g2
    assert g1.colour(3, 5) == g1.colour(5, 3)
    assert g1.colour(3, 5) == colouring.edge_colour(3, 5)
    assert min(g1.colours) == 1


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 256)], ids=["uint8", "uint16"])
def test_chi_holds_exact_ints(p):
    """``chi`` from the narrow kernel array: exact ints equal to the scalar
    colour, kept as the tuple given, and rendered by the int-list fast path
    of ``dumps`` as the standard library renders it."""
    n = 70
    g = random_coloured_graph(n, GeometricColouring(p, 5))
    assert prng.all_edge_colours(p, 5, n).dtype == np.min_scalar_type(len(prng.geometric_thresholds(p)) + 1)
    assert type(g.chi) is tuple and all(type(c) is int for c in g.chi)
    assert list(g.chi) == [prng.edge_colour(p, 5, i, j) for i, j in _colex_pairs(n)]
    if p == Fraction(1, 256):
        assert max(g.chi) > 255  # colours past one byte
    t = (1, 2, 1)
    assert ColouredGraph(3, t).chi is t
    doc = jsonio.graph_to_json(g)
    assert jsonio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 256)])
def test_scalar_colours_from_the_cached_law_equal_the_reference(p):
    """``GeometricColouring.edge_colour``, ``RandomLimitModel.colour_index``
    and its ``rank_label`` read the law once per object; each equals
    ``prng.edge_colour`` in both endpoint orders."""
    n = 24
    for seed in (0, 1, 12345, 2**64 - 1):
        colouring = GeometricColouring(p, seed)
        model = RandomLimitModel(seed, p)
        model.limit_points(n)
        for j in range(1, n):
            for i in range(j):
                want = prng.edge_colour(p, seed, i, j)
                for u, v in ((i, j), (j, i)):
                    assert colouring.edge_colour(u, v) == want
                    assert model.colour_index(u, v) == want
                    assert model.rank_label(u, v) == nth_rational(want)
    with pytest.raises(ValidationError) as err:
        GeometricColouring(p, 0).edge_colour(4, 4)
    assert err.value.code == "graph/loop"
    # seeds are read mod 2^64, as before the law was cached
    assert GeometricColouring(p, -1).edge_colour(2, 9) == prng.edge_colour(p, 2**64 - 1, 2, 9)
    negative = RandomLimitModel(-1, p)
    negative.limit_points(10)
    assert negative.colour_index(2, 9) == prng.edge_colour(p, 2**64 - 1, 2, 9)


def test_random_graph_peak_memory():
    """``random_coloured_graph(1024, ...)`` at a traced peak below the
    ``chi`` tuple, the kernel's output and three int64 blocks of rows: no
    room for a list of all the colours (8 bytes a pair).  At p = 1/256 the
    colours past CPython's cached small ints are objects of ``chi`` too."""
    for p in (Fraction(1, 2), Fraction(1, 256)):
        colouring = GeometricColouring(p, 11)
        g = random_coloured_graph(1024, colouring)
        out = prng.all_edge_colours(p, 11, 1024)
        tracemalloc.start()
        try:
            random_coloured_graph(1024, colouring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        objects = sum(sys.getsizeof(c) for c in g.chi if c > 256)
        assert peak < sys.getsizeof(g.chi) + objects + out.nbytes + 3 * 8 * prng.BLOCK_PAIRS, (p, peak)


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
    assert [pair_index(i, j) for i, j in _colex_pairs(9)] == list(range(36))
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


@pytest.mark.parametrize("vertex", [0.5, "a", True])
def test_check_star_refuses_a_vertex_that_is_not_an_int(vertex):
    """A float or a string is no vertex, and True is not vertex 1."""
    g = ColouredGraph(3, [1, 1, 1])
    with pytest.raises(DemandError) as err:
        check_star(g, star_demand([[vertex]], [1]))
    assert err.value.code == "demand/range"
    assert str(err.value) == f"vertex {vertex} is not in the graph"


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
    bad_rates = (0, 1, Fraction(3, 2), True, None, "abc", "1/0", float("nan"), float("inf"), float("-inf"))
    readers = (
        as_probability,
        lambda p: GeometricColouring(p, 0),
        lambda p: witness_failure_probability(p, (1,), (1,), 1),
    )
    for bad in bad_rates:
        for read in readers:
            with pytest.raises(ValidationError) as err:
                read(bad)
            assert err.value.code == "prob/range"
            assert err.value.message == "probability must lie strictly between 0 and 1"


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
    assert g == ColouredGraph(3, (1, 2, 1)) and g != ColouredGraph(3, (1, 1, 1))
    assert hash(g) == hash((3, (1, 2, 1)))
    assert repr(g) == "ColouredGraph(v=3)"
    assert g.chi == (1, 2, 1) and g.colours == (1, 2)
    with pytest.raises(ValidationError):
        ColouredGraph(3, [1, 2])
    with pytest.raises(ValidationError):
        ColouredGraph(0, [])
    bad = ColouredGraph(3, [1, "x", 2])
    with pytest.raises(ValidationError):
        bad.colours


@pytest.mark.parametrize(
    "build",
    [
        lambda: ColouredGraph(True, ()),
        lambda: ColouredGraph(False, ()),
        lambda: ColouredGraph("a", ()),
        lambda: ColouredGraph(2.0, (1,)),
        lambda: random_coloured_graph(True, GeometricColouring(Fraction(1, 2), 0)),
        lambda: random_coloured_graph("a", GeometricColouring(Fraction(1, 2), 0)),
    ],
    ids=["true", "false", "str", "float", "random-true", "random-str"],
)
def test_a_vertex_count_must_be_an_int(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == "graph/shape"


def test_stream_randrange_uniform_support():
    rng = prng.SplitMix64Stream(3)
    seen = {rng.randrange(5) for _ in range(200)}
    assert seen == {0, 1, 2, 3, 4}
