"""Dull-metric realization and the echeloning of metrics.

The roundtrip oracle is exhaustive at 3 points and randomized above; the
dullness predicate is pinned against a brute-force pair-of-pairs check."""

import itertools
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echelon import (
    enumerate_spaces,
    from_metric,
    from_weights,
    is_dull,
    is_homomorphism,
    is_one_lipschitz,
    metrize_dull,
    validate_metric,
)
from echelon import metrize
from echelon.errors import MetricError, MorphismError
from echelon.prng import SplitMix64Stream

from helpers import (
    one_lipschitz_not_homomorphism_example,
    random_space,
    reference_checked,
    reference_from_metric,
    reference_is_dull,
    reference_is_one_lipschitz,
    reference_metrize_dull,
    reference_validate_metric,
)


def dull_oracle(d) -> bool:
    """Every value at most the sum of any two nonzero values."""
    m = len(d)
    values = [d[i][j] for i in range(m) for j in range(m)]
    nonzero = [v for v in values if v != 0]
    for v in values:
        for a in nonzero:
            for b in nonzero:
                if v > a + b:
                    return False
    return True


def grid(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_roundtrip_exhaustive_three_points():
    for sp in enumerate_spaces(3):
        d = metrize_dull(sp)
        assert validate_metric(d)
        assert is_dull(d)
        assert from_metric(d) == sp


def test_metrize_values_sit_between_one_and_two():
    sp = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    d = metrize_dull(sp)
    assert d[0][1] == Fraction(5, 4)
    assert d[0][2] == Fraction(6, 4)
    assert d[1][2] == Fraction(7, 4)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert Fraction(1) < d[i][j] < Fraction(2)


def test_single_point_metrizes():
    sp = next(iter(enumerate_spaces(1)))
    d = metrize_dull(sp)
    assert d == ((Fraction(0),),)
    assert from_metric(d) == sp


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_roundtrip_random_weights(data):
    m = data.draw(st.integers(min_value=2, max_value=6))
    pairs = list(itertools.combinations(range(m), 2))
    weights = {
        p: data.draw(st.integers(min_value=1, max_value=6), label=str(p)) for p in pairs
    }
    sp = from_weights(m, weights)
    assert from_metric(metrize_dull(sp)) == sp


def test_dullness_matches_oracle():
    dull = grid([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    assert dull_oracle(dull) and is_dull(dull)
    spiky = grid([[0, 1, 3], [1, 0, 3], [3, 3, 0]])
    assert not dull_oracle(spiky)
    assert not is_dull(spiky)
    # 3 = 1 + 2 sits exactly on the boundary
    edge = grid([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    assert dull_oracle(edge) == is_dull(edge)


def test_is_dull_rejects_non_metrics():
    with pytest.raises(MetricError):
        is_dull(grid([[0, 5, 1], [5, 0, 1], [1, 1, 0]]))  # triangle fails


def test_validate_metric_axioms():
    with pytest.raises(MetricError) as err:
        validate_metric(grid([[0, 1], [2, 0]]))
    assert err.value.code == "metric/symmetry"
    with pytest.raises(MetricError) as err:
        validate_metric(grid([[1, 1], [1, 0]]))
    assert err.value.code == "metric/diagonal"
    with pytest.raises(MetricError) as err:
        validate_metric(grid([[0, 0], [0, 0]]))
    assert err.value.code == "metric/positivity"
    with pytest.raises(MetricError) as err:
        validate_metric(grid([[0, 1, 5], [1, 0, 1], [5, 1, 0]]))
    assert err.value.code == "metric/triangle"
    with pytest.raises(MetricError) as err:
        validate_metric(((Fraction(0), Fraction(1)),))
    assert err.value.code == "metric/shape"


def test_floats_are_rejected():
    with pytest.raises(MetricError):
        validate_metric(((0, 1.5), (1.5, 0)))


def test_fixture_one_lipschitz_but_not_homomorphism():
    d_m, d_n, h = one_lipschitz_not_homomorphism_example()
    assert validate_metric(d_m) and validate_metric(d_n)
    assert is_one_lipschitz(d_m, d_n, h)
    assert not is_homomorphism(from_metric(d_m), from_metric(d_n), h)


def test_one_lipschitz_detects_expansion():
    d_small = grid([[0, 1], [1, 0]])
    d_big = grid([[0, 2], [2, 0]])
    assert is_one_lipschitz(d_big, d_small, (0, 1))
    assert not is_one_lipschitz(d_small, d_big, (0, 1))
    with pytest.raises(MorphismError):
        is_one_lipschitz(d_small, d_big, (0, 5))


def test_from_metric_orders_by_distance():
    d = grid([[0, 3, 7], [3, 0, 7], [7, 7, 0]])
    sp = from_metric(d)
    assert sp.rank(0, 1) == 1
    assert sp.rank(0, 2) == 2
    assert sp.rank(1, 2) == 2


# --- the single validation pass against the full Fraction loops ---

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FOREIGN = (1.5, 2.0, True, False, None, "1/0", "x", "3/4", "-2", [1], Fraction(1, 3))


def _closure(stream, m):
    """A valid metric, often not dull: shortest paths over random weights
    with varied denominators."""
    d = [[Fraction(0)] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        w = Fraction(stream.randrange(40) + 1, stream.randrange(6) + 1)
        d[i][j] = d[j][i] = w
    for k in range(m):
        for i in range(m):
            for j in range(m):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _corpus_case(stream, m):
    kind = stream.randrange(11)
    if kind == 0:
        return [list(row) for row in metrize_dull(random_space(stream, m))]
    if kind == 1:
        # values in [1, 2] always satisfy the triangle; coprime denominators
        d = [[Fraction(0)] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            p = PRIMES[stream.randrange(len(PRIMES))]
            d[i][j] = d[j][i] = 1 + Fraction(stream.randrange(p + 1), p)
        return d
    d = _closure(stream, m)
    i, k = stream.randrange(m), stream.randrange(m)
    if kind in (2, 3) or m == 1:
        return d
    if i == k:
        k = (i + 1 + stream.randrange(m - 1)) % m
    if kind == 4:  # a pair far too long, so some triangle through it fails
        d[i][k] = d[k][i] = 3 * max(max(row) for row in d) + stream.randrange(3)
    elif kind == 5:  # a pair shrunk, which may or may not break a triangle
        d[i][k] = d[k][i] = Fraction(1, stream.randrange(50) + 1)
    elif kind == 6:
        d[i][i] = Fraction(stream.randrange(3) + 1)
    elif kind == 7:
        d[i][k] += Fraction(1, stream.randrange(4) + 1)
    elif kind == 8:
        d[i][k] = d[k][i] = -Fraction(stream.randrange(3))
    elif kind == 9:
        if stream.randrange(2):
            d[i].pop()
        else:
            d.append([Fraction(0)] * m)
    else:
        d[i][k] = FOREIGN[stream.randrange(len(FOREIGN))]
        if stream.randrange(2):
            d[k][i] = d[i][k]
    return d


def _textual(d):
    """The same table with entries spelled as ints and rational strings."""
    return [
        [int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}" for q in row]
        if all(isinstance(q, Fraction) for q in row)
        else row
        for row in d
    ]


def _outcome(f, *args):
    try:
        out = f(*args)
    except Exception as err:  # the pair must raise the same thing
        return ("raised", type(err).__name__, getattr(err, "code", None), str(err))
    if hasattr(out, "table"):
        return ("space", out.m, out.n, out.table)
    if isinstance(out, tuple):
        return ("metric", tuple(tuple((type(q), q) for q in row) for row in out))
    return ("value", out)


def _metric_corpus(stream):
    """Tables of 1 to 6 points, each also spelled textually, and the
    shapes that are not square."""
    cases = []
    for m in range(1, 7):
        for _ in range(150):
            d = _corpus_case(stream, m)
            cases.append(d)
            cases.append(_textual(d))
    return cases + [[], [[0, 1]], [[0, 1], [1]], [[0]], [["0"]]]


def test_metric_functions_match_the_fraction_loops():
    stream = SplitMix64Stream(606)
    cases = _metric_corpus(stream)
    codes = set()
    for n, d in enumerate(cases):
        for new, ref in (
            (validate_metric, reference_validate_metric),
            (from_metric, reference_from_metric),
            (is_dull, reference_is_dull),
        ):
            got = _outcome(new, d)
            assert got == _outcome(ref, d), (new.__name__, d)
            codes.add(got[2] if got[0] == "raised" else got[0])
        other = cases[(n + 1) % len(cases)]
        if len(d) and len(other):
            h = [stream.randrange(len(other) + (stream.randrange(8) == 0)) for _ in d]
            got = _outcome(is_one_lipschitz, d, other, h)
            assert got == _outcome(reference_is_one_lipschitz, d, other, h), (d, other, h)
            codes.add(got[2] if got[0] == "raised" else got[1])
    # the corpus reaches every outcome
    assert codes >= {
        "metric", "space", "value", True, False,
        "metric/shape", "metric/diagonal", "metric/symmetry",
        "metric/positivity", "metric/triangle", "morphism/map",
    }


def _band_edge(stream, m):
    """A symmetric table whose distances sit at the dull band's edge: the
    least a, exactly 2a, or 2a plus a little, so some tables are dull at
    max = 2a exactly, and others leave the band with or without a failing
    triangle."""
    a = Fraction(stream.randrange(9) + 1, stream.randrange(4) + 1)
    eps = Fraction(1, PRIMES[stream.randrange(len(PRIMES))] * 1000)
    edge = (a, 2 * a, 2 * a, 2 * a + eps, 3 * a / 2)
    d = [[Fraction(0)] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        d[i][j] = d[j][i] = edge[stream.randrange(len(edge))]
    d[0][1] = d[1][0] = a
    return d


def _band_edge_corpus():
    one, two, more = Fraction(1), Fraction(2), Fraction(2001, 1000)
    cases = [
        grid([[0, 1, 2], [1, 0, 2], [2, 2, 0]]),  # max = 2 min exactly
        grid([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),  # and the triangle tight
        [[0, one, more], [one, 0, more], [more, more, 0]],  # past the band, triangle holds
        [[0, one, more], [one, 0, one], [more, one, 0]],  # past the band, triangle fails
        [[0, two, more, 1], [two, 0, 1, 1], [more, 1, 0, 1], [1, 1, 1, 0]],  # fails via point 3
    ]
    stream = SplitMix64Stream(608)
    return cases + [_band_edge(stream, m) for m in range(2, 8) for _ in range(60)]


def test_metrics_at_the_band_edge_match_the_fraction_loops():
    outcomes = set()
    for d in _band_edge_corpus():
        for new, ref in (
            (validate_metric, reference_validate_metric),
            (from_metric, reference_from_metric),
            (is_dull, reference_is_dull),
        ):
            got = _outcome(new, d)
            assert got == _outcome(ref, d), (new.__name__, d)
        outcomes.add(got[1:3] if got[0] == "raised" else got[1])
    assert outcomes == {True, False, ("MetricError", "metric/triangle")}


class Third(Fraction):
    """A Fraction subclass: read as it is, like any Fraction."""


def _distinct(d):
    """The same table with every entry its own object."""
    return [[Fraction(q.numerator, q.denominator) for q in row] for row in d]


# each fault, placed early at the pair (0, 1) or the point 1, or late at the
# pair (3, 4) or the point 4
FAULTS = {
    "shape": lambda d, i, k: d[i].__setitem__(k, 1.5),
    "diagonal": lambda d, i, k: d[k].__setitem__(k, Fraction(1, 3)),
    "symmetry": lambda d, i, k: d[i].__setitem__(k, d[i][k] + Fraction(1, 7)),
    "positivity": lambda d, i, k: (d[i].__setitem__(k, Fraction(0)), d[k].__setitem__(i, Fraction(0))),
    "triangle": lambda d, i, k: (d[i].__setitem__(k, Fraction(10)), d[k].__setitem__(i, Fraction(10))),
}


def _two_faults(early, late):
    d = _distinct(metrize_dull(from_weights(5, {(i, j): i + 2 * j for i in range(5) for j in range(i + 1, 5)})))
    FAULTS[late](d, 3, 4)
    FAULTS[early](d, 0, 1)
    return d


def _checked_outcome(check, d):
    try:
        t, values, dull = check(d)
    except MetricError as err:
        return ("raised", err.code, str(err))
    return (
        tuple(tuple((type(q), q) for q in row) for row in t),
        [(type(x), x) for x in values],
        dull,
    )


def test_checked_matches_the_pairwise_integer_check():
    """The screened check returns what the pairwise integer check returns,
    or raises its first fault, on both corpora above and on the tables the
    screens treat apart: mirrored pairs that are two equal objects, one row
    object repeated, rows of mixed types, entries of every accepted type,
    and every pair of faults with the first of one kind and a later one of
    another."""
    line = [[Fraction(abs(i - j)) for j in range(4)] for i in range(4)]
    dull = metrize_dull(from_weights(4, {(0, 1): 1, (0, 2): 2, (1, 2): 2, (0, 3): 3, (1, 3): 1, (2, 3): 3}))
    row = [Fraction(0), Fraction(1), Fraction(1)]
    cases = _metric_corpus(SplitMix64Stream(606)) + _band_edge_corpus()
    cases += [_distinct(line), _distinct(dull), [list(r) for r in line], list(dull)]
    cases += [[row] * 3, [[Fraction(0)] * 3] * 3, [(0,)], [row[:1]]]
    cases += [
        [tuple(dull[0]), list(dull[1]), tuple(dull[2]), list(dull[3])],
        [(0, 1, "2"), [1, 0, Fraction(1)], ["2", Third(1), Fraction(0)]],
        [[0, Third(1, 3), "2/3"], [Third(1, 3), 0, "1/2"], ["2/3", "1/2", 0]],
        [[Third(0), Third(1, 3)], [Third(1, 3), Third(0)]],
        [[0, 2], [Fraction(4, 2), Fraction(0, 5)]],
    ]
    cases += [_two_faults(a, b) for a in FAULTS for b in FAULTS if a != b]
    outcomes = set()
    for d in cases:
        got = _checked_outcome(metrize._checked, d)
        assert got == _checked_outcome(reference_checked, d), d
        outcomes.add(got[1] if got[0] == "raised" else got[2])
    assert outcomes == {True, False, *(f"metric/{kind}" for kind in FAULTS)}
    for a in FAULTS:
        for b in FAULTS:
            if a != b:
                # a shape fault is found before any axiom, and a triangle after
                first = "shape" if "shape" in (a, b) else b if a == "triangle" else a
                assert _checked_outcome(metrize._checked, _two_faults(a, b))[1] == f"metric/{first}", (a, b)


def test_a_valid_metric_is_checked_without_comparing_fractions(monkeypatch):
    """No two Fractions are compared, even when every mirrored pair is two
    objects: the screens compare types, identities, ratios and integers.
    The first table is not dull, so its triangle loop runs too."""
    stream = SplitMix64Stream(609)
    tables = [_distinct(_closure(stream, 8)), _distinct(metrize_dull(random_space(stream, 8)))]
    calls = []
    for name in ("__eq__", "__lt__", "__le__"):
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, _m=method, _n=name: calls.append(_n) or _m(a, b))
    assert [is_dull(d) for d in tables] == [False, True]
    for d in tables:
        validate_metric(d)
        from_metric(d)
    assert calls == []


def test_coprime_denominators_scale_only_the_lower_triangle():
    """Pairwise coprime denominators make the lcm as long as all of them
    together; only the m(m-1)/2 distances below the diagonal are scaled by
    it.  Scaling all m^2 entries traces a peak of about 35 MB."""
    m = 80
    primes = [p for p in range(2, 30_000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    d = [[Fraction(0)] * m for _ in range(m)]
    for (i, j), p in zip(itertools.combinations(range(m), 2), primes):
        d[i][j] = d[j][i] = Fraction(p + 1, p)
    tracemalloc.start()
    try:
        assert is_dull(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26e6, peak


@pytest.mark.parametrize("image", [0.0, True, "1"])
def test_one_lipschitz_refuses_a_point_that_is_not_an_int(image):
    """A float or a string is no point, and True is not point 1."""
    d = grid([[0, 1], [1, 0]])
    with pytest.raises(MorphismError) as err:
        is_one_lipschitz(d, d, (image, 1))
    assert err.value.code == "morphism/map"
    assert str(err.value) == "point map does not fit the two metrics"


def test_metrize_dull_matches_the_pairwise_loop():
    stream = SplitMix64Stream(607)
    for m in range(1, 7):
        for _ in range(50):
            sp = random_space(stream, m)
            assert _outcome(metrize_dull, sp) == _outcome(reference_metrize_dull, sp)


def test_metric_round_trip_scale_gate():
    spaces = list(enumerate_spaces(4))
    start = time.perf_counter()
    for sp in spaces:
        t = validate_metric(metrize_dull(sp))
        assert from_metric(t) == sp and is_dull(t)
    assert time.perf_counter() - start < 2.5
