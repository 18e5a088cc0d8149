"""Dull-metric realization and the echeloning of metrics.

The roundtrip oracle is exhaustive at 3 points and randomized above; the
dullness predicate is pinned against a brute-force pair-of-pairs check."""

import itertools
import time
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
    one_lipschitz_not_homomorphism_example,
    validate_metric,
)
from echelon.errors import MetricError, MorphismError
from echelon.prng import SplitMix64Stream

from helpers import (
    random_space,
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


def test_metric_functions_match_the_fraction_loops():
    stream = SplitMix64Stream(606)
    cases = []
    for m in range(1, 7):
        for _ in range(150):
            d = _corpus_case(stream, m)
            cases.append(d)
            cases.append(_textual(d))
    cases += [[], [[0, 1]], [[0, 1], [1]], [[0]], [["0"]]]
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
