"""Rational metrics, dullness, and the metric realization of a space.

All arithmetic is exact: distances are ``fractions.Fraction``.  Floats are
rejected so no binary rounding can sneak into a comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import MetricError, MorphismError
from .space import EchelonedSpace

Metric = tuple[tuple[Fraction, ...], ...]


def _as_fraction(value: object, i: int, j: int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    where = f"entry ({i},{j})"
    if isinstance(value, bool) or isinstance(value, float):
        raise MetricError("metric/shape", f"{where}: exact rational required, got {value!r}")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MetricError("metric/shape", f"{where}: unparsable rational {value!r}") from None
    raise MetricError("metric/shape", f"{where}: exact rational required, got {type(value).__name__}")


def _checked(d: Sequence[Sequence[object]]) -> tuple[Metric, tuple[tuple[int, ...], ...]]:
    """Validate a metric once: its normalized Fraction table, and the same
    table times the lcm of its denominators, as integers.

    Scaling by a positive constant keeps every equality and comparison, so
    the axioms are checked on the integer table, in the order shape,
    diagonal, symmetry, positivity, triangle.  The triangle check runs over
    i < k only: once the first four hold, a triple with a repeated index
    cannot fail, and a failure at (i, j, k) with i > k mirrors one at
    (k, j, i) that comes earlier, so the failure reported is still the
    first in i-j-k order."""
    m = len(d)
    if m < 1 or any(len(row) != m for row in d):
        raise MetricError("metric/shape", "distance table must be square and non-empty")
    t = tuple(
        tuple(_as_fraction(v, i, j) for j, v in enumerate(row)) for i, row in enumerate(d)
    )
    scale = lcm(*{q.denominator for row in t for q in row})
    s = tuple(tuple(q.numerator * (scale // q.denominator) for q in row) for row in t)
    for i in range(m):
        if s[i][i] != 0:
            raise MetricError("metric/diagonal", f"d({i},{i}) must be 0")
        for j in range(i + 1, m):
            if s[i][j] != s[j][i]:
                raise MetricError("metric/symmetry", f"d({i},{j}) != d({j},{i})")
            if s[i][j] <= 0:
                raise MetricError("metric/positivity", f"d({i},{j}) must be positive")
    for i in range(m):
        si = s[i]
        for j in range(m):
            sij, sj = si[j], s[j]
            for k in range(i + 1, m):
                if si[k] > sij + sj[k]:
                    raise MetricError(
                        "metric/triangle",
                        f"d({i},{k}) > d({i},{j}) + d({j},{k})",
                    )
    return t, s


def validate_metric(d: Sequence[Sequence[object]]) -> Metric:
    """Normalize to a Fraction table, raising MetricError naming the first
    axiom that fails: shape, diagonal, symmetry, positivity, or triangle."""
    return _checked(d)[0]


def from_metric(d: Sequence[Sequence[object]]) -> EchelonedSpace:
    """Echelon a metric: pairs ordered by distance, ties merged."""
    s = _checked(d)[1]
    # the diagonal's 0 is the least level, so it takes rank 0
    levels = sorted({v for row in s for v in row})
    rank_of = {v: r for r, v in enumerate(levels)}
    table = tuple(tuple(rank_of[v] for v in row) for row in s)
    return EchelonedSpace(len(s), len(levels) - 1, table)


def metrize_dull(space: EchelonedSpace) -> Metric:
    """The canonical dull metric realizing a space.

    Rank r becomes the distance 1 + r/(n+1): nonzero values sit strictly
    inside (1, 2), which makes every triangle inequality automatic and the
    result dull, and distinct ranks get distinct distances so the echelon
    round-trips exactly.
    """
    n = space.n
    levels = (Fraction(0),) + tuple(Fraction(n + 1 + r, n + 1) for r in range(1, n + 1))
    return tuple(tuple(levels[r] for r in row) for row in space.table)


def is_dull(d: Sequence[Sequence[object]]) -> bool:
    """Whether every distance is bounded by every sum of two nonzero ones.

    Validates the metric first.  Equivalent form used here: with t the
    smallest nonzero value, all values lie in [t, 2t]."""
    values = [v for row in _checked(d)[1] for v in row if v]
    if not values:
        return True
    return max(values) <= 2 * min(values)


def is_one_lipschitz(
    d_source: Sequence[Sequence[object]],
    d_target: Sequence[Sequence[object]],
    h: Sequence[int],
) -> bool:
    """Whether the point map never increases distances."""
    s = validate_metric(d_source)
    t = validate_metric(d_target)
    h = tuple(h)
    if len(h) != len(s) or any(not (0 <= y < len(t)) for y in h):
        raise MorphismError("morphism/map", "point map does not fit the two metrics")
    m = len(s)
    return all(
        t[h[i]][h[j]] <= s[i][j] for i in range(m) for j in range(i + 1, m)
    )


def one_lipschitz_not_homomorphism_example() -> tuple[Metric, Metric, tuple[int, ...]]:
    """Three-point witness that 1-Lipschitz maps need not preserve echelons.

    Source distances (2, 4, 4), target distances (2, 1, 1), identity on
    indices: distances never grow, but the closest source pair is sent to
    the farthest target pair, so no monotone rank map exists.
    """
    two, four, one = Fraction(2), Fraction(4), Fraction(1)
    zero = Fraction(0)
    d_m: Metric = (
        (zero, two, four),
        (two, zero, four),
        (four, four, zero),
    )
    d_n: Metric = (
        (zero, two, one),
        (two, zero, one),
        (one, one, zero),
    )
    return d_m, d_n, (0, 1, 2)
