"""Rational metrics, dullness, and the metric realization of a space.

All arithmetic is exact: distances are ``fractions.Fraction``.  Floats are
rejected so no binary rounding can sneak into a comparison.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import eq, is_
from typing import Sequence

from .errors import MetricError, MorphismError
from .rationals import exact_rational
from .space import EchelonedSpace, _compress, _is_int

Metric = tuple[tuple[Fraction, ...], ...]


def _as_fraction(value: object, i: int, j: int) -> Fraction:
    q = exact_rational(value)
    if q is not None:
        return q
    where = f"entry ({i},{j})"
    if isinstance(value, str):
        raise MetricError("metric/shape", f"{where}: unparsable rational {value!r}")
    shown = repr(value) if isinstance(value, (bool, float)) else type(value).__name__
    raise MetricError("metric/shape", f"{where}: exact rational required, got {shown}")


def _checked(d: Sequence[Sequence[object]]) -> tuple[Metric, list[int], bool]:
    """Validate a metric once: its normalized Fraction table, its distances
    times the lcm of their denominators as integers in ``_colex_pairs``
    order, and whether it is dull.

    The axioms are screened a whole table at a time, in the order shape,
    diagonal, symmetry, positivity, triangle.  A table of exact
    ``Fraction``s is kept as it is; in any other table each entry that is
    not one is read by ``_as_fraction``, which refuses the first bad entry
    in row order.  Symmetry is screened by identity, since the readers put
    one object on both sides of the diagonal, and by exact
    ``as_integer_ratio`` pairs only when some mirrored pair is two objects.
    Only the lower triangle is scaled to integers, by the lcm of its
    denominators: scaling by a positive constant keeps every equality and
    comparison, so positivity and dullness compare integers, never two
    Fractions.  When a screen fails, ``_first_fault`` walks the pairs to
    name the first fault in row order.

    Once those hold, a dull table (every distance at most twice the least)
    has no failing triple: d(x,z) <= max <= 2 min <= d(x,y) + d(y,z), and
    a triple with a repeated index cannot fail.  So the triangle check runs
    only on a table that is not dull, and over i < k only: a failure at
    (i, j, k) with i > k mirrors one at (k, j, i) that comes earlier, so
    the failure reported is still the first in i-j-k order.  It compares
    integers too: the upper triangle is scaled by the same lcm, which
    symmetry makes a multiple of every denominator there."""
    m = len(d)
    if m < 1 or any(len(row) != m for row in d):
        raise MetricError("metric/shape", "distance table must be square and non-empty")
    t = tuple(map(tuple, d))
    if {*map(type, chain.from_iterable(t))} != {Fraction}:
        t = tuple(
            tuple(v if type(v) is Fraction else _as_fraction(v, i, j) for j, v in enumerate(row))
            for i, row in enumerate(t)
        )
    below = [q for i, row in enumerate(t) for q in row[:i]]
    scale = lcm(*{q.denominator for q in below})
    values = [a * (scale // b) for a, b in map(Fraction.as_integer_ratio, below)]
    symmetric = all(map(is_, chain.from_iterable(t), chain.from_iterable(zip(*t)))) or all(
        map(
            eq,
            map(Fraction.as_integer_ratio, below),
            (q.as_integer_ratio() for i, column in enumerate(zip(*t)) for q in column[:i]),
        )
    )
    least = min(values, default=1)
    if any(row[i] for i, row in enumerate(t)) or not symmetric or least <= 0:
        _first_fault(t, values)
    dull = not values or max(values) <= 2 * least
    if not dull:
        # Row i is its part of ``values``, 0, and d(i,k) for k > i scaled
        # afresh rather than read back from ``values``: integers that lie in
        # row order in memory make the cubic loop about a tenth faster at
        # m = 800.
        s = [
            values[i * (i - 1) // 2 : i * (i + 1) // 2] + [0]
            + [a * (scale // b) for a, b in map(Fraction.as_integer_ratio, row[i + 1 :])]
            for i, row in enumerate(t)
        ]
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
    return t, values, dull


def _first_fault(t: Metric, values: list[int]) -> None:
    """Raise the first fault among the diagonal, symmetry and positivity
    axioms, pair by pair in row order.  A pair that passes symmetry has
    d(i,j) = d(j,i), so its sign is read from the scaled lower triangle."""
    for i, row in enumerate(t):
        if row[i]:
            raise MetricError("metric/diagonal", f"d({i},{i}) must be 0")
        for j in range(i + 1, len(t)):
            a, b = row[j], t[j][i]
            if a is not b and a.as_integer_ratio() != b.as_integer_ratio():
                raise MetricError("metric/symmetry", f"d({i},{j}) != d({j},{i})")
            if values[j * (j - 1) // 2 + i] <= 0:
                raise MetricError("metric/positivity", f"d({i},{j}) must be positive")


def validate_metric(d: Sequence[Sequence[object]]) -> Metric:
    """Normalize to a Fraction table, raising MetricError naming the first
    axiom that fails: shape, diagonal, symmetry, positivity, or triangle."""
    return _checked(d)[0]


def from_metric(d: Sequence[Sequence[object]]) -> EchelonedSpace:
    """Echelon a metric: pairs ordered by distance, ties merged."""
    return _compress(len(d), _checked(d)[1])[0]


def metrize_dull(space: EchelonedSpace) -> Metric:
    """The canonical dull metric realizing a space.

    Rank r becomes the distance 1 + r/(n+1): nonzero values sit strictly
    inside (1, 2), which makes every triangle inequality automatic and the
    result dull, and distinct ranks get distinct distances so the echelon
    round-trips exactly.  Such a metric needs no check, so building it
    takes quadratic time.
    """
    n = space.n
    levels = (Fraction(0),) + tuple(Fraction(n + 1 + r, n + 1) for r in range(1, n + 1))
    return tuple(tuple(levels[r] for r in row) for row in space.table)


def is_dull(d: Sequence[Sequence[object]]) -> bool:
    """Whether every distance is bounded by every sum of two nonzero ones.

    Validates the metric first.  Equivalent form used here: with t the
    smallest nonzero value, all values lie in [t, 2t]."""
    return _checked(d)[2]


def is_one_lipschitz(
    d_source: Sequence[Sequence[object]],
    d_target: Sequence[Sequence[object]],
    h: Sequence[int],
) -> bool:
    """Whether the point map never increases distances."""
    s = validate_metric(d_source)
    t = validate_metric(d_target)
    h = tuple(h)
    if len(h) != len(s) or any(not (_is_int(y) and 0 <= y < len(t)) for y in h):
        raise MorphismError("morphism/map", "point map does not fit the two metrics")
    m = len(s)
    return all(
        t[h[i]][h[j]] <= s[i][j] for i in range(m) for j in range(i + 1, m)
    )
