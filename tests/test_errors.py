"""Error codes that only a library call reaches: each is raised with its
code, its message and its exception type, one case per raising site."""

from fractions import Fraction

import pytest

from echelon import (
    ColouredGraph,
    Demand,
    EchelonedSpace,
    ExactLabel,
    limit_new,
    star_demand,
    witness_failure_probability,
)
from echelon.errors import DemandError, ValidationError


def _two_points():
    model = limit_new("deterministic", 0)
    model.limit_points(2)
    return model


HALF = Fraction(1, 2)

# id: (call, exception type, code, message)
CASES = {
    "star sets and colours differ in number": (
        lambda: star_demand([[0]], []),
        DemandError,
        "demand/shape",
        "one colour per vertex set required",
    ),
    "witness indices and sizes differ in number": (
        lambda: witness_failure_probability(HALF, [1], [], 1),
        DemandError,
        "demand/shape",
        "one size per colour index required",
    ),
    "negative witness set size": (
        lambda: witness_failure_probability(HALF, [1], [-1], 1),
        DemandError,
        "demand/shape",
        "set sizes must be non-negative integers",
    ),
    "demand not a Demand": (
        lambda: limit_new("deterministic", 0).ensure_witness("x"),
        DemandError,
        "demand/shape",
        "a Demand instance is required",
    ),
    "unknown demand entry": (
        lambda: _two_points().ensure_witness(Demand(((0, "x"),))),
        DemandError,
        "demand/shape",
        "unknown demand entry 'x'",
    ),
    "demanded point not materialized": (
        lambda: limit_new("deterministic", 0).ensure_witness(Demand(((0, ExactLabel(Fraction(1))),))),
        DemandError,
        "demand/point",
        "point 0 is not materialized",
    ),
    "star sets overlap": (
        lambda: star_demand([[0, 1], [1]], [1, 2]),
        DemandError,
        "demand/overlap",
        "demand sets must be pairwise disjoint",
    ),
    "point demanded twice": (
        lambda: _two_points().ensure_witness(Demand(((0, ExactLabel(1)), (0, ExactLabel(2))))),
        DemandError,
        "demand/duplicate",
        "point 0 demanded twice",
    ),
    "colour index 0": (
        lambda: witness_failure_probability(HALF, [0], [1], 1),
        DemandError,
        "demand/colour",
        "colour indices must be positive integers",
    ),
    "asymmetric table": (
        lambda: EchelonedSpace(2, 1, ((0, 1), (2, 0))),
        ValidationError,
        "space/symmetry",
        "table not symmetric at (0,1)",
    ),
    "nonzero diagonal": (
        lambda: EchelonedSpace(2, 1, ((1, 1), (1, 0))),
        ValidationError,
        "space/diagonal",
        "diagonal entry at point 0 must be 0",
    ),
    "incomparable edge colours": (
        lambda: ColouredGraph(3, (1, "a", 2)).colours,
        ValidationError,
        "graph/colours",
        "edge colours are not mutually comparable",
    ),
    "unknown limit mode": (
        lambda: limit_new("other", 0),
        ValidationError,
        "limit/mode",
        "unknown mode 'other'",
    ),
    "label of an unmaterialized pair": (
        lambda: limit_new("deterministic", 0).rank_label(0, 1),
        ValidationError,
        "limit/unmaterialized",
        "both points must be materialized",
    ),
}


@pytest.mark.parametrize("call, kind, code, message", CASES.values(), ids=CASES)
def test_each_library_only_code_is_raised_with_its_message(call, kind, code, message):
    with pytest.raises(kind) as e:
        call()
    assert (e.value.code, e.value.message) == (code, message)
