"""Wire format: tagged documents, rationals as strings, deterministic dumps."""

import json
from fractions import Fraction

import pytest

from echelon import (
    ColouredGraph,
    EchelonedSpace,
    OrderedEchelonedSpace,
    from_weights,
    metrize_dull,
)
from echelon.errors import MetricError, ValidationError
from echelon.jsonio import (
    FORMAT,
    dumps,
    fraction_from_str,
    fraction_to_str,
    graph_from_json,
    graph_to_json,
    load_document,
    map_from_json,
    metric_from_json,
    metric_to_json,
    ordered_space_from_json,
    space_from_json,
    space_to_json,
    validate,
    weights_from_json,
)
from echelon.prng import SplitMix64Stream

from helpers import random_space

FIX = from_weights(3, {(0, 1): 2, (0, 2): 4, (1, 2): 4})


def test_fraction_strings():
    assert fraction_to_str(Fraction(3, 2)) == "3/2"
    assert fraction_to_str(Fraction(5)) == "5/1"
    assert fraction_from_str("7/4") == Fraction(7, 4)
    # whole numbers are tolerated on input, never produced on output
    assert fraction_from_str("7") == Fraction(7)
    assert fraction_from_str(3) == Fraction(3)
    for bad in ("a/b", "1/0", None, "3/2/1", "-1/2x", True, 2.5):
        with pytest.raises(ValidationError):
            fraction_from_str(bad)


def test_space_roundtrip():
    stream = SplitMix64Stream(2)
    for _ in range(30):
        sp = random_space(stream, stream.randrange(5) + 1)
        doc = space_to_json(sp)
        assert doc["format"] == FORMAT
        assert doc["kind"] == "space"
        assert space_from_json(json.loads(dumps(doc))) == sp


def test_ordered_space_roundtrip():
    s = OrderedEchelonedSpace(FIX, (2, 0, 1))
    doc = space_to_json(s.space, order=s.order)
    back = ordered_space_from_json(doc)
    assert back == s
    # no order key: identity order
    assert ordered_space_from_json(space_to_json(FIX)).order == (0, 1, 2)


def test_declared_ranks_must_match_table():
    doc = space_to_json(FIX)
    doc["ranks"] = doc["ranks"] + 1
    with pytest.raises(ValidationError):
        space_from_json(doc)


@pytest.mark.parametrize("declared", [True, 1.0])
def test_declared_ranks_must_be_an_integer(declared):
    """A bool or float equal to the rank count is not the integer claim."""
    doc = {"kind": "space", "points": 2, "eta": [[1]], "ranks": declared}
    with pytest.raises(ValidationError) as info:
        space_from_json(doc)
    assert info.value.code == "json/schema"
    assert info.value.message == f"declared ranks {declared} but table has 1"
    assert space_from_json({**doc, "ranks": 1}).n == 1


def test_metric_roundtrip():
    d = metrize_dull(FIX)
    doc = metric_to_json(d)
    # rows are the strict lower triangle: row i lists d(i, 0..i-1)
    assert doc["d"][0][0] == fraction_to_str(d[1][0])
    assert metric_from_json(json.loads(dumps(doc))) == d


def test_metric_rejects_axiom_violations():
    doc = metric_to_json(metrize_dull(FIX))
    doc["d"][1][0] = "9/1"
    with pytest.raises(MetricError):
        metric_from_json(doc)  # triangle inequality


def test_metric_to_json_checks_the_metric():
    with pytest.raises(MetricError) as err:
        metric_to_json(((0, 1), (2, 0)))
    assert err.value.code == "metric/symmetry"


def test_graph_roundtrip():
    g = ColouredGraph(3, (2, 1, 1))
    doc = graph_to_json(g)
    assert doc["kind"] == "graph"
    assert graph_from_json(json.loads(dumps(doc))) == g


def test_format_tag_strict_when_present_lenient_when_absent():
    doc = space_to_json(FIX)
    doc["format"] = "other/9"
    with pytest.raises(ValidationError) as e:
        space_from_json(doc)
    assert e.value.code == "json/format"
    doc2 = space_to_json(FIX)
    del doc2["format"]
    assert space_from_json(doc2) == FIX


def test_unknown_keys_ignored():
    doc = space_to_json(FIX)
    doc["comment"] = ["anything"]
    assert space_from_json(doc) == FIX


def test_schema_errors():
    for doc in (
        [],
        {"kind": "space"},
        {"kind": "space", "points": 2, "ranks": 1},
        {"kind": "space", "points": 2, "ranks": 1, "eta": [[0]]},
        {"kind": "space", "points": "2", "ranks": 1, "eta": [[1]]},
    ):
        with pytest.raises(ValidationError):
            space_from_json(doc)


def test_load_document_dispatch():
    assert load_document(space_to_json(FIX)) == FIX
    assert load_document(metric_to_json(metrize_dull(FIX))) == metrize_dull(FIX)
    g = ColouredGraph(2, (3,))
    assert load_document(graph_to_json(g)) == g
    with pytest.raises(ValidationError):
        load_document({"format": FORMAT, "kind": "mystery"})


def test_dumps_is_byte_deterministic():
    doc = space_to_json(FIX)
    scrambled = dict(reversed(list(doc.items())))
    assert dumps(doc) == dumps(scrambled)
    assert dumps(doc).endswith("\n")
    assert dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_one_point_space_document():
    pt = EchelonedSpace(1, 0, ((0,),))
    doc = space_to_json(pt)
    assert doc["eta"] == []
    assert space_from_json(doc) == pt


def one_of_each_kind():
    ordered = space_to_json(FIX, order=(1, 2, 0))
    return [
        space_to_json(FIX),
        ordered,
        metric_to_json(metrize_dull(FIX)),
        graph_to_json(ColouredGraph(3, (2, 1, 1))),
        {"kind": "weights", "points": 3, "w": [["2"], ["4/2", "8/2"]]},
        {"kind": "space-list", "spaces": [ordered, {"kind": "report"}]},
        {"kind": "amalgam", "space": ordered, "g1": [0, 1], "g2": [1, 2]},
        {"kind": "katetov", "base": space_to_json(FIX), "space": None, "lambda": [0, 1, 2]},
        {"kind": "bnf", "left_space": space_to_json(FIX), "right_space": space_to_json(FIX)},
        {"kind": "report", "count": 2, "space": "not loaded"},
    ]


def test_validate_is_load_then_dump_for_every_kind():
    for doc in one_of_each_kind():
        out = validate(doc)
        assert out["format"] == FORMAT and out["kind"] == doc["kind"]
        assert validate(json.loads(dumps(out))) == out
    assert validate(space_to_json(FIX, order=(1, 2, 0)))["order"] == [1, 2, 0]


def test_every_kind_checks_the_format_tag():
    for doc in one_of_each_kind():
        with pytest.raises(ValidationError) as e:
            validate(dict(doc, format="echelon/2"))
        assert e.value.code == "json/format"


def test_load_document_composites():
    members = load_document({"kind": "space-list", "spaces": [space_to_json(FIX), {"kind": "report"}]})
    assert members == [space_to_json(FIX), {"format": FORMAT, "kind": "report"}]
    loaded = load_document({"kind": "amalgam", "space": space_to_json(FIX), "extra": 1})
    assert loaded == {"kind": "amalgam", "space": space_to_json(FIX), "extra": 1}


def test_typed_loaders_check_the_kind():
    metric = metric_to_json(metrize_dull(FIX))
    for load in (space_from_json, ordered_space_from_json, graph_from_json):
        with pytest.raises(ValidationError) as e:
            load(metric)
        assert e.value.code == "json/schema"
    with pytest.raises(ValidationError):
        metric_from_json(space_to_json(FIX))
    with pytest.raises(ValidationError):
        metric_from_json("metric")


def test_weights_from_json_reads_weights_and_metrics():
    weights = {"kind": "weights", "points": 3, "w": [["2"], ["4", "4/1"]]}
    m, w = weights_from_json(weights)
    assert m == 3 and w == {(0, 1): 2, (0, 2): 4, (1, 2): 4}
    assert from_weights(m, w) == FIX
    m, w = weights_from_json(metric_to_json(metrize_dull(FIX)))
    assert from_weights(m, w) == FIX
    assert weights_from_json({"kind": "weights", "points": 1, "w": []}) == (1, {})
    broken = {"kind": "metric", "points": 3, "d": [["1"], ["5", "1"]]}
    with pytest.raises(MetricError) as e:
        weights_from_json(broken)
    assert e.value.code == "metric/triangle"
    with pytest.raises(ValidationError):
        weights_from_json(space_to_json(FIX))


def test_map_from_json():
    assert map_from_json([2, 0, 1]) == (None, (2, 0, 1))
    doc = {"format": FORMAT, "kind": "map", "target": space_to_json(FIX), "map": [0, 2]}
    assert map_from_json(doc) == (FIX, (0, 2))
    assert map_from_json({"kind": "map", "map": []}) == (None, ())
    for bad, code in (
        (dict(doc, map=5), "json/schema"),
        (dict(doc, map=[0, True]), "json/schema"),
        (dict(doc, kind="space"), "json/schema"),
        (dict(doc, format="other/1"), "json/format"),
        (dict(doc, target={"kind": "metric"}), "json/schema"),
        ("0,1", "json/schema"),
    ):
        with pytest.raises(ValidationError) as e:
            map_from_json(bad)
        assert e.value.code == code
    with pytest.raises(ValidationError):
        validate(doc)  # maps have a loader but are not a registered kind
