"""Wire format: tagged documents, rationals as strings, deterministic dumps."""

import json
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echelon import (
    ColouredGraph,
    EchelonedSpace,
    OrderedEchelonedSpace,
    enumerate_spaces,
    from_weights,
    jsonio,
    metrize_dull,
    validate_metric,
)
from echelon.colgraph import GeometricColouring, random_coloured_graph
from echelon.errors import EchelonError, MetricError, ValidationError
from echelon.jsonio import (
    FORMAT,
    dump,
    dumps,
    fraction_from_str,
    fraction_to_str,
    graph_to_json,
    load_document,
    map_from_json,
    ordered_space_from_json,
    space_from_json,
    space_from_weights_json,
    space_list_to_json,
    space_to_json,
    validate,
)
from echelon.prng import SplitMix64Stream

from helpers import (
    random_space,
    reference_dumps,
    reference_graph_from_json,
    reference_render,
    reference_space_from_json,
    reference_space_list,
    reference_table,
)
from test_cli_fuzz import ODD_VALUES, _paths

FIX = from_weights(3, {(0, 1): 2, (0, 2): 4, (1, 2): 4})


def test_fraction_strings():
    assert fraction_to_str(Fraction(3, 2)) == "3/2"
    assert fraction_to_str(Fraction(5)) == "5/1"
    assert fraction_to_str(Fraction(-6, 4)) == "-3/2"
    assert fraction_to_str(5) == "5/1"  # an int is an exact rational with denominator 1
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
    doc = jsonio._dump_metric(d)
    # rows are the strict lower triangle: row i lists d(i, 0..i-1)
    assert doc["d"][0][0] == fraction_to_str(d[1][0])
    assert jsonio._load(json.loads(dumps(doc)), ("metric",))[1] == d


def test_metric_rejects_axiom_violations():
    doc = jsonio._dump_metric(metrize_dull(FIX))
    doc["d"][1][0] = "9/1"
    with pytest.raises(MetricError):
        jsonio._load(doc, ("metric",))  # triangle inequality


def test_graph_roundtrip():
    g = ColouredGraph(3, (2, 1, 1))
    doc = graph_to_json(g)
    assert doc["kind"] == "graph"
    assert jsonio._load(json.loads(dumps(doc)), ("graph",))[1] == g


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
    assert load_document(jsonio._dump_metric(metrize_dull(FIX))) == metrize_dull(FIX)
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
        jsonio._dump_metric(metrize_dull(FIX)),
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
    metric = jsonio._dump_metric(metrize_dull(FIX))
    for load in (space_from_json, ordered_space_from_json, lambda doc: jsonio._load(doc, ("graph",))):
        with pytest.raises(ValidationError) as e:
            load(metric)
        assert e.value.code == "json/schema"
    with pytest.raises(ValidationError):
        jsonio._load(space_to_json(FIX), ("metric",))
    with pytest.raises(ValidationError):
        jsonio._load("metric", ("metric",))


def test_space_from_weights_json_reads_weights_and_metrics():
    weights = {"kind": "weights", "points": 3, "w": [["2"], ["4", "4/1"]]}
    assert space_from_weights_json(weights) == FIX
    metric = jsonio._dump_metric(metrize_dull(FIX))
    assert space_from_weights_json(metric) == space_from_weights_json(metric, ("metric",)) == FIX
    assert space_from_weights_json({"kind": "weights", "points": 1, "w": []}) == from_weights(1, {})
    broken = {"kind": "metric", "points": 3, "d": [["1"], ["5", "1"]]}
    with pytest.raises(MetricError) as e:
        space_from_weights_json(broken)
    assert e.value.code == "metric/triangle"
    with pytest.raises(ValidationError):
        space_from_weights_json(space_to_json(FIX))
    with pytest.raises(ValidationError, match="expected kind metric, got 'weights'"):
        space_from_weights_json(weights, ("metric",))


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


class Int(int):
    """An int subclass: JSON writes its value, never its own ``repr``."""

    def __repr__(self):
        return "Int()"


class Str(str):
    """A str subclass: JSON writes its characters, never its own ``str``."""

    def __str__(self):
        return "Str()"


KEYS = st.text() | st.sampled_from(["%", "%s", "a%%b", "%(k)s"]) | st.text().map(Str)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-1)
    | st.integers().map(Int)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text()
    | st.text().map(Str)
)


def rows(item):
    """Lists of rows, empty rows included, with tuples beside lists."""
    row = st.lists(item, max_size=4)
    return st.lists(row | row.map(tuple), max_size=5)


def same_keyed(inner):
    """Lists of objects that share their keys, or that differ in whether
    they hold the first key; no keys at all gives a column of ``{}``."""
    return st.lists(KEYS, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(
            st.fixed_dictionaries({k: inner for k in keys[1:]}, optional={k: inner for k in keys[:1]}), max_size=5
        )
    )


INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-1)
# Columns of int tables, as a space list's ``eta`` column is: all of them
# non-empty lists of non-empty lists of ints, or with an empty table or row,
# a bool among the ints, or a tuple beside the lists.
INT_TABLES = st.lists(st.lists(st.lists(INTS, min_size=1, max_size=4), min_size=1, max_size=4), min_size=1, max_size=5)
INT_TABLES |= st.lists(rows(INTS | st.booleans()), max_size=5)

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(KEYS, inner)
    | st.lists(st.integers(), min_size=1)
    | st.lists(st.integers(), min_size=1).map(tuple)
    | st.lists(st.integers() | st.booleans())
    | rows(st.integers())
    | rows(st.text())
    | rows(st.integers() | st.booleans())
    | rows(inner)
    | INT_TABLES
    | same_keyed(inner),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([{"%": 1, "a%%b": "x", "%(k)s": []}, {"%": 2, "a%%b": "y", "%(k)s": [1]}])
@example([{"a": 1, "b": [2]}, {"a": 1, "c": [2]}, {"a": 1}])
@example([[], [1, 2], (3,), [-(2**70)]])
@example([["a"], [], ("b", "c")])
@example([[1, True], [False], [0]])
@example([[1, 2], [], [3]])
@example([[], [4], []])
@example([(1, 2), (3,)])
@example(([5], [6, 7]))
@example(([8],))
@example([[0, 1], [2, True]])
@example([[-1, -(2**63)], [-(2**64) - 1, 0]])
@example([[2**64, 2**64 - 1], [2**70 + 1, -(2**200)]])
@example([{}, {}, {}])
@example([{"k": {}}, {"k": {"x": [[], ["y"]]}}])
@example([[[1], [2, 3]], [[-4]], [[2**70, -(2**70)]]])
@example([[[1]], [], [[2]]])
@example([[[1], []], [[2]]])
@example([[[1, True]], [[0]]])
@example([[(1,), [2, 3]], [[4]]])
@example([([1],), [[2]]])
@example(([[0]],))
@example({"spaces": [{"eta": [[1], [1, 1]], "kind": "space"}, {"eta": [[2], [1, 2]], "kind": "space"}]})
@example([[Int(1), Int(2)], [Str("a"), Str("b")], {Str("k"): Int(3)}, [[Int(4)], (Str("c"),)]])
def test_dumps_equals_the_stdlib_rendering(doc):
    """Every key is a string, so the column renderer writes these bytes
    itself and the stdlib fallback is never taken."""
    expected = reference_dumps(doc)
    assert dumps(doc) == expected == reference_render(doc, "\n") + "\n"
    assert jsonio._column([doc], "\n") == [expected[:-1]]


@settings(max_examples=100, deadline=None)
@given(JSON_VALUES | st.dictionaries(KEYS, JSON_VALUES))
@example({"spaces": [{"eta": [[1], [1, 1]], "kind": "space"}, {"eta": [[2], [1, 2]], "kind": "space"}]})
@example({"a": [], "b": (1, "x"), "c": {"d": [2, 3]}, "e": [[4], []], "f": None})
@example({})
def test_the_chunks_of_dump_join_to_dumps(doc):
    """``dump`` writes the text of ``dumps``, one chunk per item of each
    list that an object holds at its top level, or one chunk when there is
    none."""
    chunks = []
    dump(doc, chunks.append)
    assert "".join(chunks) == dumps(doc)
    lists = [v for v in doc.values() if isinstance(v, (list, tuple))] if isinstance(doc, dict) else []
    assert len(chunks) == max(sum(map(len, lists)), 1)


def test_dump_holds_one_copy_of_the_text_and_dumps_two():
    """Traced peaks above a 1,024-vertex graph document (4.7 MB of text):
    ``dump`` into a writer that discards its input holds the rows and no
    whole text (1.36x the text), and ``dumps`` the rows and their join
    (2.01x).  Joining the whole text again inside ``dump``, or copying it
    once more inside ``dumps``, fails these bounds."""
    doc = graph_to_json(random_coloured_graph(1024, GeometricColouring(Fraction(1, 2), 0)))
    text = len(dumps(doc))
    peaks = []
    tracemalloc.start()
    try:
        for render in (lambda: dump(doc, lambda chunk: None), lambda: dumps(doc)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            render()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 1.5 * text and peaks[1] <= 2.1 * text, (peaks, text)


def test_the_renderer_makes_as_many_calls_for_4683_spaces_as_for_13(monkeypatch):
    """``_column`` takes a whole column per call, so the calls of both
    renderers for a space list depend on its shape, not on how many spaces
    it holds: ``_object`` once for the document, and ``_column`` once for
    the ``spaces`` column, once per member key and once for the rows of
    every member's ``eta``."""
    calls = []

    def counted(name):
        function = getattr(jsonio, name)

        def call(x, *newline):
            calls.append((name, len(x) if name == "_column" else 1))
            return function(x, *newline)

        monkeypatch.setattr(jsonio, name, call)

    counted("_object")
    counted("_column")
    counts = []
    for m, spaces in ((3, 13), (4, 4683)):
        doc = space_list_to_json([space_to_json(sp) for sp in enumerate_spaces(m)])
        calls.clear()
        assert dumps(doc) == reference_dumps(doc)
        assert max(size for _, size in calls) == spaces * (m - 1)  # every member's rows, one column of int rows
        counts.append(sorted(Counter(name for name, _ in calls).items()))
    assert counts[0] == counts[1] == [("_column", 7), ("_object", 1)]


@pytest.mark.parametrize(
    "doc",
    [
        {1: [1, 2], 10: {"a": None}, 2: True},
        {"outer": {None: (2, 3)}},
        [{"x": {1.5: [()]}}],
        [[{False: [1, True]}]],
    ],
)
def test_dumps_hands_keys_that_are_not_strings_to_the_stdlib(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc", [{"a": 1, 2: "b"}, {"q": [1, Fraction(1, 2)]}, [1, {"s": {3}}]])
def test_dumps_raises_what_the_stdlib_raises(doc):
    with pytest.raises(TypeError) as expected:
        reference_dumps(doc)
    with pytest.raises(TypeError) as got:
        dumps(doc)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("depth", [300, 800])
def test_dumps_renders_documents_as_deep_as_the_stdlib_does(depth):
    """Past the emitter's recursion limit (a few hundred levels) the stdlib
    renders the document, as deep as it reaches."""
    deep = 1
    for level in range(depth):
        deep = [deep, "x"] if level % 2 else {"k": deep}
    assert dumps(deep) == reference_dumps(deep)


def _outcome(read, doc):
    try:
        return read(doc)
    except ValidationError as exc:
        return exc.code, exc.message


# (document fields, the code it is refused with or None)
SPACE_CASES = {
    "m=1": ({"points": 1, "eta": []}, None),
    "m=2": ({"points": 2, "eta": [[1]]}, None),
    "m=4": ({"points": 4, "eta": [[2], [1, 3], [3, 1, 2]], "ranks": 3}, None),
    "bool entry": ({"points": 2, "eta": [[True]]}, "json/schema"),
    "float entry": ({"points": 3, "eta": [[1], [1, 1.0]]}, "json/schema"),
    "string entry": ({"points": 2, "eta": [["1"]]}, "json/schema"),
    "rank 0": ({"points": 3, "eta": [[1], [0, 1]]}, "space/offdiag"),
    "negative rank": ({"points": 2, "eta": [[-1]]}, "space/offdiag"),
    "gap": ({"points": 3, "eta": [[1], [3, 3]]}, "space/surjective"),
    "gap past the largest int range": ({"points": 2, "eta": [[10**30]]}, "space/surjective"),
    "short row": ({"points": 3, "eta": [[1], [1]]}, "json/schema"),
    "row not a list": ({"points": 3, "eta": [[1], 2]}, "json/schema"),
    "too few rows": ({"points": 3, "eta": [[1]]}, "json/schema"),
    "entry before a later short row": ({"points": 4, "eta": [[1], [1, "x"], [1]]}, "json/schema"),
    "short row before a later rank 0": ({"points": 4, "eta": [[1], [1], [0, 1, 1]]}, "json/schema"),
    "missing eta": ({"points": 3}, "json/schema"),
    "points 0": ({"points": 0, "eta": []}, "json/schema"),
    "points true": ({"points": True, "eta": []}, "json/schema"),
    "declared ranks wrong": ({"points": 2, "eta": [[1]], "ranks": 2}, "json/schema"),
    "declared ranks a string": ({"points": 2, "eta": [[1]], "ranks": "1"}, "json/schema"),
    "declared ranks a float": ({"points": 3, "eta": [[1], [2, 2]], "ranks": 2.0}, "json/schema"),
    "declared ranks after a gap": ({"points": 3, "eta": [[1], [3, 3]], "ranks": 1}, "space/surjective"),
}


@pytest.mark.parametrize("fields, code", SPACE_CASES.values(), ids=SPACE_CASES)
def test_space_reader_matches_the_checked_path(fields, code):
    """One check per space refuses what the old three did, with the same
    code and message, from the same first fault."""
    doc = {"kind": "space", **fields}
    got = _outcome(jsonio._space, doc)
    assert got == _outcome(reference_space_from_json, doc)
    assert (got[0] if isinstance(got, tuple) else None) == code


GRAPH_CASES = {
    "v=1": {"v": 1, "chi": []},
    "v=3": {"v": 3, "chi": [[2], [0, -5]]},
    "bool entry": {"v": 2, "chi": [[False]]},
    "short row": {"v": 3, "chi": [[1], [1]]},
    "entry before a later short row": {"v": 4, "chi": [[1], [1, None], [1]]},
    "missing chi": {"v": 2},
    "v 0": {"v": 0, "chi": []},
}


@pytest.mark.parametrize("fields", GRAPH_CASES.values(), ids=GRAPH_CASES)
def test_graph_reader_matches_the_table_path(fields):
    doc = {"kind": "graph", **fields}
    assert _outcome(jsonio._graph, doc) == _outcome(reference_graph_from_json, doc)


def _table_outcome(read, doc):
    """A table read as a list of lists, so tuples and lists compare, or the
    code and message it is refused with."""
    try:
        return [list(row) for row in read(doc)]
    except EchelonError as exc:
        return exc.code, exc.message


def _reference_weights(doc, key):
    return reference_table(doc, "points", key, fraction_from_str, Fraction(0))


# (document fields, the code it is refused with or None)
METRIC_CASES = {
    "m=1": ({"points": 1, "d": []}, None),
    "m=3": ({"points": 3, "d": [["2"], ["4", "4/1"]]}, None),
    "int entry": ({"points": 2, "d": [[3]]}, None),
    "bool entry": ({"points": 2, "d": [[True]]}, "json/rational"),
    "float entry": ({"points": 3, "d": [["1"], ["1", 1.0]]}, "json/rational"),
    "non-string entry": ({"points": 2, "d": [[None]]}, "json/rational"),
    "zero denominator": ({"points": 2, "d": [["1/0"]]}, "json/rational"),
    "exponent": ({"points": 2, "d": [["1e3"]]}, "json/rational"),
    "short row": ({"points": 3, "d": [["1"], ["1"]]}, "json/schema"),
    "row not a list": ({"points": 3, "d": [["1"], "1"]}, "json/schema"),
    "entry before a later short row": ({"points": 4, "d": [["1"], ["1", "x"], ["1"]]}, "json/rational"),
    "points 0": ({"points": 0, "d": []}, "json/schema"),
    "points true": ({"points": True, "d": []}, "json/schema"),
    "too few rows": ({"points": 3, "d": [["1"]]}, "json/schema"),
    "missing d": ({"points": 2}, "json/schema"),
    "zero distance": ({"points": 2, "d": [["0"]]}, "metric/positivity"),
    "triangle": ({"points": 3, "d": [["1"], ["5", "1"]]}, "metric/triangle"),
}


@pytest.mark.parametrize("fields, code", METRIC_CASES.values(), ids=METRIC_CASES)
def test_metric_reader_matches_the_table_path(fields, code):
    doc = {"kind": "metric", **fields}
    got = _table_outcome(jsonio._metric, doc)
    assert got == _table_outcome(lambda doc: validate_metric(_reference_weights(doc, "d")), doc)
    assert (got[0] if isinstance(got, tuple) else None) == code


WEIGHTS_CASES = {
    "m=1": ({"points": 1, "w": []}, None),
    "m=3, no metric": ({"points": 3, "w": [["1/2"], ["5", "0"]]}, None),
    "int entry": ({"points": 2, "w": [[-3]]}, None),
    "bool entry": ({"points": 2, "w": [[False]]}, "json/rational"),
    "float entry": ({"points": 2, "w": [[0.5]]}, "json/rational"),
    "non-string entry": ({"points": 2, "w": [[["1"]]]}, "json/rational"),
    "zero denominator": ({"points": 3, "w": [["1"], ["1/0", "1"]]}, "json/rational"),
    "exponent": ({"points": 2, "w": [["1e3"]]}, "json/rational"),
    "short row": ({"points": 3, "w": [["1"], []]}, "json/schema"),
    "row not a list": ({"points": 2, "w": [{"0": "1"}]}, "json/schema"),
    "entry before a later short row": ({"points": 4, "w": [["1"], [None, "1"], ["1", "1"]]}, "json/rational"),
    "points 0": ({"points": 0, "w": []}, "json/schema"),
    "points true": ({"points": True, "w": []}, "json/schema"),
    "too few rows": ({"points": 4, "w": [["1"], ["1", "1"]]}, "json/schema"),
    "missing w": ({"points": 3}, "json/schema"),
}


@pytest.mark.parametrize("fields, code", WEIGHTS_CASES.values(), ids=WEIGHTS_CASES)
def test_weights_reader_matches_the_table_path(fields, code):
    doc = {"kind": "weights", **fields}
    got = _table_outcome(jsonio._weights, doc)
    assert got == _table_outcome(lambda doc: _reference_weights(doc, "w"), doc)
    assert (got[0] if isinstance(got, tuple) else None) == code


def test_validate_of_the_enumerated_spaces_runs_no_space_check(monkeypatch):
    """The parent checked each of the 4,683 spaces in ``__post_init__`` after
    ``from_rank_table`` had; now the one check in ``_space`` is all."""
    doc = json.loads(dumps(space_list_to_json([space_to_json(sp) for sp in enumerate_spaces(4)])))
    calls = []
    check = EchelonedSpace.__post_init__

    def counting(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(EchelonedSpace, "__post_init__", counting)
    EchelonedSpace(1, 0, ((0,),))
    assert len(calls) == 1
    calls.clear()
    assert len(validate(doc)["spaces"]) == 4683
    assert calls == []


def _enumerated(m):
    """The ``enumerate --m m`` document as the CLI reads it back."""
    return json.loads(dumps(space_list_to_json([space_to_json(sp) for sp in enumerate_spaces(m)])))


def _same_as_the_reference(doc):
    got = _outcome(jsonio._space_list, doc)
    assert got == _outcome(reference_space_list, doc)
    return got


def _lists(spaces):
    """Every list a space list holds: each member's ``eta`` and its rows."""
    return [x for space in spaces for x in (space["eta"], *space["eta"])]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_screen_validates_the_enumerated_spaces_as_the_reference_does(m):
    """The screen takes the list, and what it writes shares no member, eta or row with its input."""
    doc = _enumerated(m)
    assert jsonio._screened(doc["spaces"]) is not None
    got = _same_as_the_reference(doc)
    assert not {*map(id, got + _lists(got))} & {*map(id, doc["spaces"] + _lists(doc["spaces"]))}


def test_every_single_field_mutation_of_a_space_list_matches_the_reference():
    """Each value of the 13-space list set to each odd value, and each
    deleted: the screen takes the list or hands it to the per-member path,
    and either way the result, or the code and message, is the reference's."""
    doc = _enumerated(3)
    outcomes = set()
    for *head, key in _paths(doc):
        for value in (*ODD_VALUES, delete := object()):
            mutated = json.loads(json.dumps(doc))
            parent = mutated
            for step in head:
                parent = parent[step]
            if value is delete:
                del parent[key]
            else:
                parent[key] = json.loads(json.dumps(value))
            got = _same_as_the_reference(mutated)
            outcomes.add(got[0] if isinstance(got, tuple) else "ok")
    assert outcomes >= {"ok", "json/schema", "json/format", "space/offdiag", "space/surjective"}


def _space_doc(rows, **extra):
    return {"kind": "space", "points": len(rows) + 1, "eta": rows, **extra}


class Doc(dict):
    """A dict subclass: a JSON object that the screen leaves to the per-member path."""


SPACE_LISTS = {
    "empty": [],
    "m=1 only": [_space_doc([]), _space_doc([], ranks=0)],
    "m=1 to 4 mixed": [_space_doc([]), _space_doc([[1]]), _space_doc([[1], [2, 1]]), _space_doc([[2], [1, 3], [3, 1, 2]])],
    "null ranks": [_space_doc([[1]], ranks=None), _space_doc([[1], [1, 1]], format=FORMAT, ranks=1)],
    "null tag": [_space_doc([[1]], format=None)],
    "ordered member": [_space_doc([[1]]), _space_doc([[1], [2, 1]], order=[2, 0, 1])],
    "order null": [_space_doc([[1]], order=None)],
    "a metric among spaces": [_space_doc([[1]]), {"kind": "metric", "points": 2, "d": [["1/1"]]}],
    "a dict subclass": [_space_doc([[1]]), Doc(_space_doc([[1], [1, 2]]))],
    "a bad dict subclass": [Doc(_space_doc([[2]]))],
    "an int subclass entry": [_space_doc([[Int(1)]])],
    "an int subclass point count": [_space_doc([[1]], points=Int(2))],
    "a tuple row": [_space_doc([(1,), [1, 1]])],
    "a str subclass kind": [_space_doc([[1]], kind=Str("space"))],
    "declared ranks true": [_space_doc([[1]], ranks=True)],
    "declared ranks wrong": [_space_doc([[1]]), _space_doc([[1], [2, 2]], ranks=3)],
    "rank 0 after a gap": [_space_doc([[2], [2, 2]]), _space_doc([[0]])],
    "gap": [_space_doc([[1], [3, 3]])],
    "three ranks, two below 1": [_space_doc([[-1], [0, 3]])],
    "points 0": [_space_doc([], points=0)],
    "huge points": [_space_doc([[1]], points=10**30)],
    "a space list inside": [{"kind": "space-list", "spaces": []}],
    "not a list": 7,
}
for key in ("kind", "format", "points", "ranks"):
    for value in ([], {}, [[1]], {"a": []}):
        SPACE_LISTS[f"unhashable {key} {value!r}"] = [_space_doc([[1]]), _space_doc([[1], [1, 1]], **{key: value})]


SCREENED = {"m=1 only", "m=1 to 4 mixed", "null ranks"}


@pytest.mark.parametrize("name", SPACE_LISTS)
def test_the_screen_matches_the_reference_on_odd_space_lists(name):
    spaces = SPACE_LISTS[name]
    _same_as_the_reference({"kind": "space-list", "spaces": spaces})
    if isinstance(spaces, list):
        assert (jsonio._screened(spaces) is not None) == (name in SCREENED)


def test_validate_of_the_enumerated_spaces_reads_no_table(monkeypatch):
    """The screen writes each member from its rows: no square table is read
    and no space is made, where the per-member path did both 4,683 times."""
    doc = _enumerated(4)
    calls = []
    for name in ("_colex_reader", "_trusted"):
        function = getattr(jsonio, name)
        monkeypatch.setattr(jsonio, name, lambda *args, f=function, name=name: calls.append(name) or f(*args))
    assert validate(doc)["spaces"] == reference_space_list(doc)
    assert calls.count("_colex_reader") == calls.count("_trusted") == 4683  # the reference, member by member
    calls.clear()
    assert len(validate(doc)["spaces"]) == 4683
    assert calls == []
