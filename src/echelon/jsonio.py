"""JSON documents: one registry maps each kind to its loader and dumper.

Every document carries the format tag ``echelon/1`` and a ``kind``.
Ranks and colours travel as integers, rationals as "p/q" strings, so no
value ever passes through floating point.  Every table a document holds
(a space's ``eta``, a graph's ``chi``, a metric's ``d``, a weights
document's ``w``) is a strict lower triangle, and one reader, ``_rows``,
reads them all, with the row parser as its parameter; a square table is
made only by ``space._colex_reader``.

``_KINDS`` covers ``space`` (ordered when it has an ``order`` key),
``metric``, ``graph``, ``weights`` and the composite kinds: ``space-list``
and the pass-through ``amalgam``, ``katetov``, ``bnf`` and ``report``,
which keep every key and normalize the documents embedded under
``space``, ``base``, ``left_space`` and ``right_space`` (not in a report).
``load_document`` is the one dispatcher on ``kind``, and ``validate`` is
load-then-dump through the same table.  A ``katetov`` document must embed
its base, and every claim it makes about K(base) is re-derived from it; a
false one is refused with ``katetov/claim``.  Every document, embedded ones
included, passes one header check first: it must be a JSON object, and a
format tag other than ``echelon/1`` is rejected for every kind (a missing
one is accepted).  Loaders ignore unknown keys.  ``map`` documents have a
loader but no registry entry, so ``validate`` rejects them.  ``dumps`` is
the one renderer of documents and diagnostics: its own emitter writes the
standard library's ``sort_keys=True, indent=2`` layout.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .colgraph import ColouredGraph
from .errors import ValidationError
from .katetov import KatetovChain, KatetovSpace, katetov_map, katetov_space
from .metrize import Metric, from_metric, validate_metric
from .ramsey import OrderedEchelonedSpace
from .rationals import exact_rational
from .space import EchelonedSpace, PointMap, _colex_reader, _is_int, _trusted, from_rank_table

FORMAT = "echelon/1"


def fraction_to_str(q: Fraction) -> str:
    """An exact rational, a ``Fraction`` or an int, as "p/q".  It is not
    converted first: every caller holds an exact value, and documents
    never hold floats."""
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: Any) -> Fraction:
    q = exact_rational(s)
    if q is None:
        raise ValidationError("json/rational", f"expected a 'p/q' string, got {s!r}")
    return q


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError("json/schema", message)


def _header(doc: Any, kinds) -> str:
    """Check that a document is an object, with our format tag if any and a kind among ``kinds``."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    tag = doc.get("format")
    if tag is not None and tag != FORMAT:
        raise ValidationError("json/format", f"unsupported format tag {tag!r}")
    kind = doc.get("kind")
    if not (isinstance(kind, str) and kind in kinds):  # not _require: one message per embedded document
        raise ValidationError("json/schema", f"expected kind {'/'.join(kinds)}, got {kind!r}")
    return kind


def _document(kind: str, **fields) -> dict:
    return {"format": FORMAT, "kind": kind, **fields}


def _fraction_rows(table: Sequence[Sequence[Fraction]]) -> list[list[str]]:
    return [[fraction_to_str(table[i][j]) for j in range(i)] for i in range(1, len(table))]


def _integer(x: Any) -> int:
    if _is_int(x):  # not _require: its message would be formatted for every entry
        return x
    raise ValidationError("json/schema", f"expected an integer entry, got {x!r}")


def _int_row(row: list) -> list:
    """A row of ``eta`` or ``chi``: an all-int row as it is, or refused at
    its first entry that is not an int."""
    if {*map(type, row)} <= {int}:
        return row
    return [_integer(x) for x in row]


def _fraction_row(row: list) -> list[Fraction]:
    return [fraction_from_str(x) for x in row]


def _rows(doc: dict, size: str, key: str, parse: Callable[[list], list]) -> tuple[int, list]:
    """The one table reader: the point count ``doc[size]`` and the rows of
    ``doc[key]``, a strict lower triangle whose row i lists the entries
    against points 0..i-1, each parsed by ``parse`` and concatenated in
    ``_colex_pairs`` order: (0,1), (0,2), (1,2), (0,3), ...  Shapes and
    entries are checked row by row, so the first fault is the one refused."""
    m = doc.get(size)
    _require(_is_int(m) and m >= 1, f"{size} must be a positive integer")
    rows = doc.get(key)
    _require(isinstance(rows, list) and len(rows) == m - 1, f"{key} needs {m - 1} rows")
    values: list = []
    for i, row in enumerate(rows, start=1):
        if not (isinstance(row, list) and len(row) == i):  # not _require: no message formatted per row
            raise ValidationError("json/schema", f"{key} row {i} needs {i} entries")
        values += parse(row)
    return m, values


def _space(doc: dict) -> EchelonedSpace:
    """The one check a space document gets: ``_rows`` checks the shape and
    the entries, and the ranks must be exactly 1..n."""
    m, eta = _rows(doc, "points", "eta", _int_row)
    ranks = {*eta}
    n = len(ranks)
    table = _colex_reader(m)(eta)
    if ranks and (min(ranks) != 1 or max(ranks) != n):
        from_rank_table(table)  # raises, naming the first pair out of place
    declared = doc.get("ranks")
    if declared is not None and not (_is_int(declared) and declared == n):
        raise ValidationError("json/schema", f"declared ranks {declared} but table has {n}")
    return _trusted(m, n, table)


def _ordered_space(doc: dict) -> OrderedEchelonedSpace:
    space = _space(doc)
    order = list(range(space.m)) if doc.get("order") is None else doc["order"]
    _require(isinstance(order, list) and all(_is_int(x) for x in order), "order must be a list of integers")
    return OrderedEchelonedSpace(space, tuple(order))


def _load_space(doc: dict):
    return _ordered_space(doc) if "order" in doc else _space(doc)


def space_to_json(space: EchelonedSpace, order: Optional[tuple[int, ...]] = None) -> dict:
    table = space.table
    eta = [list(table[i][:i]) for i in range(1, space.m)]
    doc = _document("space", points=space.m, ranks=space.n, eta=eta)
    if order is not None:
        doc["order"] = list(order)
    return doc


def _dump_space(space) -> dict:
    if isinstance(space, OrderedEchelonedSpace):
        return space_to_json(space.space, order=space.order)
    return space_to_json(space)


def _metric(doc: dict) -> Metric:
    return validate_metric(_weights(doc, "d"))


def _dump_metric(d: Metric) -> dict:
    """Render a metric the caller has already checked."""
    return _document("metric", points=len(d), d=_fraction_rows(d))


def metric_to_json(d: Metric) -> dict:
    return _dump_metric(validate_metric(d))


def _graph(doc: dict) -> ColouredGraph:
    return ColouredGraph(*_rows(doc, "v", "chi", _int_row))


def graph_to_json(g: ColouredGraph) -> dict:
    """The flat ``chi`` is the document's rows concatenated: row i is chi[i(i-1)/2 : i(i+1)/2]."""
    chi = [list(g.chi[i * (i - 1) // 2 : i * (i + 1) // 2]) for i in range(1, g.v)]
    return _document("graph", v=g.v, colours=list(g.colours), chi=chi)


def _weights(doc: dict, key: str = "w") -> tuple[tuple[Fraction, ...], ...]:
    """The symmetric table of a weights (or metric) document; its diagonal is the int 0."""
    m, values = _rows(doc, "points", key, _fraction_row)
    return _colex_reader(m)(values)


def weights_to_json(w: Sequence[Sequence[Fraction]]) -> dict:
    return _document("weights", points=len(w), w=_fraction_rows(w))


def _space_list(doc: dict) -> list[dict]:
    spaces = doc.get("spaces")
    _require(isinstance(spaces, list), "space-list needs a spaces array")
    return [validate(member) for member in spaces]


def space_list_to_json(members: list[dict]) -> dict:
    return _document("space-list", spaces=members)


def chain_to_json(chain: KatetovChain) -> list[str]:
    """The chain's labels as strings, their parts joined by colons."""
    return [":".join(str(part) for part in label) for label in chain.labels]


def _composite(doc: dict) -> dict:
    embedded = ("space", "base", "left_space", "right_space")
    return {k: validate(v) if k in embedded and v is not None else v for k, v in doc.items()}


def _claim(doc: dict, key: str, expected: Any, where: str = "") -> None:
    """Refuse a present ``doc[key]`` that is not the JSON value ``expected``;
    comparing the renderings keeps true apart from 1 and 1.0 apart from 1."""
    if key in doc and json.dumps(doc[key]) != json.dumps(expected):
        raise ValidationError("katetov/claim", f"{where}{key} is not what the base gives")


def _derived(kx: KatetovSpace) -> dict:
    """The fields a katetov document derives from its base alone, in the
    order its validator checks them: chain, width, ranks, points, lambda."""
    return {
        "chain": chain_to_json(kx.chain),
        "width": kx.width,
        "ranks": kx.n,
        "points": kx.m,
        "lambda": list(kx.identity_embedding()),
    }


def _katetov(doc: dict) -> dict:
    """A katetov document passed through, after each claim it makes is
    re-derived from its base: the chain, width, ranks and point count of
    K(base), the identity embedding, the point count of an embedded K(X)
    table, the values of a functor action, recomputed by ``katetov_map``
    from the target and the images of the base points, and an extension's g."""
    out = _composite(doc)
    kx = katetov_space(space_from_json(out.get("base")))
    for key, expected in _derived(kx).items():
        _claim(out, key, expected)
    if out.get("space") is not None:
        _claim(out["space"], "points", kx.m, "space ")
    action = out.get("map")
    if action is not None:
        _require(isinstance(action, dict), "map must be an object with a target and values")
        ky = katetov_space(space_from_json(action.get("target")))
        values = action.get("values")
        _require(isinstance(values, list) and all(_is_int(v) for v in values), "map values must be point ids")
        _claim(action, "values", list(katetov_map(kx, ky, values[: kx.base.m])), "map ")
    extension = out.get("extension")
    if extension is not None:
        m = kx.base.m
        g = extension.get("g") if isinstance(extension, dict) else None
        shaped = isinstance(g, list) and len(g) == m + 1 and all(map(_is_int, g))
        _require(shaped, f"extension must be an object whose g lists {m + 1} point ids")
        if g[:m] != list(kx.identity_embedding()) or not m <= g[m] < kx.m:
            raise ValidationError("katetov/claim", "extension g is not what the base gives")
    return out


def _tagged(doc: dict) -> dict:
    return {**doc, "format": FORMAT}


_KINDS: dict[str, tuple[Callable[[dict], Any], Callable[[Any], dict]]] = {
    "space": (_load_space, _dump_space),
    "metric": (_metric, _dump_metric),
    "graph": (_graph, graph_to_json),
    "weights": (_weights, weights_to_json),
    "space-list": (_space_list, space_list_to_json),
    "amalgam": (_composite, _tagged),
    "katetov": (_katetov, _tagged),
    "bnf": (_composite, _tagged),
    "report": (dict, _tagged),
}


def _load(doc: Any, kinds=_KINDS) -> tuple[str, Any]:
    kind = _header(doc, kinds)
    try:
        return kind, _KINDS[kind][0](doc)
    except RecursionError:  # composites embed documents, so loading recurses
        raise ValidationError("json/depth", "documents are nested too deeply") from None


def load_document(doc: Any):
    """Load a parsed document of any registered kind."""
    return _load(doc)[1]


def validate(doc: Any) -> dict:
    """Load a document and dump it again: the normalized document."""
    kind, value = _load(doc)
    return _KINDS[kind][1](value)


def space_from_json(doc: Any) -> EchelonedSpace:
    """A space document as an unordered space; any ``order`` is ignored."""
    _header(doc, ("space",))
    return _space(doc)


def ordered_space_from_json(doc: Any) -> OrderedEchelonedSpace:
    """A space document as an ordered space; no ``order`` means the identity."""
    _header(doc, ("space",))
    return _ordered_space(doc)


def metric_from_json(doc: Any) -> Metric:
    return _load(doc, ("metric",))[1]


def space_from_metric_json(doc: Any) -> EchelonedSpace:
    """The echelon of a ``metric`` document; ``from_metric`` validates the
    distances, so they are checked once."""
    _header(doc, ("metric",))
    return from_metric(_weights(doc, "d"))


def graph_from_json(doc: Any) -> ColouredGraph:
    return _load(doc, ("graph",))[1]


def weights_from_json(doc: Any) -> tuple[int, dict]:
    """Pair weights of a ``weights`` document, or the distances of a valid ``metric`` document."""
    w = _load(doc, ("weights", "metric"))[1]
    return len(w), {(j, i): w[i][j] for i in range(1, len(w)) for j in range(i)}


def map_from_json(doc: Any) -> tuple[Optional[EchelonedSpace], PointMap]:
    """A bare list of point ids, or a ``map`` document with an optional ``target`` space."""
    target = None
    if not isinstance(doc, list):
        _header(doc, ("map",))
        if doc.get("target") is not None:
            target = space_from_json(doc["target"])
        doc = doc.get("map")
    _require(isinstance(doc, list) and all(_is_int(x) for x in doc), "map must be a list of point ids")
    return target, tuple(doc)


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS: dict[type, Callable[[Any], str]] = {str: _encode_str, int: int.__repr__}


def dumps(doc: Any) -> str:
    """Deterministic rendering: sorted keys, two-space indent, one trailing
    newline; the bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` and
    a newline.  A document ``_render`` cannot take, one with a key that is
    not a string, nested deeper than the recursion limit or holding a value
    JSON has no form for, goes to that call, which renders it or raises."""
    try:
        return _render(doc, "\n") + "\n"
    except (TypeError, RecursionError):
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _render(x: Any, newline: str) -> str:
    """The JSON text of ``x``, its lines after the first starting with ``newline``."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = newline + "  "
        items = []
        for key, value in sorted(x.items()):
            encode = _SCALARS.get(type(value))
            items.append(_encode_str(key) + ": " + (encode(value) if encode else _render(value, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = newline + "  "
        if type(x) is not list:
            x = list(x)
        if {*map(type, x)} == {int}:  # a bool is not an int here
            return "[" + inner + repr(x)[1:-1].replace(", ", "," + inner) + newline + "]"
        return "[" + inner + ("," + inner).join([_render(item, inner) for item in x]) + newline + "]"
    if isinstance(x, str):
        return _encode_str(x)
    return repr(x) if type(x) is int else json.dumps(x)  # bool, None, float, int subclasses
