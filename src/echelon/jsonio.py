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
load-then-dump through the same table, save for a ``space-list`` of
unordered spaces: it is screened by column and each member is written from
its own rows, with the result and the errors of the member-by-member path,
which takes any list the screen refuses.  A ``katetov`` document must embed
its base, and every claim it makes about K(base) is re-derived from it; a
false one is refused with ``katetov/claim``.  Every document, embedded ones
included, passes one header check first: it must be a JSON object, and a
format tag other than ``echelon/1`` is rejected for every kind (a missing
one is accepted).  Loaders ignore unknown keys.  ``map`` documents have a
loader but no registry entry, so ``validate`` rejects them.  ``dump`` and
``dumps`` are the one renderer of documents and diagnostics: they write
the standard library's ``sort_keys=True, indent=2`` layout.  ``_object``
lays out a top-level object key by key, and ``_column`` renders every
value below it, and a document that is not an object, a whole column of
values of one type per call.  Both take one list of chunks, one per row
of a top-level table: ``dump`` passes them to a writer one at a time, so
the whole text is never joined, and ``dumps`` joins them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, islice, repeat
from typing import Any, Callable, Optional, Sequence

from .colgraph import ColouredGraph
from .errors import ValidationError
from .katetov import KatetovChain, KatetovSpace, katetov_map, katetov_space
from .metrize import Metric, from_metric, validate_metric
from .ramsey import OrderedEchelonedSpace
from .rationals import exact_rational
from .space import EchelonedSpace, PointMap, _colex_reader, _compress, _is_int, _trusted, from_rank_table

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
    """A list of unordered spaces is screened by column and each member is
    written from its own rows; any other list, or one with a member the
    screen refuses, is validated member by member, which names its first
    fault."""
    spaces = doc.get("spaces")
    _require(isinstance(spaces, list), "space-list needs a spaces array")
    return _screened(spaces) or [validate(member) for member in spaces]


def _field(docs: list[dict], key: str, default: Any = None) -> list:
    """The column of ``key`` over objects known to be exact dicts."""
    return [*map(dict.get, docs, repeat(key), repeat(default))]


def _screened(spaces: list) -> Optional[list[dict]]:
    """Each member normalized from its own rows, when every member is an
    exact dict of kind ``space``, with our format tag or none and no
    ``order``, whose exact-int ``points`` m has exact-list rows of lengths
    1..m-1 holding exact ints that are exactly the ranks 1..n, and whose
    declared ``ranks`` is absent, null or n; otherwise None.  Each check is
    one pass over a whole column, and types are checked before any value is
    hashed, so no input makes the screen raise."""
    if {*map(type, spaces)} != {dict} or any(map(dict.__contains__, spaces, repeat("order"))):
        return None
    kinds, formats = _field(spaces, "kind"), _field(spaces, "format", FORMAT)
    if {*map(type, kinds + formats)} != {str} or {*zip(kinds, formats)} != {("space", FORMAT)}:
        return None
    points, etas = _field(spaces, "points"), _field(spaces, "eta")
    if {*zip(map(type, points), map(type, etas))} != {(int, list)} or [*map(len, etas)] != [m - 1 for m in points]:
        return None
    rows = [*chain.from_iterable(etas)]  # every m is now at most the document's row count plus one
    if {*map(type, rows)} - {list} or [*map(len, rows)] != [*chain.from_iterable(map(range, repeat(1), points))]:
        return None
    if {*map(type, chain.from_iterable(rows))} - {int}:
        return None
    ranks = [len(s) for s in map(set, map(chain.from_iterable, etas)) if s.issubset(range(1, len(s) + 1))]
    declared = zip(_field(spaces, "ranks"), ranks)
    if len(ranks) < len(spaces) or any(r is not None and (type(r) is not int or r != n) for r, n in declared):
        return None
    del kinds, formats, rows  # the screen's columns go before the output is built, which lowers the peak
    return [{"format": FORMAT, "kind": "space", "points": m, "ranks": n, "eta": [row[:] for row in eta]}
            for m, n, eta in zip(points, ranks, etas)]


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


def space_from_weights_json(doc: Any, kinds=("weights", "metric")) -> EchelonedSpace:
    """The echelon of a document of a kind in ``kinds``: the pair weights
    of a ``weights`` document, compressed as ``_rows`` reads them, or the
    distances of a ``metric`` document, which ``from_metric`` validates, so
    they are checked once."""
    if _header(doc, kinds) == "metric":
        return from_metric(_weights(doc, "d"))
    return _compress(*_rows(doc, "points", "w", _fraction_row))[0]


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
    a newline, as the join of ``dump``'s chunks."""
    return "".join(_chunks(doc))


def dump(doc: Any, write: Callable[[str], Any]) -> None:
    """Pass the text of ``dumps(doc)`` to ``write`` in chunks, one row of a
    top-level table each: every item of a list that an object document
    holds at its top level, such as a row of ``eta``, ``chi`` or ``labels``
    or a space list's member, with the keys, scalars and brackets before it.
    A document with no list at its top level is one chunk.  No text as long
    as the document is joined, and every chunk is built before the first
    is written, so nothing is written before a render that raises."""
    for chunk in _chunks(doc):
        write(chunk)


def _chunks(doc: Any) -> list[str]:
    """The chunks of ``dump`` and ``dumps``: an object document's from
    ``_object``, any other document's as ``_column``'s one-item column.  A
    document they cannot take, one with a key that is not a string, nested
    deeper than the recursion limit or holding a value JSON has no form
    for, goes to the stdlib call in one chunk, which renders it or raises."""
    try:
        chunks = _object(doc) if isinstance(doc, dict) else _column([doc], "\n")
    except (TypeError, RecursionError):
        return [json.dumps(doc, sort_keys=True, indent=2) + "\n"]
    chunks[-1] += "\n"
    return chunks


def _object(x: dict) -> list[str]:
    """The JSON text of the top-level object, key by key, in chunks: each
    item of a list it holds is one chunk, rendered with the list's other
    items by ``_column``, and the text between two items goes into the
    chunk after it, or into the last chunk after the last item.  A str or
    int value is encoded here, and ``_column`` renders every other value:
    a non-empty list's items as one column, anything else as a one-item
    column."""
    if not x:
        return ["{}"]
    inner, cell = "\n  ", "\n    "
    chunks: list[str] = []
    text, lead = "", "{"
    for k, v in sorted(x.items()):
        text += lead + inner + _encode_str(k) + ": "
        lead = ","
        if e := _SCALARS.get(type(v)):
            text += e(v)
        elif isinstance(v, (list, tuple)) and v:
            rows = _column(v, cell)
            rows[0] = text + "[" + cell + rows[0]
            for i in range(1, len(rows)):  # in place: one row is copied at a time
                rows[i] = "," + cell + rows[i]
            chunks += rows
            text = inner + "]"
        else:
            text += _column([v], inner)[0]
    text += "\n}"
    if not chunks:
        return [text]
    chunks[-1] += text
    return chunks


def _column(col: Sequence, newline: str) -> list[str]:
    """The JSON texts of the values in ``col``, their lines after the first
    starting with ``newline``: every value below a top-level object, and a
    document that is not an object, a whole column of values of one type
    per pass.  Strings go through one encoding per distinct string, one
    text shared by its repeats; rows of ints, such as a graph's ``chi``,
    through one ``repr`` of the whole column, split at the row separator
    before each row's int separators are replaced; rows of strings through
    one ``join`` each; the items of other lists, such as the rows of every
    ``eta`` in a space list, as one column one level deeper, regrouped by
    length; objects that share their keys as one column per sorted key,
    each object one ``%`` fill of a layout built once.  A column of mixed
    types or of objects whose keys differ renders item by item, each as a
    one-item column; other scalars (bool, None, float, subclasses of str
    and int) go to the stdlib."""
    if len({*map(type, col)}) > 1 or isinstance(col[0], dict) and len({*map(frozenset, col)}) > 1:
        return [_column([x], newline)[0] for x in col]
    sep = "," + (inner := newline + "  ")
    if isinstance(col[0], (list, tuple)):
        kinds = {*map(type, chain.from_iterable(col))}
        if kinds == {int}:  # a bool is not an int here
            table = col if type(col) is list is type(col[0]) else [*map(list, col)]  # a tuple's repr differs
            rows = repr(table)[2:-2].split("], [")
            return [f"[{inner}{row.replace(', ', sep)}{newline}]" if row else "[]" for row in rows]
        if kinds == {str}:
            return [f"[{inner}{sep.join(map(_encode_str, x))}{newline}]" if x else "[]" for x in col]
        items = [*chain.from_iterable(col)]
        texts = iter(_column(items, inner) if kinds else ())
        return [f"[{inner}{sep.join(islice(texts, len(x)))}{newline}]" if x else "[]" for x in col]
    if isinstance(col[0], dict):
        keys = sorted(col[0])  # an encoded key holds no line break, so ``sep`` is found only between keys
        heads = sep.join(map(_encode_str, keys)).replace("%", "%%").replace(sep, ": %s" + sep)
        layout = "{" + inner + heads + ": %s" + newline + "}"
        columns = [_column([x[k] for x in col], inner) for k in keys]
        return [layout % fields for fields in zip(*columns)] if keys else ["{}"] * len(col)
    if type(col[0]) is str:  # one text per distinct string: a column of objects repeats their tags
        return [*map(dict(zip(values := {*col}, map(_encode_str, values))).__getitem__, col)]
    return [*map(_SCALARS.get(type(col[0]), json.dumps), col)]
