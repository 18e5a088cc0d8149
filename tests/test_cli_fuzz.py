"""A seeded contract fuzzer for the command line.

Every document of the benchmark's fixed CLI corpus, and every document the
CLI prints on that corpus, is mutated in one field and run in process
through ``cli.main``: a corpus document through ``validate`` and through
each subcommand that reads it (the mutated document on stdin, the other
inputs from files), a printed document through ``validate``.  A mutation
swaps a value for an odd one, deletes a key or a list entry, moves an
integer by one, or grows a list by one entry.

Every run must end in 0, 2, 64 or 65.  A failing run prints nothing on
stdout and exactly one ``{"error": {"code", "message"}}`` document on
stderr; a successful one prints a document that ``validate`` prints back
byte for byte.

A size axis, which random mutation cannot reach, runs one valid document
at each cap the documents themselves set and one just past it: the base
of ``katetov``, the input of ``extend`` and the C of ``ramsey check``.
Metric documents have no cap; a large dull one must be accepted and
round-trip byte for byte."""

import json
import random
from collections import defaultdict
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from echelon import from_weights, jsonio, metrize_dull
from echelon.cli import main
from echelon.prng import SplitMix64Stream
from echelon.space import _is_int

from helpers import deadline, random_space

SEED = 26
MUTATIONS_PER_KIND = 200
ODD_VALUES = (
    True,
    False,
    None,
    0,
    -1,
    1,
    2**64,
    10**30,
    -(10**30),
    0.5,
    "",
    "x",
    "1/0",
    "-1/2",
    "9" * 400,
    [],
    [[]],
    [[[0]]],
    {},
    {"kind": "space"},
)
# The two large outputs of the corpus run, replaced by the same commands at
# a size that keeps a few hundred mutations of them cheap.
SMALLER = {
    "enumerate-4": ["enumerate", "--m", "3"],
    "graph": ["graph", "--n", "6", "--p", "1/2", "--seed", "5"],
}


def _paths(node, path=()):
    """The path of every value inside a document, the root excepted."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def mutate(doc, rng):
    """A copy of ``doc`` with one field mutated, and what was done.  The
    field's depth is drawn first, so a large table does not crowd out the
    few keys at the top."""
    doc = json.loads(json.dumps(doc))
    by_depth = defaultdict(list)
    for path in _paths(doc):
        by_depth[len(path)].append(path)
    *head, key = path = rng.choice(by_depth[rng.choice(list(by_depth))])
    parent = reduce(getitem, head, doc)
    value = parent[key]
    ops = ["swap", "delete"]
    if _is_int(value):
        ops.append("nudge")
    if isinstance(value, list):
        ops.append("grow")
    op = rng.choice(ops)
    if op == "delete":
        del parent[key]
    elif op == "nudge":
        parent[key] = value + rng.choice((-1, 1))
    elif op == "grow":
        value.append(value[-1] if value else rng.choice(ODD_VALUES))
    else:
        parent[key] = rng.choice(ODD_VALUES)
    return doc, f"{op} at {list(path)}"


def check_contract(clirun, argv, text, what):
    """Run ``argv`` with ``text`` on stdin and check the exit contract."""
    try:
        with deadline(10):
            code, out, err = clirun.invoke(main, argv, text)
    except Exception as exc:
        pytest.fail(f"{what}: {exc!r} escaped main")
    assert code in (0, 2, 64, 65), what
    if code:
        assert out == "", what
        diagnostic = json.loads(err)
        assert list(diagnostic) == ["error"], what
        assert sorted(diagnostic["error"]) == ["code", "message"], what
        assert all(isinstance(v, str) for v in diagnostic["error"].values()), what
    else:
        assert err == "", what
        assert clirun.invoke(main, ["validate", "-"], out) == (0, out, ""), what
    return code


@pytest.fixture(scope="module")
def clirun():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import clirun
    return clirun


@pytest.fixture(scope="module")
def sources(clirun, tmp_path_factory):
    """Each document kind's documents, each with the argument lists that
    read it from stdin."""
    root = tmp_path_factory.mktemp("corpus")
    paths = {}
    for name, doc in clirun.CORPUS.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(clirun.render(doc))
    out = defaultdict(list)
    for name, doc in clirun.CORPUS.items():
        readers = [["validate", "-"]]
        for _, argv in clirun.INVOCATIONS:
            if f"{{{name}}}" in argv:
                readers.append(["-" if a == f"{{{name}}}" else a.format(**paths) for a in argv])
        out[doc["kind"]].append((doc, readers))
    for key, argv in clirun.INVOCATIONS:
        code, text, _ = clirun.invoke(main, [a.format(**paths) for a in SMALLER.get(key, argv)], None)
        assert code == 0, key
        doc = json.loads(text)
        out[doc["kind"]].append((doc, [["validate", "-"]]))
    return dict(out)


def test_every_mutated_document_keeps_the_exit_contract(clirun, sources):
    rng = random.Random(SEED)
    assert sorted(sources) == [
        "amalgam", "bnf", "graph", "katetov", "map", "metric", "report",
        "space", "space-list", "weights",
    ]
    for kind, docs in sources.items():
        codes = set()
        for i in range(MUTATIONS_PER_KIND):
            doc, readers = docs[i % len(docs)]
            mutated, change = mutate(doc, rng)
            argv = rng.choice(readers)
            what = f"{kind} document {i % len(docs)}, {change}, through {argv}"
            codes.add(check_contract(clirun, argv, json.dumps(mutated), what))
        # each kind's mutations reach both a refusal and an accepted document
        assert 0 in codes and codes - {0}, kind


def _space_text(space, order=None):
    return jsonio.dumps(jsonio.space_to_json(space, order))


def test_documents_at_and_past_each_cap_keep_the_exit_contract(clirun, tmp_path):
    stream = SplitMix64Stream(SEED)
    point, edge = tmp_path / "point.json", tmp_path / "edge.json"
    point.write_text(_space_text(from_weights(1, {}), (0,)))
    edge.write_text(_space_text(from_weights(2, {(0, 1): 1}), (0, 1)))
    ramsey = ["ramsey", "check", "--c", "-", "--a", str(point), "--b", str(edge), "--k", "2"]
    for argv, size, code in (
        (["katetov", "--space", "-"], 3, "katetov/cap"),
        (["extend", "-"], 3, "enumerate/cap"),
        (ramsey, 12, "ramsey/size-cap"),
    ):
        for m in (size, size + 1):
            space = random_space(stream, m)
            text = _space_text(space, tuple(range(m)) if argv is ramsey else None)
            what = f"{argv[:2]} on {m} points"
            if m == size:
                assert check_contract(clirun, argv, text, what) == 0, what
            else:
                assert check_contract(clirun, argv, text, what) == 2, what
                err = clirun.invoke(main, argv, text)[2]
                assert json.loads(err)["error"]["code"] == code, what
    # metric documents have no cap: a large dull one is accepted and round-trips
    space = random_space(stream, 200)
    text = jsonio.dumps(jsonio.metric_to_json(metrize_dull(space)))
    for argv, out in ((["validate", "-"], text), (["from-metric", "-"], _space_text(space))):
        assert check_contract(clirun, argv, text, f"{argv[0]} on 200 points") == 0
        assert clirun.invoke(main, argv, text) == (0, out, ""), argv[0]
