"""Command-line surface: every subcommand, deterministic bytes, exit codes.

main() is driven in-process; stdout/stderr go through capsys and stdin is
monkeypatched for the "-" path."""

import argparse
import errno
import hashlib
import io
import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from echelon import (
    EchelonedSpace,
    from_weights,
    is_embedding,
    katetov_space,
    one_point_extensions,
)
from echelon import cli, jsonio
from echelon import metrize, prng, ramsey
from echelon.cli import BOUNDS, main
from echelon.jsonio import FORMAT, dumps, fraction_to_str, space_from_json, space_to_json
from echelon.limit import WITNESS_CAP, limit_new

from helpers import ReferenceDeterministicLimitModel, deadline, reference_dumps, reference_render

GRAPH_VERTICES_CAP = BOUNDS["vertices"].limit
KATETOV_MATERIALIZE_CAP = BOUNDS["materialize"].limit
LIMIT_DEPTH_CAP = BOUNDS["depth"].limit
LIMIT_POINTS_CAP = BOUNDS["points"].limit
P_FLOOR = BOUNDS["p"].limit
RAMSEY_SAMPLES_CAP = BOUNDS["samples"].limit
RAMSEY_SIZE_CAP = BOUNDS["size"].limit

FIX = from_weights(3, {(0, 1): 2, (0, 2): 4, (1, 2): 4})
EDGE = from_weights(2, {(0, 1): 1})
FLAT3 = from_weights(3, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
FLAT4 = from_weights(4, dict.fromkeys(itertools.combinations(range(4), 2), 1))


@pytest.fixture
def invoke(monkeypatch, capsys):
    def call(argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc))
    return str(path)


def point_doc():
    return space_to_json(EchelonedSpace(1, 0, ((0,),)))


def test_validate_roundtrips_a_space(invoke, tmp_path):
    path = write_doc(tmp_path, "s.json", space_to_json(FIX))
    code, out, err = invoke(["validate", path])
    assert code == 0 and err == ""
    assert space_from_json(json.loads(out)) == FIX


def test_validate_reads_stdin(invoke):
    code, out, _ = invoke(["validate", "-"], stdin=dumps(space_to_json(FIX)))
    assert code == 0
    assert json.loads(out)["kind"] == "space"


def test_echelon_compresses_weights(invoke, tmp_path):
    doc = {
        "format": FORMAT,
        "kind": "weights",
        "points": 3,
        "w": [["2/1"], ["4/1", "4/1"]],
    }
    code, out, _ = invoke(["echelon", write_doc(tmp_path, "w.json", doc)])
    assert code == 0
    assert space_from_json(json.loads(out)) == FIX


def test_metrize_then_from_metric_recovers_the_space(invoke, tmp_path):
    path = write_doc(tmp_path, "s.json", space_to_json(FIX))
    code, metric_text, _ = invoke(["metrize", path])
    assert code == 0
    code, out, _ = invoke(["from-metric", "-"], stdin=metric_text)
    assert code == 0
    assert space_from_json(json.loads(out)) == FIX


def test_from_metric_validates_once(invoke, monkeypatch, tmp_path):
    calls = []
    checked = metrize._checked

    def counting(d):
        calls.append(len(d))
        return checked(d)

    monkeypatch.setattr(metrize, "_checked", counting)
    metric = {"format": FORMAT, "kind": "metric", "points": 3, "d": [["3/2"], ["7/4", "7/4"]]}
    code, out, _ = invoke(["from-metric", write_doc(tmp_path, "metric.json", metric)])
    assert code == 0 and calls == [3]
    assert space_from_json(json.loads(out)) == from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    for doc, want in (
        (dict(metric, d=[["1/1"], ["5/1", "1/1"]]), "metric/triangle"),
        (dict(metric, d=[["0/1"], ["1/1", "1/1"]]), "metric/positivity"),
        (dict(metric, d=[["1/1"], ["x", "1/1"]]), "json/rational"),
        (dict(metric, d=[["1/1"]]), "json/schema"),
        (space_to_json(FIX), "json/schema"),
    ):
        code, out, err = invoke(["from-metric", write_doc(tmp_path, "bad.json", doc)])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == want


def test_metric_documents_are_checked_once(invoke, monkeypatch, tmp_path):
    """metrize renders a metric that is dull by construction unchecked, and
    validate checks the document it loads once."""
    calls = []
    checked = metrize._checked

    def counting(d):
        calls.append(len(d))
        return checked(d)

    monkeypatch.setattr(metrize, "_checked", counting)
    code, metric_text, _ = invoke(["metrize", write_doc(tmp_path, "s.json", space_to_json(FIX))])
    assert code == 0 and calls == []
    code, out, _ = invoke(["validate", "-"], stdin=metric_text)
    assert code == 0 and out == metric_text and calls == [3]


def test_amalgamate_with_inline_maps(invoke, tmp_path):
    a = write_doc(tmp_path, "a.json", space_to_json(EDGE))
    b = write_doc(tmp_path, "b.json", space_to_json(FIX))
    code, out, _ = invoke(
        ["amalgamate", "--a", a, "--b1", b, "--b2", b, "--f1", "0,1", "--f2", "1,2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "amalgam"
    g1, g2 = doc["g1"], doc["g2"]
    # square commutes over the shared pair
    assert g1[0] == g2[1] and g1[1] == g2[2]
    merged = space_from_json(doc["space"])
    assert is_embedding(FIX, merged, tuple(g1))
    assert is_embedding(FIX, merged, tuple(g2))


def test_jep_overlaps_in_one_point(invoke, tmp_path):
    b1 = write_doc(tmp_path, "b1.json", space_to_json(FIX))
    b2 = write_doc(tmp_path, "b2.json", space_to_json(EDGE))
    code, out, _ = invoke(["jep", "--b1", b1, "--b2", b2])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "amalgam"
    assert len(set(doc["g1"]) & set(doc["g2"])) == 1


def test_katetov_document(invoke, tmp_path):
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    code, out, _ = invoke(["katetov", "--space", base])
    assert code == 0
    doc = json.loads(out)
    kx = katetov_space(EDGE)
    assert doc["kind"] == "katetov"
    assert doc["points"] == kx.m == 38
    assert doc["lambda"] == list(kx.identity_embedding())
    assert len(doc["chain"]) == len(kx.chain.labels)


def test_katetov_materializes_small_functors(invoke, tmp_path):
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    code, out, _ = invoke(["katetov", "--space", base])
    doc = json.loads(out)
    assert "space" in doc
    assert doc["space"]["points"] == 38
    code, out, _ = invoke(["katetov", "--space", base, "--materialize-cap", "10"])
    assert "space" not in json.loads(out)


@pytest.mark.parametrize("cap", [KATETOV_MATERIALIZE_CAP + 1, 5000, 10**18])
def test_katetov_materialize_cap(invoke, monkeypatch, tmp_path, cap):
    base = write_doc(tmp_path, "base.json", space_to_json(FLAT3))

    def no_space(*args):
        raise AssertionError("K(X) was built past the cap")

    monkeypatch.setattr(cli, "katetov_space", no_space)
    code, out, err = invoke(["katetov", "--space", base, "--materialize-cap", str(cap)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "katetov/materialize-cap"


def test_katetov_materializes_up_to_the_cap(invoke, tmp_path):
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    code, out, _ = invoke(["katetov", "--space", base, "--materialize-cap", str(KATETOV_MATERIALIZE_CAP)])
    assert code == 0
    assert json.loads(out)["space"]["points"] == 38


def test_katetov_map_and_extension(invoke, tmp_path):
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    map_doc = {
        "format": FORMAT,
        "kind": "map",
        "target": space_to_json(FIX),
        "map": [0, 1],
    }
    mp = write_doc(tmp_path, "map.json", map_doc)
    ext_space = from_weights(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
    ext = write_doc(tmp_path, "ext.json", space_to_json(ext_space))
    code, out, _ = invoke(["katetov", "--space", base, "--map", mp, "--extend", ext])
    assert code == 0
    doc = json.loads(out)
    values = doc["map"]["values"]
    assert len(values) == katetov_space(EDGE).m
    assert len(set(values)) == len(values)
    g = doc["extension"]["g"]
    assert len(g) == 3
    assert g[:2] == doc["lambda"]


def test_extend_count(invoke, tmp_path):
    path = write_doc(tmp_path, "s.json", point_doc())
    code, out, _ = invoke(["extend", path, "--count"])
    assert code == 0
    assert json.loads(out)["count"] == len(
        list(one_point_extensions(EchelonedSpace(1, 0, ((0,),))))
    )


def test_limit_sample_bytes_are_reproducible(invoke):
    argv = ["limit", "sample", "--mode", "random", "--seed", "9", "--n", "6"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "space"
    assert doc["mode"] == "random" and doc["seed"] == 9
    assert len(doc["labels"]) == 5
    code3, out3, _ = invoke(
        ["limit", "sample", "--mode", "random", "--seed", "10", "--n", "6"]
    )
    assert out3 != out1


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 17, 64])
@pytest.mark.parametrize("mode", ["random", "deterministic"])
def test_limit_sample_label_rows_are_the_pair_labels(invoke, mode, n, seed):
    """The deterministic rows come from the reference model, which holds
    every label as a Fraction, so the CLI's names of the labels its model
    holds as ints are checked against names built another way."""
    code, out, _ = invoke(["limit", "sample", "--mode", mode, "--seed", str(seed), "--n", str(n)])
    assert code == 0
    model = ReferenceDeterministicLimitModel() if mode == "deterministic" else limit_new(mode, seed)
    model.limit_points(n)
    want = [[fraction_to_str(model.rank_label(i, j)) for j in range(i)] for i in range(1, n)]
    assert json.loads(out)["labels"] == want


@pytest.mark.parametrize("n", [LIMIT_POINTS_CAP + 1, 10**18])
@pytest.mark.parametrize("mode", ["random", "deterministic"])
def test_limit_sample_points_cap(invoke, monkeypatch, mode, n):
    def no_model(*args):
        raise AssertionError("a model was built past the cap")

    monkeypatch.setattr(cli, "limit_new", no_model)
    code, out, err = invoke(["limit", "sample", "--mode", mode, "--n", str(n)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "limit/points-cap"


@pytest.mark.parametrize("depth", [LIMIT_DEPTH_CAP + 1, 10**18])
@pytest.mark.parametrize("modes", [("deterministic", "deterministic"), ("random", "random")])
def test_limit_bnf_depth_cap(invoke, monkeypatch, modes, depth):
    def no_model(*args):
        raise AssertionError("a model was built past the cap")

    monkeypatch.setattr(cli, "limit_new", no_model)
    argv = ["limit", "bnf", "--seed1", "0", "--seed2", "100", "--depth", str(depth)]
    code, out, err = invoke(argv + ["--mode1", modes[0], "--mode2", modes[1]])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "limit/depth-cap"


def test_limit_sample_random_bytes_at_the_points_cap(invoke):
    """The label rows of a random model come from the colour kernel; the
    bytes are those of the scalar per-pair labels."""
    code, out, _ = invoke(["limit", "sample", "--mode", "random", "--seed", "3", "--n", str(LIMIT_POINTS_CAP)])
    assert code == 0
    data = out.encode()
    assert len(data) == 11_896_457
    assert hashlib.sha256(data).hexdigest().startswith("e8af458c50d9")


def test_limit_bnf_random_sides_reach_the_witness_cap_quickly(invoke):
    """Seed 0 against seed 100 demands a label interval that the random
    model's finite alphabet does not meet: the scan reaches the cap."""
    argv = ["limit", "bnf", "--mode1", "random", "--mode2", "random", "--seed1", "0", "--seed2", "100"]
    with deadline(2.0):
        code, out, err = invoke(argv + ["--depth", "8"])
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "limit/witness-cap"
    assert error["message"] == f"no witness among the first {WITNESS_CAP} points (cap {WITNESS_CAP})"


def test_limit_bnf_certificate(invoke):
    code, out, _ = invoke(
        ["limit", "bnf", "--seed1", "3", "--seed2", "0", "--depth", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "bnf"
    assert set(doc["left"]) >= {0, 1, 2}
    assert set(doc["right"]) >= {0, 1, 2}
    assert doc["left_space"] == doc["right_space"]
    k = len(doc["left"])
    assert len(doc["left_labels"]) == k * (k - 1) // 2
    assert all("/" in lab for lab in doc["left_labels"])


def test_ramsey_check_pigeonhole(invoke, tmp_path):
    c = write_doc(tmp_path, "c.json", space_to_json(FLAT3, order=(0, 1, 2)))
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    code, out, _ = invoke(["ramsey", "check", "--c", c, "--a", a, "--b", b, "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "format": FORMAT,
        "kind": "report",
        "arrow": True,
        "k": 2,
        "a_copies": 3,
        "b_copies": 3,
    }
    code, out, _ = invoke(["ramsey", "check", "--c", b, "--a", a, "--b", b, "--k", "2"])
    assert json.loads(out)["arrow"] is False


def test_ramsey_check_computes_each_copy_set_once(invoke, monkeypatch, tmp_path):
    calls = []
    copy_set = ramsey.copy_set

    def counting(a, c):
        calls.append(a.m)
        return copy_set(a, c)

    monkeypatch.setattr(ramsey, "copy_set", counting)
    c = write_doc(tmp_path, "c.json", space_to_json(FLAT3, order=(0, 1, 2)))
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    code, out, _ = invoke(["ramsey", "check", "--c", c, "--a", a, "--b", b, "--k", "2"])
    assert code == 0 and calls == [1, 2]
    assert json.loads(out)["a_copies"] == json.loads(out)["b_copies"] == 3


@pytest.mark.parametrize(
    "argv, code",
    [
        (["search", "--cap", str(RAMSEY_SIZE_CAP + 1)], "ramsey/size-cap"),
        (["search", "--cap", str(10**18)], "ramsey/size-cap"),
        (["search", "--samples", str(RAMSEY_SAMPLES_CAP + 1)], "ramsey/samples-cap"),
        (["search", "--samples", str(10**18)], "ramsey/samples-cap"),
        (["search", "--budget", str(ramsey.ARROW_BUDGET + 1)], "ramsey/budget-cap"),
        (["search", "--budget", str(10**18)], "ramsey/budget-cap"),
        (["check", "--budget", str(ramsey.ARROW_BUDGET + 1)], "ramsey/budget-cap"),
        (["check", "--budget", str(10**18)], "ramsey/budget-cap"),
    ],
)
def test_ramsey_caps(invoke, monkeypatch, tmp_path, argv, code):
    def no_search(*args, **kwargs):
        raise AssertionError("a search ran past the cap")

    monkeypatch.setattr(cli, "witness_search", no_search)
    monkeypatch.setattr(cli, "_arrow", no_search)
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    spaces = ["--a", a, "--b", b, "--k", "2"] + (["--c", b] if argv[0] == "check" else [])
    exit_code, out, err = invoke(["ramsey", *argv, *spaces])
    assert exit_code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == code


@pytest.mark.parametrize("m", [RAMSEY_SIZE_CAP, RAMSEY_SIZE_CAP + 1])
def test_ramsey_check_caps_the_size_of_c(invoke, monkeypatch, tmp_path, m):
    calls = []

    def fake_arrow(*args):
        calls.append(args)
        return True, (), ()

    monkeypatch.setattr(cli, "_arrow", fake_arrow)
    flat = from_weights(m, {p: 1 for p in itertools.combinations(range(m), 2)})
    c = write_doc(tmp_path, "c.json", space_to_json(flat, order=tuple(range(m))))
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    exit_code, out, err = invoke(["ramsey", "check", "--c", c, "--a", a, "--b", b, "--k", "1"])
    if m <= RAMSEY_SIZE_CAP:
        assert exit_code == 0 and len(calls) == 1
    else:
        assert exit_code == 2 and out == "" and calls == []
        assert json.loads(err)["error"]["code"] == "ramsey/size-cap"


def test_ramsey_search_emits_the_witness(invoke, tmp_path):
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    code, out, _ = invoke(["ramsey", "search", "--a", a, "--b", b, "--k", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "space"
    assert doc["points"] == 3
    assert "order" in doc


@pytest.mark.parametrize("k, budget", [(3, 5), (3, None), (1, None)])
def test_ramsey_check_answers_a_c_without_b_copies(invoke, tmp_path, k, budget):
    """A 6-point C with 15 distinct ranks has no flat triangle: it answers
    false, with its A-copies counted, although 3^15 colourings exceed the
    budget.  A flat C of 6 points has flat triangles, so there the budget
    still binds at k = 3."""
    pairs = list(itertools.combinations(range(6), 2))
    distinct = from_weights(6, {p: i + 1 for i, p in enumerate(pairs)})
    c = write_doc(tmp_path, "c.json", space_to_json(distinct, order=tuple(range(6))))
    a = write_doc(tmp_path, "a.json", space_to_json(EDGE, order=(0, 1)))
    b = write_doc(tmp_path, "b.json", space_to_json(FLAT3, order=(0, 1, 2)))
    options = ["--a", a, "--b", b, "--k", str(k)] + ([] if budget is None else ["--budget", str(budget)])
    code, out, err = invoke(["ramsey", "check", "--c", c, *options])
    assert code == 0 and err == ""
    assert json.loads(out) == {"format": FORMAT, "kind": "report", "arrow": False, "k": k, "a_copies": 15, "b_copies": 0}
    flat6 = from_weights(6, dict.fromkeys(pairs, 1))
    c = write_doc(tmp_path, "flat.json", space_to_json(flat6, order=tuple(range(6))))
    code, out, err = invoke(["ramsey", "check", "--c", c, *options])
    if k == 1:
        assert code == 0 and json.loads(out)["arrow"] is True
    else:
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "arrow/budget"


@pytest.mark.parametrize("subcommand", ["check", "search"])
@pytest.mark.parametrize("budget", [0, -1])
def test_ramsey_budget_below_one_is_refused(invoke, tmp_path, subcommand, budget):
    """Both ramsey subcommands refuse a budget that admits no colouring."""
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    c = ["--c", b] if subcommand == "check" else []
    code, out, err = invoke(["ramsey", subcommand, "--a", a, "--b", b, *c, "--k", "2", "--budget", str(budget)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "arrow/budget"


@pytest.mark.parametrize("cap", ["1", "4"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_ramsey_search_refuses_fewer_than_one_colour(invoke, tmp_path, cap, k):
    """A cap below |B| examines no candidate; k is refused before that."""
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    code, out, err = invoke(["ramsey", "search", "--a", a, "--b", b, "--k", k, "--cap", cap])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "arrow/colours"


def test_enumerate_counts_and_lists(invoke):
    code, out, _ = invoke(["enumerate", "--m", "3", "--count"])
    assert code == 0
    assert json.loads(out)["count"] == 13
    code, out, _ = invoke(["enumerate", "--m", "2"])
    doc = json.loads(out)
    assert doc["kind"] == "space-list"
    assert len(doc["spaces"]) == 1


def test_iso_reports_a_witness(invoke, tmp_path):
    relabeled = from_weights(3, {(0, 1): 4, (0, 2): 4, (1, 2): 2})
    a = write_doc(tmp_path, "a.json", space_to_json(FIX))
    b = write_doc(tmp_path, "b.json", space_to_json(relabeled))
    code, out, _ = invoke(["iso", a, b])
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert sorted(doc["map"]) == [0, 1, 2]
    c = write_doc(tmp_path, "c.json", space_to_json(EDGE))
    code, out, _ = invoke(["iso", a, c])
    assert json.loads(out) == {
        "format": FORMAT,
        "kind": "report",
        "isomorphic": False,
        "map": None,
    }


def test_graph_subcommand_is_seed_deterministic(invoke):
    argv = ["graph", "--n", "6", "--seed", "3"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["kind"] == "graph" and doc["v"] == 6
    code3, out3, _ = invoke(["graph", "--n", "6", "--seed", "4"])
    assert out3 != out1


def test_every_emitted_kind_revalidates(invoke, tmp_path):
    a = write_doc(tmp_path, "a.json", point_doc())
    b = write_doc(tmp_path, "b.json", space_to_json(EDGE, order=(0, 1)))
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    emitted = []
    for argv in (
        ["metrize", s],
        ["graph", "--n", "4", "--seed", "1"],
        ["enumerate", "--m", "2"],
        ["jep", "--b1", s, "--b2", s],
        ["katetov", "--space", b],
        ["limit", "bnf", "--seed1", "1", "--seed2", "2", "--depth", "2"],
        ["limit", "sample", "--mode", "deterministic", "--seed", "0", "--n", "4"],
        ["ramsey", "check", "--c", b, "--a", a, "--b", b, "--k", "2"],
    ):
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)
        emitted.append(out)
    weights_doc = {
        "format": FORMAT,
        "kind": "weights",
        "points": 2,
        "w": [["1/2"]],
    }
    emitted.append(dumps(weights_doc))
    for text in emitted:
        code, out, err = invoke(["validate", "-"], stdin=text)
        assert code == 0, (text, err)


def test_out_flag_writes_the_same_bytes(invoke, tmp_path):
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    code, out, _ = invoke(["metrize", s])
    target = tmp_path / "metric.json"
    code2, out2, _ = invoke(["metrize", s, "--out", str(target)])
    assert code == code2 == 0
    assert out2 == ""
    assert target.read_text() == out


@pytest.mark.parametrize(
    "name, reason",
    [("absent/metric.json", "No such file or directory"), ("out", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_out_that_cannot_be_written_exits_2_and_leaves_no_file(invoke, tmp_path, name, reason):
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    (tmp_path / "out").mkdir()
    target = tmp_path / name
    code, out, err = invoke(["metrize", s, "--out", str(target)])
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"code": "io/write", "message": f"{target}: {reason}"}}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "s.json"]
    assert list((tmp_path / "out").iterdir()) == []


def test_out_replaces_an_existing_document_whole(invoke, tmp_path):
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    target = tmp_path / "metric.json"
    target.write_text("x" * 100_000)
    code, _, _ = invoke(["metrize", s, "--out", str(target)])
    assert code == 0
    assert target.read_text() == invoke(["metrize", s])[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metric.json", "s.json"]


@pytest.mark.parametrize("mode", [0o640, 0o600], ids=["640", "600"])
def test_out_keeps_the_mode_of_the_file_it_replaces(invoke, tmp_path, mode):
    target = tmp_path / "spaces.json"
    target.write_text("old")
    target.chmod(mode)
    code, _, _ = invoke(["enumerate", "--m", "2", "--out", str(target)])
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert target.read_text() == invoke(["enumerate", "--m", "2"])[1]


def test_out_creates_a_new_file_with_the_umask_mode(invoke, tmp_path):
    target = tmp_path / "spaces.json"
    umask = os.umask(0o027)
    try:
        code, _, _ = invoke(["enumerate", "--m", "2", "--out", str(target)])
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def run_cli(argv, stdout):
    """``echelon`` in a process of its own, its stdout on ``stdout``."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "echelon.cli", *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("argv", [["enumerate", "--m", "2"], ["graph", "--n", "512"]], ids=["small", "large"])
def test_a_closed_stdout_exits_2_with_one_diagnostic_and_no_traceback(argv):
    """The reader of stdout is gone before the document is written: the
    write fails, stdout is pointed at the null device so the interpreter's
    last flush stays quiet, and the process exits 2 with one diagnostic."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(argv, write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr) == {"error": {"code": "io/write", "message": "stdout: Broken pipe"}}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["enumerate", "--m", "2"], ["graph", "--n", "512"]], ids=["small", "large"])
def test_a_full_stdout_exits_2_with_one_diagnostic_and_no_traceback(argv):
    """A write error other than a closed pipe takes the same path: the
    bytes left in stdout's buffer must not fail again at exit.  The large
    document overflows stdout's buffer, so its write fails mid-stream."""
    with open("/dev/full", "w") as full:
        proc = run_cli(argv, full)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr) == {"error": {"code": "io/write", "message": "stdout: No space left on device"}}


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")), reason="needs /dev/full and /proc/self/fd"
)
def test_a_failed_stdout_write_leaves_no_descriptor_open(invoke, monkeypatch):
    """Each failed write points stdout at the null device through a
    descriptor of its own, which ``main`` closes: five in-process calls
    onto a full stdout leave as many descriptors open as before them."""
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            code, _, err = invoke(["enumerate", "--m", "3"])
        assert code == 2 and json.loads(err)["error"]["code"] == "io/write"
    assert len(os.listdir("/proc/self/fd")) == before


class Stdout:
    """A stdout that keeps what each write passes it, except that its
    ``fail``-th write raises ENOSPC; ``fileno`` is a descriptor the test
    owns, which the CLI points at the null device after a failed write."""

    def __init__(self, fd=-1, fail=0):
        self.writes, self.fd, self.fail = [], fd, fail

    def write(self, text):
        if len(self.writes) + 1 == self.fail:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize(
    "argv, writes",
    [(["enumerate", "--m", "4"], (4683, 4685)), (["enumerate", "--m", "4", "--count"], (1, 1))],
    ids=["space-list", "report"],
)
def test_stdout_receives_one_write_per_top_level_row(invoke, monkeypatch, argv, writes):
    """A space list reaches stdout one member per write, with at most two
    more writes for the text around them; a report, which holds no list,
    is one write.  The writes join to the document's bytes."""
    expected = invoke(argv)[1]
    stdout = Stdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert writes[0] <= len(stdout.writes) <= writes[1]
    assert "".join(stdout.writes) == expected


GRAPH_64 = ["graph", "--n", "64"]


def _failing_write(invoke, at):
    """The chunks ``jsonio.dump`` writes for a 64-vertex graph, and the
    number of the write that is to fail: the first, a middle one or the
    last."""
    chunks = []
    jsonio.dump(json.loads(invoke(GRAPH_64)[1]), chunks.append)
    return chunks, {"first": 1, "middle": len(chunks) // 2, "last": len(chunks)}[at]


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_a_stdout_that_fails_partway_exits_2_with_one_diagnostic(invoke, monkeypatch, tmp_path, at):
    """The write of one row of a graph fails with ENOSPC: stdout has
    received exactly the rows before it, stderr holds one diagnostic, and
    ``main`` returns 2 without raising."""
    chunks, fail = _failing_write(invoke, at)
    with open(tmp_path / "stdout", "w") as f:
        stdout = Stdout(f.fileno(), fail)
        monkeypatch.setattr(sys, "stdout", stdout)
        code, _, err = invoke(GRAPH_64)
    assert code == 2
    assert json.loads(err) == {"error": {"code": "io/write", "message": "stdout: No space left on device"}}
    assert stdout.writes == chunks[: fail - 1]


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_out_that_fails_partway_keeps_the_file_it_would_replace(invoke, monkeypatch, tmp_path, at):
    """The write of one row into ``--out``'s temporary file fails with
    ENOSPC: the file it would replace keeps its content and mode, the
    temporary file is gone, and stderr holds one diagnostic."""
    fail = _failing_write(invoke, at)[1]
    target = tmp_path / "graph.json"
    target.write_text("old")
    target.chmod(0o640)

    def opener(path, mode="r"):
        f = open(path, mode)
        write, count = f.write, itertools.count(1)

        def full(text):
            if next(count) == fail:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(text)

        f.write = full
        return f

    monkeypatch.setattr(cli, "open", opener, raising=False)
    code, out, err = invoke([*GRAPH_64, "--out", str(target)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"code": "io/write", "message": f"{target}: No space left on device"}}
    assert target.read_text() == "old" and stat.S_IMODE(target.stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["graph.json"]


def test_out_onto_a_fifo_is_written_in_place(invoke, tmp_path):
    """A pipe is not a file to rename over: its reader gets the document."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, out, err = invoke(["enumerate", "--m", "3", "--out", str(fifo)])
    reader.join(timeout=30)
    assert (code, out, err) == (0, "", "")
    assert received == [invoke(["enumerate", "--m", "3"])[1]]
    assert fifo.is_fifo() and sorted(p.name for p in tmp_path.iterdir()) == ["fifo"]


@pytest.mark.skipif(not os.path.exists("/proc/self/fd/1"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "file"])
def test_out_onto_the_stdout_link_reaches_stdout(tmp_path, to_file):
    """``--out`` naming a link to ``/proc/self/fd/1``, as ``/dev/stdout``
    is, writes into whatever stdout is: a pipe in place, a regular file
    through its real path.  The link stays a link."""
    link = tmp_path / "stdout"
    link.symlink_to("/proc/self/fd/1")
    expected = run_cli(["enumerate", "--m", "3"], subprocess.PIPE).stdout
    if to_file:
        with open(tmp_path / "stdout.json", "w") as f:
            proc = run_cli(["enumerate", "--m", "3", "--out", str(link)], f)
        got = (tmp_path / "stdout.json").read_text()
    else:
        proc = run_cli(["enumerate", "--m", "3", "--out", str(link)], subprocess.PIPE)
        got = proc.stdout
    assert (proc.returncode, proc.stderr) == (0, "")
    assert got == expected
    assert link.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == ["stdout", "stdout.json"][: 1 + to_file]


def test_out_through_a_symlink_writes_the_file_it_names(invoke, tmp_path):
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    (tmp_path / "metric.json").write_text("old")
    (tmp_path / "link.json").symlink_to("metric.json")
    code, _, _ = invoke(["metrize", s, "--out", str(tmp_path / "link.json")])
    assert code == 0
    assert (tmp_path / "link.json").is_symlink()
    assert (tmp_path / "metric.json").read_text() == invoke(["metrize", s])[1]


def test_exit_code_usage(invoke):
    code, out, err = invoke(["no-such-command"])
    assert code == 64
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, _ = invoke(["graph"])  # missing required --n
    assert code == 64


def test_exit_code_bad_json(invoke, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = invoke(["validate", str(path)])
    assert code == 65
    assert json.loads(err)["error"]["code"] == "json/parse"


def test_exit_code_domain_error(invoke, tmp_path):
    bad = {"format": FORMAT, "kind": "space", "points": 2, "ranks": 2, "eta": [[2]]}
    path = write_doc(tmp_path, "bad.json", bad)
    code, _, err = invoke(["validate", str(path)])
    assert code == 2
    assert "error" in json.loads(err)


def test_exit_code_wrong_format_flag(invoke, tmp_path):
    s = write_doc(tmp_path, "s.json", space_to_json(FIX))
    code, _, err = invoke(["validate", s, "--format", "other/1"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "json/format"


def test_exit_code_missing_file(invoke, tmp_path):
    code, _, err = invoke(["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "io/read"


def test_help_exits_zero(invoke):
    code, out, _ = invoke(["--help"])
    assert code == 0


# --- validate: what the benchmark corpus does not exercise ---


def validated(invoke, doc):
    code, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
    assert code == 0 and err == "", err
    return json.loads(out)


@pytest.mark.parametrize(
    "kind, embedded",
    [
        ("amalgam", {"space": None, "base": "plain"}),
        ("katetov", {"base": "plain", "space": None}),
        ("bnf", {"left_space": "plain", "right_space": "plain"}),
    ],
)
def test_validate_passes_composites_through(invoke, kind, embedded):
    plain = space_to_json(FIX)
    untagged = dict(plain, note="kept")
    del untagged["format"]
    doc = {"kind": kind, "extra": {"nested": [1, None, "1/2"]}, "g1": [0, 2]}
    for key, what in embedded.items():
        doc[key] = None if what is None else untagged
    out = validated(invoke, doc)
    expected = dict(doc, format=FORMAT)
    for key, what in embedded.items():
        expected[key] = None if what is None else plain
    assert out == expected


def test_validate_passes_a_report_through(invoke):
    doc = {"kind": "report", "count": 3, "space": 5, "anything": [{"a": None}]}
    assert validated(invoke, doc) == dict(doc, format=FORMAT)


def test_validate_normalizes_a_mixed_space_list(invoke):
    ordered = space_to_json(FIX, order=(2, 0, 1))
    metric = {"kind": "metric", "points": 2, "d": [["3/6"]]}
    graph = {"format": FORMAT, "kind": "graph", "v": 2, "colours": [], "chi": [[4]]}
    weights = {"kind": "weights", "points": 2, "w": [["4/2"]]}
    report = {"kind": "report", "found": False}
    inner = {"kind": "space-list", "spaces": [point_doc()]}
    doc = {"kind": "space-list", "spaces": [ordered, metric, graph, weights, report, inner]}
    out = validated(invoke, doc)
    assert out == {
        "format": FORMAT,
        "kind": "space-list",
        "spaces": [
            ordered,
            {"format": FORMAT, "kind": "metric", "points": 2, "d": [["1/2"]]},
            {"format": FORMAT, "kind": "graph", "v": 2, "colours": [4], "chi": [[4]]},
            {"format": FORMAT, "kind": "weights", "points": 2, "w": [["2/1"]]},
            {"format": FORMAT, "kind": "report", "found": False},
            {"format": FORMAT, "kind": "space-list", "spaces": [point_doc()]},
        ],
    }


def test_validate_null_order_is_the_identity(invoke):
    doc = dict(space_to_json(FIX), order=None)
    assert validated(invoke, doc) == space_to_json(FIX, order=(0, 1, 2))


@pytest.mark.parametrize(
    "doc",
    [
        {"format": FORMAT, "kind": "mystery"},
        {"format": FORMAT, "kind": ["space"]},
        {"format": FORMAT},
        [space_to_json(FIX)],
        "space",
        {"format": FORMAT, "kind": "space-list", "spaces": {"0": point_doc()}},
        {"format": FORMAT, "kind": "space-list"},
        {"format": FORMAT, "kind": "amalgam", "space": [1]},
    ],
)
def test_validate_rejects_malformed_documents(invoke, doc):
    code, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "json/schema"


def nested(depth, **tag):
    doc = dict(tag, kind="report")
    for level in range(depth):
        doc = dict(tag, kind="amalgam", space=doc) if level % 2 else dict(tag, kind="space-list", spaces=[doc])
    return doc


def test_validate_passes_nested_composites_through(invoke):
    assert validated(invoke, nested(40)) == nested(40, format=FORMAT)


def test_validate_refuses_documents_nested_too_deeply(invoke):
    deep = {"kind": "report"}
    for _ in range(400):  # parses, but loading recurses several frames per level
        deep = {"kind": "amalgam", "space": deep}
    code, out, err = invoke(["validate", "-"], stdin=json.dumps(deep))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "json/depth"


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "weights", "points": 2, "w": [["1/2"]]},
        {"kind": "space-list", "spaces": []},
        {"kind": "report", "count": 1},
        {"kind": "amalgam", "space": None},
        {"kind": "katetov", "base": None},
        {"kind": "bnf", "left_space": None},
        {"kind": "space-list", "spaces": [{"kind": "report", "format": "other/1"}]},
    ],
)
def test_validate_rejects_a_wrong_format_tag_for_every_kind(invoke, doc):
    doc = dict(doc)
    doc.setdefault("format", "other/1")
    code, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "json/format"


def test_echelon_reads_metrics_as_metrics(invoke, tmp_path):
    metric = {"format": FORMAT, "kind": "metric", "points": 3, "d": [["3/2"], ["7/4", "7/4"]]}
    path = write_doc(tmp_path, "metric.json", metric)
    code, out, err = invoke(["echelon", path])
    assert code == 0 and err == ""
    assert invoke(["from-metric", path])[1] == out
    broken = dict(metric, d=[["1/1"], ["5/1", "1/1"]])  # d(0,2) > d(0,1) + d(1,2)
    code, out, err = invoke(["echelon", write_doc(tmp_path, "broken.json", broken)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "metric/triangle"
    code, _, err = invoke(["echelon", write_doc(tmp_path, "s.json", space_to_json(FIX))])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "json/schema"


@pytest.mark.parametrize(
    "raw",
    [
        b'{"kind": "space", "note": "\xff\xfe"}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"kind": "report", "x": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf8", "nested-100000", "int-5000-digits"],
)
def test_exit_code_malformed_bytes(invoke, tmp_path, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    code, out, err = invoke(["validate", str(path)])
    assert code == 65 and out == ""
    assert json.loads(err)["error"]["code"] == "json/parse"


@pytest.mark.parametrize("value", ["1e5000", "1e100000000", "1e3", "1E3", "5/2e1"])
@pytest.mark.parametrize("command", ["validate", "echelon"])
def test_exponent_strings_are_refused(invoke, tmp_path, command, value):
    """An exponent spells a huge integer in a few characters: "1e5000" once
    ended in a traceback past the integer-string limit, "1e100000000" in a
    hang.  Both, and every other exponent, are refused as rationals."""
    doc = {"format": FORMAT, "kind": "weights", "points": 2, "w": [[value]]}
    with deadline(5.0):
        code, out, err = invoke([command, write_doc(tmp_path, "w.json", doc)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "json/rational", "message": f"expected a 'p/q' string, got {value!r}"}


def full_katetov_doc(invoke, tmp_path):
    """K(EDGE) with its table, a functor action into K(FIX) and a realization."""
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    mp = write_doc(tmp_path, "map.json", {"kind": "map", "target": space_to_json(FIX), "map": [1, 0]})
    ext = write_doc(tmp_path, "ext.json", space_to_json(FIX))
    code, out, _ = invoke(["katetov", "--space", base, "--map", mp, "--extend", ext])
    assert code == 0
    return json.loads(out)


def test_validate_accepts_a_true_katetov_document(invoke, tmp_path):
    doc = full_katetov_doc(invoke, tmp_path)
    assert {"space", "map", "extension"} <= set(doc)
    assert validated(invoke, doc) == doc


@pytest.mark.parametrize("point", ["first", "last"])
def test_validate_accepts_every_extension_point(invoke, tmp_path, point):
    doc = full_katetov_doc(invoke, tmp_path)
    doc["extension"]["g"][2] = 2 if point == "first" else doc["points"] - 1
    assert validated(invoke, doc) == doc


def _swap(items, i, j):
    items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize(
    "claim, corrupt",
    [
        ("chain", lambda doc: _swap(doc["chain"], 2, 3)),
        ("chain", lambda doc: doc["chain"].pop()),
        ("width", lambda doc: doc.update(width=doc["width"] + 1)),
        ("ranks", lambda doc: doc.update(ranks=doc["ranks"] - 1)),
        ("points", lambda doc: doc.update(points=doc["points"] + 1)),
        ("points", lambda doc: doc.update(points=float(doc["points"]))),
        ("lambda", lambda doc: doc.update({"lambda": [1, 0]})),
        ("lambda", lambda doc: doc.update({"lambda": [False, True]})),
        ("space points", lambda doc: doc.update(space=space_to_json(FIX))),
        ("map values", lambda doc: _swap(doc["map"]["values"], -1, -2)),
        ("map values", lambda doc: doc["map"]["values"].pop()),
        ("extension g", lambda doc: doc["extension"]["g"].__setitem__(0, 1)),
        ("extension g", lambda doc: doc["extension"]["g"].__setitem__(2, 1)),
        ("extension g", lambda doc: doc["extension"]["g"].__setitem__(2, doc["points"])),
    ],
)
def test_validate_refuses_a_false_katetov_claim(invoke, tmp_path, claim, corrupt):
    doc = full_katetov_doc(invoke, tmp_path)
    corrupt(doc)
    code, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error == {"code": "katetov/claim", "message": f"{claim} is not what the base gives"}


def test_validate_names_the_first_of_several_false_katetov_claims(invoke, tmp_path):
    """The fields derived from the base alone are checked in the order
    chain, width, ranks, points, lambda."""
    order = ["chain", "width", "ranks", "points", "lambda"]
    true_doc = full_katetov_doc(invoke, tmp_path)
    for first, claim in enumerate(order):
        doc = {**true_doc, **dict.fromkeys(order[first:], "false")}
        code, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["message"] == f"{claim} is not what the base gives"


@pytest.mark.parametrize(
    "corrupt, code",
    [
        (lambda doc: doc.pop("base"), "json/schema"),
        (lambda doc: doc.update(base=space_to_json(FLAT4)), "katetov/cap"),
        (lambda doc: doc["map"].pop("target"), "json/schema"),
        (lambda doc: doc["map"].update(values=["0", 1]), "json/schema"),
        (lambda doc: doc["map"]["values"].__setitem__(1, 1), "katetov/not-embedding"),
        (lambda doc: doc["extension"].update(g=[5, 5, "x"]), "json/schema"),
        (lambda doc: doc["extension"]["g"].pop(), "json/schema"),
        (lambda doc: doc["extension"]["g"].append(2), "json/schema"),
        (lambda doc: doc["extension"]["g"].__setitem__(2, True), "json/schema"),
        (lambda doc: doc.update(extension=[0, 1, 2]), "json/schema"),
    ],
)
def test_validate_refuses_a_katetov_document_it_cannot_check(invoke, tmp_path, corrupt, code):
    doc = full_katetov_doc(invoke, tmp_path)
    corrupt(doc)
    status, out, err = invoke(["validate", "-"], stdin=json.dumps(doc))
    assert status == 2 and out == ""
    assert json.loads(err)["error"]["code"] == code


def test_katetov_map_must_be_a_point_list(invoke, tmp_path):
    base = write_doc(tmp_path, "base.json", space_to_json(EDGE))
    bad = {"format": FORMAT, "kind": "map", "target": space_to_json(FIX), "map": 5}
    code, out, err = invoke(["katetov", "--space", base, "--map", write_doc(tmp_path, "m.json", bad)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "json/schema"
    untargeted = {"format": FORMAT, "kind": "map", "map": [0, 1]}
    code, _, err = invoke(["katetov", "--space", base, "--map", write_doc(tmp_path, "u.json", untargeted)])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "json/schema"


def test_amalgamate_reads_map_files(invoke, tmp_path):
    a = write_doc(tmp_path, "a.json", space_to_json(EDGE))
    b = write_doc(tmp_path, "b.json", space_to_json(FIX))
    f1 = write_doc(tmp_path, "f1.json", {"format": FORMAT, "kind": "map", "map": [0, 1]})
    f2 = tmp_path / "f2.json"
    f2.write_text("[1, 2]")
    inline = invoke(["amalgamate", "--a", a, "--b1", b, "--b2", b, "--f1", "0,1", "--f2", "1,2"])
    files = invoke(["amalgamate", "--a", a, "--b1", b, "--b2", b, "--f1", f1, "--f2", str(f2)])
    assert files == inline and inline[0] == 0
    code, _, err = invoke(["amalgamate", "--a", a, "--b1", b, "--b2", b, "--f1", b, "--f2", "1,2"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "json/schema"


@pytest.mark.parametrize("n", [GRAPH_VERTICES_CAP + 1, 10**18])
def test_graph_vertices_cap(invoke, monkeypatch, n):
    def no_graph(*args):
        raise AssertionError("a graph was built past the cap")

    monkeypatch.setattr(cli, "random_coloured_graph", no_graph)
    code, out, err = invoke(["graph", "--n", str(n)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "graph/vertices-cap"


def test_benchmark_selfcheck_pins_the_cli_bytes():
    """The self-check's corrupted-digest case passes only when every other
    pinned CLI stdout matches, the ``validate`` round-trips included."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "benchmarks/selfcheck.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("selfcheck: ok\n")


def test_every_golden_output_is_the_stdlib_rendering(invoke, monkeypatch, tmp_path):
    """On the benchmark's fixed corpus, every stdout and every ``validate``
    of one is its pinned bytes, and ``dumps`` of the parsed document equals
    the standard library's rendering byte for byte, as do ``dump``'s chunks
    joined."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import clirun
    import golden

    paths = {}
    for name, doc in clirun.CORPUS.items():
        paths[name] = write_doc(tmp_path, f"{name}.json", doc)
    outputs = {}
    for key, argv in clirun.INVOCATIONS + clirun.STANDALONE:
        code, outputs[key], _ = invoke([a.format(**paths) for a in argv])
        assert code == 0
        if (key, argv) in clirun.INVOCATIONS:
            code, outputs[f"validate:{key}"], _ = invoke(["validate", "-"], stdin=outputs[key])
            assert code == 0
    assert outputs.keys() == golden.CLI.keys()
    for key, text in outputs.items():
        assert hashlib.sha256(text.encode()).hexdigest() == golden.CLI[key], key
        doc = json.loads(text)
        assert dumps(doc) == reference_dumps(doc) == reference_render(doc, "\n") + "\n" == text, key
        chunks = []
        jsonio.dump(doc, chunks.append)
        assert "".join(chunks) == text, key


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--m", "4"],
        ["limit", "sample", "--mode", "random", "--seed", "9", "--n", "256"],
        ["limit", "sample", "--mode", "deterministic", "--n", "256"],
        ["graph", "--n", "512", "--p", "1/2", "--seed", "5"],
    ],
    ids=["enumerate-4", "limit-sample-random", "limit-sample-deterministic", "graph"],
)
def test_large_documents_render_as_the_stdlib_and_the_per_value_emitter_do(invoke, argv):
    """The documents whose tables the column renderer takes in one pass:
    4,683 same-keyed spaces, rows of label strings and rows of colours."""
    code, out, _ = invoke(argv)
    assert code == 0
    doc = json.loads(out)
    assert out == reference_dumps(doc) == reference_render(doc, "\n") + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "-", "--seed", "5"],
        ["limit", "bnf", "--seed1", "3", "--seed2", "0", "--depth", "2", "--seed", "77"],
        ["enumerate", "--m", "2", "--count", "--seed", "5"],
        ["graph", "--n", "4", "--seed", "-1"],
        ["graph", "--n", "4", "--seed", str(2**64)],
        ["limit", "bnf", "--seed1", "-1", "--seed2", "0", "--depth", "2"],
        ["limit", "bnf", "--seed1", "0", "--seed2", str(2**64), "--depth", "2"],
    ],
    ids=["validate", "limit-bnf", "enumerate", "graph-negative", "graph-2^64", "seed1", "seed2"],
)
def test_seed_is_refused_where_unread_or_out_of_range(invoke, argv):
    code, out, err = invoke(argv, stdin=dumps(space_to_json(FIX)))
    assert code == 64 and out == ""
    assert json.loads(err)["error"]["code"] == "usage"


def test_seed_accepts_the_largest_64_bit_word(invoke):
    code, out, _ = invoke(["graph", "--n", "4", "--seed", str(2**64 - 1)])
    assert code == 0
    assert json.loads(out)["kind"] == "graph"


def test_katetov_and_extend_caps_are_fixed(invoke, tmp_path):
    uniform4 = space_to_json(from_weights(4, {(i, j): 1 for i in range(4) for j in range(i + 1, 4)}))
    four = write_doc(tmp_path, "four.json", uniform4)
    code, out, err = invoke(["katetov", "--space", four])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "katetov/cap"
    code, out, err = invoke(["extend", four, "--count"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "enumerate/cap"
    point = write_doc(tmp_path, "point.json", point_doc())
    for argv in (["katetov", "--space", point, "--cap", "5"], ["extend", point, "--cap", "6"]):
        code, out, err = invoke(argv)
        assert code == 64 and out == ""
        assert json.loads(err)["error"]["code"] == "usage"


P_READERS = [
    ["graph", "--n", "2"],
    ["limit", "sample", "--mode", "random", "--n", "2"],
    ["limit", "bnf", "--seed1", "0", "--seed2", "1", "--depth", "1"],
    ["limit", "bnf", "--seed1", "0", "--seed2", "1", "--depth", "1", "--mode1", "deterministic", "--mode2", "random"],
]


@pytest.mark.parametrize("argv", P_READERS)
def test_p_floor_is_refused_before_any_threshold(invoke, monkeypatch, argv):
    assert P_FLOOR == Fraction(1, 256)
    code, out, _ = invoke(argv + ["--p", "1/256"])
    assert code == 0 and out

    def no_thresholds(p):
        raise AssertionError("thresholds were built below the floor")

    monkeypatch.setattr(prng, "geometric_thresholds", no_thresholds)
    code, out, err = invoke(argv + ["--p", "1/257"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"code": "prob/cap", "message": "--p 1/257 is below the floor of 1/256"}


def test_p_floor_holds_only_where_p_is_read(invoke, monkeypatch):
    monkeypatch.setattr(prng, "geometric_thresholds", None)
    deterministic = ["--mode1", "deterministic", "--mode2", "deterministic"]
    for argv in (["limit", "sample", "--mode", "deterministic", "--n", "2"], P_READERS[2] + deterministic):
        code, out, _ = invoke(argv + ["--p", "1/1000"])
        assert code == 0 and out
    code, _, err = invoke(["graph", "--n", "2", "--p", "0"])
    assert code == 2 and json.loads(err)["error"]["code"] == "prob/range"


@pytest.mark.parametrize("argv", [["graph"], ["limit", "sample"], ["limit", "bnf"]])
def test_help_states_the_p_floor(invoke, argv):
    code, out, _ = invoke(argv + ["--help"])
    assert code == 0 and "at least 1/256" in " ".join(out.split())


def leaf_parsers(parser=None, path=()):
    """(path, parser) for every leaf of the command line, e.g. (("limit", "sample"), parser)."""
    for action in (parser or cli._build_parser())._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.get_default("handler") is None:
                    yield from leaf_parsers(sub, path + (name,))
                else:
                    yield path + (name,), sub


# Options of type int that have no row, and what bounds them instead.
EXEMPT = {
    ("enumerate", "--m"): "space.ENUMERATE_CAP refuses m past it",
    ("ramsey", "check", "--k"): "k^(A-copies) must fit within --budget",
    ("ramsey", "search", "--k"): "k^(A-copies) must fit within --budget",
}


def test_every_numeric_option_has_a_row_or_an_exemption():
    exempted = set()
    for path, leaf in leaf_parsers():
        rows = {row.flag: row for row in leaf.get_default("bounds") or ()}
        for action in leaf._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if action.type is cli._seed_arg:  # refuses values outside [0, 2^64)
                assert flag not in rows
            elif action.type in (int, cli._fraction_arg):
                if (*path, flag) in EXEMPT:
                    assert flag not in rows
                    exempted.add((*path, flag))
                else:
                    assert flag in rows, f"{' '.join(path)} {flag} has no row"
                    assert rows.pop(flag).flag[2:].replace("-", "_") == action.dest
        assert rows == {}, f"{' '.join(path)} has rows for options it lacks"
    assert exempted == set(EXEMPT)


# Smallest argument list of each leaf that has rows; a row's flag given
# again after it overrides the value here.
LEAF_ARGV = {
    ("katetov",): ["--space", "x.json"],
    ("limit", "sample"): ["--mode", "random", "--n", "2"],
    ("limit", "bnf"): ["--seed1", "0", "--seed2", "1", "--depth", "1"],
    ("ramsey", "check"): ["--c", "c.json", "--a", "a.json", "--b", "b.json", "--k", "2"],
    ("ramsey", "search"): ["--a", "a.json", "--b", "b.json", "--k", "2"],
    ("graph",): ["--n", "2"],
}
LEAF_ROWS = [
    pytest.param(path, leaf, row, id=f"{' '.join(path)} {row.flag}")
    for path, leaf in leaf_parsers()
    for row in leaf.get_default("bounds") or ()
]


@pytest.mark.parametrize("path, leaf, row", LEAF_ROWS)
def test_each_row_admits_its_limit_and_refuses_past_it(invoke, monkeypatch, path, leaf, row):
    calls = []

    def handler(args):
        calls.append(args)
        return {"format": FORMAT, "kind": "report"}

    monkeypatch.setitem(leaf._defaults, "handler", handler)
    argv = [*path, *LEAF_ARGV[path], row.flag]
    code, out, _ = invoke(argv + [str(row.limit)])
    assert code == 0 and len(calls) == 1
    if row.flag == "--p":
        past, message = "1/257", "--p 1/257 is below the floor of 1/256"
    else:
        past, message = str(row.limit + 1), f"{row.flag} {row.limit + 1} exceeds the cap of {row.limit}{row.unit}"
    code, out, err = invoke(argv + [past])
    assert code == 2 and out == "" and len(calls) == 1
    assert json.loads(err)["error"] == {"code": row.code, "message": message}


def test_readme_cap_table_names_every_row():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| option | row of `cli.BOUNDS` |")[1].split("\n\n")[0]
    lines = {line.split("|")[2].strip(): line for line in table.splitlines()[2:]}
    for key, row in BOUNDS.items():
        line = lines[f"`{key}`"]
        assert row.flag in line and f"`{row.code}`" in line
        assert f"at {'least' if row.flag == '--p' else 'most'} {row}" in line


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_numbers_are_malformed(invoke, number):
    """JSON (RFC 8259) has no NaN or infinities; Python's decoder reads
    them, and a float literal that overflows, unless refused."""
    code, out, err = invoke(["validate", "-"], stdin=f'{{"kind": "report", "x": {number}}}')
    assert code == 65 and out == ""
    assert json.loads(err)["error"] == {"code": "json/parse", "message": f"not a finite number: {number}"}
    code, out, _ = invoke(["validate", "-"], stdin='{"kind": "report", "x": 0.5}')
    assert code == 0 and json.loads(out)["x"] == 0.5


def test_stdin_lone_surrogate_is_malformed(invoke):
    """A non-UTF-8 locale decodes undecodable stdin bytes to lone surrogates;
    they are refused like undecodable bytes in a file, while the JSON escape
    of the same code point is still valid JSON."""
    code, out, err = invoke(["validate", "-"], stdin='{"kind": "report", "x": "\udcff"}')
    assert code == 65 and out == ""
    assert json.loads(err)["error"]["code"] == "json/parse"
    code, out, _ = invoke(["validate", "-"], stdin='{"kind": "report", "x": "\\udcff"}')
    assert code == 0
    assert json.loads(out)["x"] == "\udcff"
