"""Workload ``cli``: in-process ``echelon.cli.main(argv)`` with stdout captured.

One invocation per subcommand on a fixed corpus that set-up writes, each
producer followed by ``validate`` of its own output on stdin, so every
emitted kind is re-validated; the large document is ``enumerate --m 4``
(about 1.2 MB) and its validation.  Every stdout must match the SHA-256
pinned in ``golden.CLI``.  The corpus is fixed so the digests can be pinned;
the seed only orders the invocations.  This is the only workload dominated
by argparse, jsonio and document dispatch.  The jsonio spans come from the
check step, which re-loads each producer's stdout with jsonio and re-renders
it with ``jsonio.dumps``, requiring the same bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import golden
from harness import Task, expect

NAME = "cli"
MIN_PASSES = 8


def _space(rows, order=None):
    doc = {"format": "echelon/1", "kind": "space", "points": len(rows) + 1, "ranks": max((max(r) for r in rows), default=0), "eta": rows}
    if order is not None:
        doc["order"] = order
    return doc


X = [[1], [2, 2]]  # the README's 3-point space
X_RELABELLED = [[2], [2, 1]]  # X with point i renamed (1, 2, 0)[i]
CORPUS = {
    "weights": {"format": "echelon/1", "kind": "weights", "points": 3, "w": [["2/1"], ["4/1", "4/1"]]},
    "x": _space(X),
    "xr": _space(X_RELABELLED),
    "metric": {"format": "echelon/1", "kind": "metric", "points": 3, "d": [["3/2"], ["7/4", "7/4"]]},
    "edge": _space([[1]]),
    "b2": _space([[2], [1, 3], [3, 2, 1]]),
    "map": {"format": "echelon/1", "kind": "map", "target": _space(X_RELABELLED), "map": [1, 2, 0]},
    "ext": _space([[1], [2, 2], [3, 1, 2]]),
    "pt_o": _space([], order=[0]),
    "edge_o": _space([[1]], order=[0, 1]),
    "tri_o": _space([[1], [1, 1]], order=[0, 1, 2]),
}

# (key, argv); "{name}" is a corpus file.  Every producer's stdout is then
# validated from stdin under the key "validate:<key>".
INVOCATIONS = (
    ("echelon", ["echelon", "{weights}"]),
    ("metrize", ["metrize", "{x}"]),
    ("from-metric", ["from-metric", "{metric}"]),
    ("amalgamate", ["amalgamate", "--a", "{edge}", "--b1", "{x}", "--b2", "{b2}", "--f1", "0,1", "--f2", "1,2"]),
    ("jep", ["jep", "--b1", "{x}", "--b2", "{b2}"]),
    ("katetov", ["katetov", "--space", "{x}", "--map", "{map}", "--extend", "{ext}"]),
    ("extend", ["extend", "{edge}"]),
    ("extend-count", ["extend", "{edge}", "--count"]),
    ("limit-sample-random", ["limit", "sample", "--mode", "random", "--seed", "9", "--n", "16"]),
    ("limit-sample-deterministic", ["limit", "sample", "--mode", "deterministic", "--n", "16"]),
    ("limit-bnf", ["limit", "bnf", "--seed1", "3", "--seed2", "0", "--depth", "8"]),
    ("ramsey-check", ["ramsey", "check", "--c", "{tri_o}", "--a", "{pt_o}", "--b", "{edge_o}", "--k", "2"]),
    ("ramsey-search", ["ramsey", "search", "--a", "{pt_o}", "--b", "{edge_o}", "--k", "2"]),
    ("enumerate-4", ["enumerate", "--m", "4"]),
    ("iso", ["iso", "{x}", "{xr}"]),
    ("graph", ["graph", "--n", "256", "--p", "1/2", "--seed", "5"]),
)
STANDALONE = (("validate-weights", ["validate", "{weights}"]),)


def subcommand(argv) -> str:
    return "-".join(argv[:2]) if argv[0] in ("limit", "ramsey") else argv[0]


def render(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def setup(E, rng, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in CORPUS.items():
        path = workdir / f"{name}.json"
        path.write_text(render(doc))
        paths[name] = str(path)
    return {"paths": paths, "main": E.cli.main, "jsonio": E.jsonio, "digests": dict(golden.CLI)}


def warm(E, inp):
    invoke(inp["main"], ["enumerate", "--m", "2", "--count"], None)


def invoke(main, argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _loaded(jsonio, doc):
    """Load every structure a document carries with the jsonio loaders."""
    kind = doc.get("kind")
    if kind in ("space", "metric", "graph"):
        return jsonio.load_document(doc)
    if kind == "space-list":
        return [jsonio.load_document(member) for member in doc["spaces"]]
    keys = {"amalgam": ("space",), "katetov": ("base",), "bnf": ("left_space", "right_space")}.get(kind, ())
    return [jsonio.space_from_json(doc[key]) for key in keys]


def _task(inp, key, argv, stdin_box, stdout_box):
    """One invocation; stdin is read from ``stdin_box`` and stdout is handed
    on through ``stdout_box``, which the next invocation of its group reads."""
    sub = subcommand(argv)
    argv = [a.format(**inp["paths"]) for a in argv]
    main, jsonio = inp["main"], inp["jsonio"]

    def run(tr):
        stdin_text = None if stdin_box is None else stdin_box["text"]
        return tr(f"cli.main.{sub}", invoke, main, argv, stdin_text)

    def check(out, tr):
        code, stdout, stderr = out
        if stdout_box is not None:
            stdout_box["text"] = stdout
        tr.count("cli.stdout_bytes", len(stdout.encode()))
        expect(code == 0 and stderr == "", "cli", f"{key}: exit {code}, stderr {stderr[:200]!r}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        expect(digest == inp["digests"].get(key), "cli", f"{key}: stdout digest {digest} does not match the pinned one")
        if stdin_box is not None:
            return  # a validate: its stdout is pinned, and its input was round-tripped as a producer's stdout
        doc = json.loads(stdout)
        tr("jsonio.load", _loaded, jsonio, doc)
        rendered = tr("jsonio.dumps", jsonio.dumps, doc)
        tr.count("jsonio.dumps.bytes", len(rendered.encode()))
        expect(rendered == stdout, "jsonio", f"{key}: jsonio.dumps does not reproduce stdout")

    return Task(f"cli.{sub}", "cli", run, check)


def build(E, inp):
    groups = []
    for key, argv in INVOCATIONS:
        box: dict = {}
        groups.append([_task(inp, key, argv, None, box), _task(inp, f"validate:{key}", ["validate", "-"], box, None)])
    groups.extend([_task(inp, key, argv, None, None)] for key, argv in STANDALONE)
    return groups, None
