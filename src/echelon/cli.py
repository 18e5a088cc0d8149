"""Command-line surface over the package.

One process, one subcommand, one JSON document out (stdout or --out).
Inputs are JSON files, with "-" for stdin.  Every output embeds the
format tag and re-validates under the ``validate`` subcommand.  Exit
codes: 0 success, 2 validation error (JSON diagnostic on stderr),
64 usage, 65 malformed JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import jsonio
from .amalgam import AmalgamResult, amalgamate, jep
from .colgraph import GeometricColouring, random_coloured_graph
from .errors import CapExceeded, EchelonError, ValidationError
from .jsonio import FORMAT, fraction_to_str
from .katetov import katetov_map, katetov_space, one_point_extensions, realize_extension
from .limit import back_and_forth, limit_new
from .metrize import from_metric, metrize_dull
from .ramsey import arrow_check, copy_set, witness_search
from .space import are_isomorphic, enumerate_spaces, from_weights

# Largest `limit sample --n`: the output carries n(n-1)/2 exact labels.
LIMIT_POINTS_CAP = 1024
# Largest `limit bnf --depth`: back-and-forth between two deterministic
# models costs about depth^4 and takes about 1 s at this depth.
LIMIT_DEPTH_CAP = 40
# Largest `graph --n`: the graph stores n(n-1)/2 edge colours.
GRAPH_VERTICES_CAP = 2048


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_doc(path: str):
    """Parse a JSON input; bytes that are not UTF-8 and input the decoder
    refuses (nesting too deep, integers too long) are malformed JSON.

    The encode check refuses the lone surrogates that a non-UTF-8 locale's
    stdin decoding leaves in place of undecodable bytes."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        text.encode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeError are ValueErrors
        raise ValidationError("json/parse", str(exc)) from None


def _read_space(path: str):
    return jsonio.space_from_json(_read_doc(path))


def _read_ordered(path: str):
    return jsonio.ordered_space_from_json(_read_doc(path))


def _parse_map(value: str) -> tuple[int, ...]:
    """A point map, either inline ("0,2,1") or a JSON file (a list or a map document)."""
    try:
        return tuple(int(t) for t in value.split(","))
    except ValueError:
        pass
    return jsonio.map_from_json(_read_doc(value))[1]


def _fraction_arg(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {value!r}")


def _seed_arg(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if not 0 <= seed < 1 << 64:  # seeds are 64-bit words; others would alias
        raise argparse.ArgumentTypeError(f"seed {seed} is outside [0, 2^64)")
    return seed


def _label_str(label: tuple) -> str:
    return ":".join(str(part) for part in label)


def _amalgam_doc(result: AmalgamResult) -> dict:
    return {
        "format": FORMAT,
        "kind": "amalgam",
        "space": jsonio.space_to_json(result.space),
        "g1": list(result.g1),
        "g2": list(result.g2),
        "chain": {
            "size": result.chain.size,
            "g1": list(result.chain.g1),
            "g2": list(result.chain.g2),
            "top": result.chain.top,
        },
    }


def _label_rows(label_of, count: int) -> list[list[str]]:
    return [
        [fraction_to_str(label_of(i, j)) for j in range(i)] for i in range(1, count)
    ]


# --- subcommand handlers; each returns the output document ---


def _cmd_validate(args) -> dict:
    return jsonio.validate(_read_doc(args.input))


def _cmd_echelon(args) -> dict:
    m, weights = jsonio.weights_from_json(_read_doc(args.input))
    return jsonio.space_to_json(from_weights(m, weights))


def _cmd_metrize(args) -> dict:
    return jsonio.metric_to_json(metrize_dull(_read_space(args.input)))


def _cmd_from_metric(args) -> dict:
    return jsonio.space_to_json(from_metric(jsonio.metric_from_json(_read_doc(args.input))))


def _cmd_amalgamate(args) -> dict:
    result = amalgamate(
        _read_space(args.a),
        _read_space(args.b1),
        _read_space(args.b2),
        _parse_map(args.f1),
        _parse_map(args.f2),
    )
    return _amalgam_doc(result)


def _cmd_jep(args) -> dict:
    return _amalgam_doc(jep(_read_space(args.b1), _read_space(args.b2)))


def _cmd_katetov(args) -> dict:
    base = _read_space(args.space)
    kx = katetov_space(base)
    doc = {
        "format": FORMAT,
        "kind": "katetov",
        "base": jsonio.space_to_json(base),
        "points": kx.m,
        "ranks": kx.n,
        "width": kx.width,
        "chain": [_label_str(lab) for lab in kx.chain.labels],
        "lambda": list(kx.identity_embedding()),
    }
    if kx.m <= args.materialize_cap:
        doc["space"] = jsonio.space_to_json(kx.materialize(cap=args.materialize_cap))
    if args.map is not None:
        target, phi = jsonio.map_from_json(_read_doc(args.map))
        if target is None:
            raise ValidationError("json/schema", "--map expects a map document with a target space")
        ky = katetov_space(target)
        doc["map"] = {
            "target": jsonio.space_to_json(target),
            "values": list(katetov_map(kx, ky, phi)),
        }
    if args.extend is not None:
        realization = realize_extension(base, _read_space(args.extend))
        doc["extension"] = {"g": list(realization.g)}
    return doc


def _cmd_extend(args) -> dict:
    extensions = list(one_point_extensions(_read_space(args.input)))
    if args.count:
        return {"format": FORMAT, "kind": "report", "count": len(extensions)}
    return jsonio.space_list_to_json([jsonio.space_to_json(sp) for sp in extensions])


def _cmd_limit_sample(args) -> dict:
    if args.n > LIMIT_POINTS_CAP:
        raise CapExceeded(
            "limit/points-cap", f"--n {args.n} exceeds the cap of {LIMIT_POINTS_CAP} points"
        )
    model = limit_new(args.mode, args.seed, args.p)
    space = model.sample_prefix(args.n)
    doc = jsonio.space_to_json(space)
    doc["mode"] = args.mode
    doc["seed"] = args.seed
    doc["p"] = fraction_to_str(args.p)
    doc["labels"] = _label_rows(model.rank_label, args.n)
    return doc


def _cmd_limit_bnf(args) -> dict:
    if args.depth > LIMIT_DEPTH_CAP:
        raise CapExceeded(
            "limit/depth-cap", f"--depth {args.depth} exceeds the cap of {LIMIT_DEPTH_CAP}"
        )
    first = limit_new(args.mode1, args.seed1, args.p)
    second = limit_new(args.mode2, args.seed2, args.p)
    cert = back_and_forth(first, second, args.depth)
    return {
        "format": FORMAT,
        "kind": "bnf",
        "depth": args.depth,
        "left": list(cert.left),
        "right": list(cert.right),
        "left_space": jsonio.space_to_json(cert.left_space),
        "right_space": jsonio.space_to_json(cert.right_space),
        "left_labels": [fraction_to_str(q) for q in cert.left_labels],
        "right_labels": [fraction_to_str(q) for q in cert.right_labels],
    }


def _cmd_ramsey_check(args) -> dict:
    c = _read_ordered(args.c)
    a = _read_ordered(args.a)
    b = _read_ordered(args.b)
    arrows = arrow_check(c, a, b, args.k, budget=args.budget)
    return {
        "format": FORMAT,
        "kind": "report",
        "arrow": arrows,
        "k": args.k,
        "a_copies": len(copy_set(a, c)),
        "b_copies": len(copy_set(b, c)),
    }


def _cmd_ramsey_search(args) -> dict:
    witness = witness_search(
        _read_ordered(args.a),
        _read_ordered(args.b),
        args.k,
        size_cap=args.cap,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
    )
    if witness is None:
        return {"format": FORMAT, "kind": "report", "found": False}
    return jsonio.space_to_json(witness.space, order=witness.order)


def _cmd_enumerate(args) -> dict:
    spaces = enumerate_spaces(args.m, up_to_iso=args.up_to_iso)
    if args.count:
        return {"format": FORMAT, "kind": "report", "count": sum(1 for _ in spaces)}
    return jsonio.space_list_to_json([jsonio.space_to_json(sp) for sp in spaces])


def _cmd_iso(args) -> dict:
    witness = are_isomorphic(_read_space(args.a), _read_space(args.b))
    return {
        "format": FORMAT,
        "kind": "report",
        "isomorphic": witness is not None,
        "map": None if witness is None else list(witness),
    }


def _cmd_graph(args) -> dict:
    if args.n > GRAPH_VERTICES_CAP:
        raise CapExceeded(
            "graph/vertices-cap", f"--n {args.n} exceeds the cap of {GRAPH_VERTICES_CAP} vertices"
        )
    colouring = GeometricColouring(args.p, args.seed)
    return jsonio.graph_to_json(random_coloured_graph(args.n, colouring))


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the output document here instead of stdout")
    common.add_argument(
        "--format",
        dest="format_tag",
        default=FORMAT,
        help=f"expected document format tag (default {FORMAT})",
    )
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed_arg, default=0, help="PRNG seed in [0, 2^64) (default 0)")

    parser = _Parser(prog="echelon", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common], help="re-validate and normalize a document")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("echelon", parents=[common], help="rank-compress a weights document into a space")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_echelon)

    p = sub.add_parser("metrize", parents=[common], help="realize a space as a dull metric")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_metrize)

    p = sub.add_parser("from-metric", parents=[common], help="echelon a metric by comparing distances")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_from_metric)

    p = sub.add_parser("amalgamate", parents=[common], help="strong amalgam over a shared subspace")
    p.add_argument("--a", required=True, help="shared space document")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--f1", required=True, help="embedding of a into b1 (inline '0,1' or JSON)")
    p.add_argument("--f2", required=True, help="embedding of a into b2")
    p.set_defaults(handler=_cmd_amalgamate)

    p = sub.add_parser("jep", parents=[common], help="joint embedding of two spaces")
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.set_defaults(handler=_cmd_jep)

    p = sub.add_parser("katetov", parents=[common], help="one-point-extension space K(X)")
    p.add_argument("--space", required=True)
    p.add_argument("--map", help="map document {kind: map, target, map} for the functor action")
    p.add_argument("--extend", help="one-point extension to realize inside K(X)")
    p.add_argument(
        "--materialize-cap",
        type=int,
        default=512,
        help="emit the full K(X) table only up to this many points",
    )
    p.set_defaults(handler=_cmd_katetov)

    p = sub.add_parser("extend", parents=[common], help="enumerate one-point extensions")
    p.add_argument("input")
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.set_defaults(handler=_cmd_extend)

    p = sub.add_parser("limit", parents=[], help="generative models of the limit space")
    limit_sub = p.add_subparsers(dest="limit_command", required=True)

    q = limit_sub.add_parser("sample", parents=[common, seeded], help="echelon the first n points")
    q.add_argument("--mode", choices=("random", "deterministic"), required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--p", type=_fraction_arg, default=Fraction(1, 2), help="colour rate (default 1/2)")
    q.set_defaults(handler=_cmd_limit_sample)

    q = limit_sub.add_parser("bnf", parents=[common], help="back-and-forth certificate")
    q.add_argument("--seed1", type=_seed_arg, required=True)
    q.add_argument("--seed2", type=_seed_arg, required=True)
    q.add_argument("--depth", type=int, required=True)
    q.add_argument("--mode1", choices=("random", "deterministic"), default="random")
    q.add_argument("--mode2", choices=("random", "deterministic"), default="deterministic")
    q.add_argument("--p", type=_fraction_arg, default=Fraction(1, 2))
    q.set_defaults(handler=_cmd_limit_bnf)

    p = sub.add_parser("ramsey", parents=[], help="partition arrow checks")
    ramsey_sub = p.add_subparsers(dest="ramsey_command", required=True)

    q = ramsey_sub.add_parser("check", parents=[common], help="decide C -> (B) over A-copies")
    q.add_argument("--c", required=True)
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--budget", type=int, default=1 << 20)
    q.set_defaults(handler=_cmd_ramsey_check)

    q = ramsey_sub.add_parser("search", parents=[common, seeded], help="hunt for a witness C")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--cap", type=int, default=4, help="largest size to try (default 4)")
    q.add_argument("--samples", type=int, default=200, help="random probes per size beyond 4")
    q.add_argument("--budget", type=int, default=1 << 20)
    q.set_defaults(handler=_cmd_ramsey_search)

    p = sub.add_parser("enumerate", parents=[common], help="all labeled spaces on m points")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    p.add_argument("--count", action="store_true", help="emit only the count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("iso", parents=[common], help="isomorphism test with witness map")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("graph", parents=[common, seeded], help="seeded geometric edge colouring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_fraction_arg, default=Fraction(1, 2))
    p.set_defaults(handler=_cmd_graph)

    return parser


def _diagnostic(code: str, message: str) -> None:
    sys.stderr.write(jsonio.dumps({"error": {"code": code, "message": message}}))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _diagnostic("usage", str(exc))
        return 64
    except SystemExit as exc:  # --help prints and exits
        return 0 if exc.code is None else int(exc.code)
    if args.format_tag != FORMAT:
        _diagnostic("json/format", f"unsupported format tag {args.format_tag!r}")
        return 2
    try:
        doc = args.handler(args)
    except EchelonError as exc:
        _diagnostic(exc.code, exc.message)
        return 65 if exc.code == "json/parse" else 2
    except OSError as exc:
        _diagnostic("io/read", str(exc))
        return 2
    text = jsonio.dumps(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
